// Package addr defines the physical address geometry shared by every
// component of the simulator: cache blocks, DRAM rows, banks and the
// mappings between them.
//
// The simulated machine uses the layout from Table 1 of the DBI paper:
// 64-byte cache blocks and 8KB DRAM rows (128 blocks per row) spread over
// 8 banks with row interleaving, i.e. consecutive DRAM rows map to
// consecutive banks.
package addr

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// BlockAddr identifies one cache-block-sized region of physical memory
// (a physical address with the block offset stripped).
type BlockAddr uint64

// RowID identifies one DRAM row across all banks. Row r lives in bank
// r % NumBanks (row interleaving).
type RowID uint64

// Geometry describes the address layout of the machine.
//
// The zero value is not useful; use NewGeometry or Default.
type Geometry struct {
	BlockSize     uint64 // bytes per cache block (power of two)
	RowSize       uint64 // bytes per DRAM row (power of two)
	NumBanks      uint64 // DRAM banks (power of two)
	blockShift    uint   // log2(BlockSize)
	blocksPerRow  uint64
	blockRowShift uint // log2(blocksPerRow)
}

// Default returns the paper's geometry: 64B blocks, 8KB rows, 8 banks.
func Default() Geometry {
	g, err := NewGeometry(64, 8192, 8)
	if err != nil {
		panic(err) // statically correct parameters
	}
	return g
}

// NewGeometry validates the parameters and returns a Geometry.
// All three parameters must be powers of two and RowSize must be a
// multiple of BlockSize.
func NewGeometry(blockSize, rowSize, numBanks uint64) (Geometry, error) {
	switch {
	case blockSize == 0 || blockSize&(blockSize-1) != 0:
		return Geometry{}, fmt.Errorf("addr: block size %d is not a power of two", blockSize)
	case rowSize == 0 || rowSize&(rowSize-1) != 0:
		return Geometry{}, fmt.Errorf("addr: row size %d is not a power of two", rowSize)
	case numBanks == 0 || numBanks&(numBanks-1) != 0:
		return Geometry{}, fmt.Errorf("addr: bank count %d is not a power of two", numBanks)
	case rowSize < blockSize:
		return Geometry{}, fmt.Errorf("addr: row size %d smaller than block size %d", rowSize, blockSize)
	}
	g := Geometry{
		BlockSize:    blockSize,
		RowSize:      rowSize,
		NumBanks:     numBanks,
		blocksPerRow: rowSize / blockSize,
	}
	g.blockShift = log2(blockSize)
	g.blockRowShift = log2(g.blocksPerRow)
	return g, nil
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// BlocksPerRow reports how many cache blocks one DRAM row holds.
func (g Geometry) BlocksPerRow() int { return int(g.blocksPerRow) }

// BlockOf strips the block offset from a physical address.
func (g Geometry) BlockOf(a Addr) BlockAddr { return BlockAddr(uint64(a) >> g.blockShift) }

// RowOf returns the DRAM row containing a block.
func (g Geometry) RowOf(b BlockAddr) RowID { return RowID(uint64(b) >> g.blockRowShift) }

// ColumnOf returns the block's index within its DRAM row, in
// [0, BlocksPerRow).
func (g Geometry) ColumnOf(b BlockAddr) int {
	return int(uint64(b) & (g.blocksPerRow - 1))
}

// BankOf returns the DRAM bank a row maps to under row interleaving.
func (g Geometry) BankOf(r RowID) int { return int(uint64(r) & (g.NumBanks - 1)) }

// BlockInRow reconstructs the block address of column col in row r.
func (g Geometry) BlockInRow(r RowID, col int) BlockAddr {
	return BlockAddr(uint64(r)<<g.blockRowShift | uint64(col))
}

// String implements fmt.Stringer for diagnostics.
func (g Geometry) String() string {
	return fmt.Sprintf("geometry{block=%dB row=%dB banks=%d blocks/row=%d}",
		g.BlockSize, g.RowSize, g.NumBanks, g.blocksPerRow)
}
