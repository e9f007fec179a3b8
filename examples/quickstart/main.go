// Quickstart: the Dirty-Block Index as a data structure.
//
// This example uses the DBI directly — no simulator — to show its three
// defining abilities (Section 2 of the paper):
//
//  1. a block's dirty status is one fast lookup;
//  2. all dirty blocks of one DRAM row come back from a single query;
//  3. evicting an entry yields exactly the row-grouped writeback list
//     the memory controller wants.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/dbi"
)

func main() {
	geo := addr.Default() // 64B blocks, 8KB DRAM rows, 8 banks

	// A DBI for a 1MB cache (16384 blocks), α=1/2, one entry per 64
	// blocks: 128 entries of a 64-bit dirty vector each, 8 ways — Table
	// 1's DBI as the scaled 1-core preset sizes it.
	params := config.PaperDBI()
	params.AlphaDen = 2
	params.Associativity = 8
	index, err := dbi.New(dbi.WithGeometry(geo), dbi.WithParams(params),
		dbi.WithCacheBlocks(16384), dbi.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("DBI: %d entries × %d blocks = %d tracked blocks\n",
		index.Entries(), index.Granularity(), index.TrackedBlocks())

	// The cache receives writebacks for scattered blocks of DRAM row 7.
	row := addr.RowID(7)
	for _, col := range []int{3, 12, 40, 99, 100} {
		block := geo.BlockInRow(row, col)
		if ev, evicted := index.SetDirty(block); evicted {
			fmt.Printf("DBI eviction of region %d: %d blocks to write back\n",
				ev.Region, len(ev.Blocks))
		}
	}

	// 1. Dirty check: one lookup, no tag-store walk.
	probe := geo.BlockInRow(row, 12)
	fmt.Printf("block (row %d, col 12) dirty? %v\n", row, index.IsDirty(probe))
	fmt.Printf("block (row %d, col 13) dirty? %v\n", row, index.IsDirty(geo.BlockInRow(row, 13)))

	// 2. All dirty row-mates in one query — what AWB uses to group
	// writebacks by DRAM row.
	fmt.Printf("dirty blocks co-located with (row %d, col 12):\n", row)
	for _, b := range index.DirtyBlocksInRegion(probe) {
		fmt.Printf("  row %d col %3d\n", geo.RowOf(b), geo.ColumnOf(b))
	}

	// 3. Bulk queries from Section 7: row/bank dirty status, DMA ranges,
	// and the row-grouped flush.
	fmt.Printf("row %d has dirty blocks? %v\n", row, index.RowHasDirty(row))
	fmt.Printf("bank of row %d: %d; bank dirty? %v\n",
		row, geo.BankOf(row), index.BankHasDirty(geo.BankOf(row)))
	lo, hi := geo.BlockInRow(row, 0), geo.BlockInRow(row, 64)
	fmt.Printf("dirty blocks in DMA range [row %d, cols 0-63]: %d\n",
		row, len(index.DirtyInRange(lo, hi)))

	evs := index.Flush()
	total := 0
	for _, ev := range evs {
		total += len(ev.Blocks)
	}
	fmt.Printf("flush: %d row-grouped eviction(s), %d blocks written back\n",
		len(evs), total)
	fmt.Printf("dirty blocks after flush: %d\n", index.DirtyCount())
}
