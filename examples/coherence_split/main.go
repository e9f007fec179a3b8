// Coherence split: the Section-2.3 protocol adaptation.
//
// MOESI encodes dirtiness implicitly: M and O are the dirty twins of E
// and S. This example splits the state space into (M,E), (O,S), (I)
// pairs, stores the pair in a (map-backed) tag directory, keeps the
// selecting bit in a real Dirty-Block Index, and replays a sharing
// scenario to show that the reconstructed states — and the protocol's
// writeback/supply actions — are exactly those of an unsplit MOESI
// machine, while the DBI simultaneously provides its row-grouped view of
// all dirty data.
//
// Run with: go run ./examples/coherence_split
package main

import (
	"fmt"

	"dbisim/internal/addr"
	"dbisim/internal/coherence"
	"dbisim/internal/config"
	"dbisim/internal/dbi"
)

func main() {
	geo := addr.Default()
	index, err := dbi.New(dbi.WithGeometry(geo), dbi.WithParams(config.PaperDBI()),
		dbi.WithCacheBlocks(32768), dbi.WithSeed(1))
	if err != nil {
		panic(err)
	}
	adapter := &coherence.DBIAdapter{D: index, OnEviction: func(ev dbi.Eviction) {
		fmt.Printf("  [DBI eviction: region %d, %d blocks written back]\n",
			ev.Region, len(ev.Blocks))
	}}
	dir := coherence.NewSplitDirectory(adapter)

	const block = uint64(0x1000)
	show := func(label string) {
		s := dir.StateOf(block)
		fmt.Printf("%-34s state=%v (dirty in DBI: %v)\n",
			label, s, index.IsDirty(addr.BlockAddr(block)))
	}

	fmt.Println("MOESI with the dirty half of each state pair in the DBI:")
	dir.SetState(block, coherence.Exclusive) // fill on a read miss
	show("fill (read miss)")

	out := dir.Apply(block, coherence.LocalWrite)
	show("local write (E->M)")
	_ = out

	out = dir.Apply(block, coherence.RemoteRead)
	show("remote read (M->O, supplies data)")
	fmt.Printf("  supplied data to requester: %v\n", out.SupplyData)

	out = dir.Apply(block, coherence.Evict)
	show("evict (O->I, writes back)")
	fmt.Printf("  writeback to memory: %v\n", out.WritebackToMemory)

	// The same split works for whole rows at once: dirty a row's worth
	// of blocks through the directory and ask the DBI for the row view.
	fmt.Println("\nrow-grouped view of directory-managed dirty data:")
	row := addr.RowID(5)
	for col := 0; col < 4; col++ {
		b := uint64(geo.BlockInRow(row, col*16))
		dir.SetState(b, coherence.Modified)
	}
	blocks := index.DirtyBlocksInRegion(geo.BlockInRow(row, 0))
	fmt.Printf("DBI lists %d dirty blocks of row %d in one query\n", len(blocks), row)
}
