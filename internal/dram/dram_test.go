package dram

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
)

func newCtl(t *testing.T) (*event.Engine, *Controller) {
	t.Helper()
	var eng event.Engine
	c, err := New(&eng, addr.Default(), config.Paper(1, config.TADIP).DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return &eng, c
}

// blockInRow returns the col'th block of DRAM row r.
func blockInRow(r, col uint64) addr.BlockAddr {
	return addr.BlockAddr(r*128 + col)
}

func TestReadLatencyRowStates(t *testing.T) {
	eng, c := newCtl(t)
	var times []event.Cycle
	record := func() { times = append(times, eng.Now()) }

	c.Read(blockInRow(0, 0), record) // closed bank: TRCD+TCAS+TBurst = 90
	eng.Run()
	c.Read(blockInRow(0, 1), record) // row hit: TCAS+TBurst = 55
	eng.Run()
	c.Read(blockInRow(8, 0), record) // same bank (row 8 -> bank 0), conflict: 125
	eng.Run()

	if times[0] != 90 {
		t.Fatalf("closed-bank read at %d, want 90", times[0])
	}
	if times[1]-times[0] != 55 {
		t.Fatalf("row-hit read took %d, want 55", times[1]-times[0])
	}
	if times[2]-times[1] != 125 {
		t.Fatalf("conflict read took %d, want 125", times[2]-times[1])
	}
	// An activate without a conflict opened a closed bank.
	closed := c.Stat.Activates.Value() - c.Stat.RowConflicts.Value()
	if c.Stat.ReadRowHits.Value() != 1 || c.Stat.RowConflicts.Value() != 1 || closed != 1 {
		t.Fatalf("stats: hits=%d conflicts=%d closed=%d",
			c.Stat.ReadRowHits.Value(), c.Stat.RowConflicts.Value(), closed)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	eng, c := newCtl(t)
	var order []addr.BlockAddr
	// Open row 0 in bank 0.
	c.Read(blockInRow(0, 0), func() { order = append(order, blockInRow(0, 0)) })
	// Queue: a conflict (row 8, bank 0) then a row hit (row 0).
	c.Read(blockInRow(8, 0), func() { order = append(order, blockInRow(8, 0)) })
	c.Read(blockInRow(0, 5), func() { order = append(order, blockInRow(0, 5)) })
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("served %d reads", len(order))
	}
	if order[1] != blockInRow(0, 5) {
		t.Fatalf("FR-FCFS order = %v; row hit must be served before older conflict", order)
	}
}

func TestWriteBufferDrainWhenFull(t *testing.T) {
	eng, c := newCtl(t)
	// 63 writes: below capacity, no demand reads -> they drain
	// opportunistically. Instead hold the channel with reads while
	// filling the buffer.
	busy := 0
	var refill func()
	refill = func() {
		busy++
		if busy < 200 && len(c.writeQ) < 64 {
			c.Read(blockInRow(uint64(busy%4), uint64(busy%128)), refill)
		}
	}
	c.Read(blockInRow(0, 0), refill)
	for i := 0; i < 63; i++ {
		c.Write(blockInRow(uint64(100+i/16), uint64(i%16)))
	}
	if c.draining {
		t.Fatal("draining below capacity")
	}
	c.Write(blockInRow(200, 0)) // 64th write: buffer full
	eng.Run()
	if c.Stat.DrainsStarted.Value() == 0 {
		t.Fatal("no drain started at capacity")
	}
	if len(c.writeQ) != 0 {
		t.Fatalf("writes left: %d", len(c.writeQ))
	}
}

func TestOpportunisticWritesWhenNoReads(t *testing.T) {
	eng, c := newCtl(t)
	c.Write(blockInRow(1, 0))
	c.Write(blockInRow(1, 1))
	eng.Run()
	if c.Stat.Writes.Value() != 2 {
		t.Fatalf("writes = %d, want 2 (opportunistic drain)", c.Stat.Writes.Value())
	}
	if c.Stat.DrainsStarted.Value() != 0 {
		t.Fatal("opportunistic writes must not count as drains")
	}
	if len(c.readQ) != 0 || len(c.writeQ) != 0 {
		t.Fatal("controller not idle after draining")
	}
}

func TestRowGroupedWritesHitRows(t *testing.T) {
	eng, c := newCtl(t)
	// 32 writes to the same row: 31 row hits.
	for i := 0; i < 32; i++ {
		c.Write(blockInRow(5, uint64(i)))
	}
	eng.Run()
	if got := c.Stat.WriteRowHits.Value(); got != 31 {
		t.Fatalf("write row hits = %d, want 31", got)
	}
	if got := c.Stat.Writes.Value(); got != 32 {
		t.Fatalf("writes = %d, want 32", got)
	}
}

func TestScatteredWritesConflict(t *testing.T) {
	eng, c := newCtl(t)
	// Writes alternating between two rows of the same bank, arriving one
	// at a time so FR-FCFS cannot regroup them: every write after the
	// first conflicts. (When they arrive together, FR-FCFS reorders them
	// into row groups — TestFRFCFSPrefersRowHit covers that.)
	for i := 0; i < 16; i++ {
		c.Write(blockInRow(uint64(8*(i%2)), uint64(i)))
		eng.Run()
	}
	if c.Stat.WriteRowHits.Value() != 0 {
		t.Fatalf("row hits = %d, want 0", c.Stat.WriteRowHits.Value())
	}
	if c.Stat.RowConflicts.Value() != 15 {
		t.Fatalf("conflicts = %d, want 15", c.Stat.RowConflicts.Value())
	}
}

func TestWriteBufferForwardsToReads(t *testing.T) {
	eng, c := newCtl(t)
	// Park a write in the buffer behind a long train of reads so it has
	// not drained when the matching read arrives.
	c.Read(blockInRow(3, 0), nil)
	c.Write(blockInRow(7, 7))
	served := false
	c.Read(blockInRow(7, 7), func() { served = true })
	eng.At(25, eng.Stop) // less than any DRAM access latency
	eng.Run()
	if !served {
		t.Fatal("read not forwarded from write buffer")
	}
	if c.Stat.WriteBufHits.Value() != 1 {
		t.Fatalf("write buffer hits = %d", c.Stat.WriteBufHits.Value())
	}
	eng.Run()
}

func TestBankInterleavingTracksGeometry(t *testing.T) {
	eng, c := newCtl(t)
	// Consecutive rows land in different banks: no conflicts.
	for r := uint64(0); r < 8; r++ {
		c.Write(blockInRow(r, 0))
	}
	eng.Run()
	if c.Stat.RowConflicts.Value() != 0 {
		t.Fatalf("conflicts across distinct banks: %d", c.Stat.RowConflicts.Value())
	}
	if c.Stat.Activates.Value() != 8 {
		t.Fatalf("activates = %d, want 8", c.Stat.Activates.Value())
	}
}

// TestBanksFollowGeometry builds a controller on a 16-bank geometry
// with the 8-bank Table-1 timing parameters: the controller must model
// every bank the geometry maps rows to.
func TestBanksFollowGeometry(t *testing.T) {
	geo, err := addr.NewGeometry(64, 8192, 16)
	if err != nil {
		t.Fatal(err)
	}
	var eng event.Engine
	c, err := New(&eng, geo, config.Paper(1, config.TADIP).DRAM)
	if err != nil {
		t.Fatal(err)
	}
	for r := addr.RowID(0); r < 16; r++ {
		c.Read(geo.BlockInRow(r, 0), nil)
	}
	eng.Run()
	if c.Stat.Reads.Value() != 16 || c.Stat.Activates.Value() != 16 {
		t.Fatalf("reads = %d, activates = %d, want 16 and 16",
			c.Stat.Reads.Value(), c.Stat.Activates.Value())
	}
}

func TestReadsResumeAfterDrain(t *testing.T) {
	eng, c := newCtl(t)
	for i := 0; i < 64; i++ {
		c.Write(blockInRow(uint64(i), 0))
	}
	served := false
	c.Read(blockInRow(70, 0), func() { served = true })
	eng.Run()
	if !served {
		t.Fatal("read starved")
	}
	if len(c.writeQ) != 0 {
		t.Fatal("writes left")
	}
}

func TestAvgReadLatency(t *testing.T) {
	eng, c := newCtl(t)
	c.Read(blockInRow(0, 0), nil)
	eng.Run()
	if got := c.Stat.ReadLatencySum.Value(); got != 90 {
		t.Fatalf("read latency = %v, want 90", got)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	var eng event.Engine
	p := config.Paper(1, config.TADIP).DRAM
	p.WriteDrainLow = p.WriteBufferEntries
	if _, err := New(&eng, addr.Default(), p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestWriteOverflowCounted(t *testing.T) {
	eng, c := newCtl(t)
	// Saturate with reads so writes cannot drain, then exceed capacity.
	var spin func()
	n := 0
	spin = func() {
		n++
		if n < 50 {
			c.Read(blockInRow(uint64(n%3), 0), spin)
		}
	}
	c.Read(blockInRow(0, 0), spin)
	for i := 0; i < 70; i++ {
		c.Write(blockInRow(uint64(100+i), 0))
	}
	// Writes are posted: the buffer accepts them past its capacity.
	if len(c.writeQ) <= c.Prm.WriteBufferEntries {
		t.Fatalf("%d writes queued, want more than the %d entries", len(c.writeQ), c.Prm.WriteBufferEntries)
	}
	eng.Run()
}
