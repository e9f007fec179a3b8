package cpu

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/trace"
)

// countMem implements llc-visible memory with fixed latency.
type countMem struct {
	eng    *event.Engine
	reads  int
	writes int
}

func (m *countMem) Read(b addr.BlockAddr, done func()) {
	m.reads++
	m.eng.After(100, done)
}
func (m *countMem) Write(b addr.BlockAddr) { m.writes++ }

func buildCore(t *testing.T, gen trace.Generator) (*event.Engine, *Core, *countMem) {
	t.Helper()
	var eng event.Engine
	cfg := config.Scaled(1, config.TADIP)
	mem := &countMem{eng: &eng}
	shared, err := llc.New(&eng, addr.Default(), llc.Config{
		Cores: 1, Sys: cfg, Mem: mem, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	core, err := New(&eng, 0, cfg, gen, shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &eng, core, mem
}

// looping replays a fixed record list forever.
type looping struct {
	recs []trace.Record
	pos  int
}

func (l *looping) Next() trace.Record {
	r := l.recs[l.pos]
	l.pos = (l.pos + 1) % len(l.recs)
	return r
}

// loopTrace builds a looping record list.
func loopTrace(recs []trace.Record) trace.Generator {
	return &looping{recs: recs}
}

func TestCoreRetiresBudget(t *testing.T) {
	// Pure non-memory-ish stream: large gaps, one load per record to the
	// same block (L1 hits after the first).
	gen := loopTrace([]trace.Record{{Gap: 9, Kind: trace.Load, Addr: 0}})
	eng, core, _ := buildCore(t, gen)
	done := false
	core.Start(1000, func() { done = true; eng.Stop() })
	eng.Run()
	if !done {
		t.Fatal("budget never reached")
	}
	if core.Stat.Instructions.Value() < 1000 {
		t.Fatalf("instructions = %d", core.Stat.Instructions.Value())
	}
	if !core.done {
		t.Fatal("budget not marked done")
	}
	if core.IPC() <= 0 || core.IPC() > 1 {
		t.Fatalf("IPC = %v", core.IPC())
	}
}

func TestL1HitFastPath(t *testing.T) {
	gen := loopTrace([]trace.Record{{Gap: 0, Kind: trace.Load, Addr: 64}})
	eng, core, mem := buildCore(t, gen)
	core.Start(200, func() { eng.Stop() })
	eng.Run()
	if mem.reads != 1 {
		t.Fatalf("memory reads = %d, want 1 (first touch only)", mem.reads)
	}
	if core.Stat.L1Hits.Value() == 0 {
		t.Fatal("no L1 hits on repeated block")
	}
}

func TestStoresProduceWritebacks(t *testing.T) {
	// Stream stores over many distinct blocks; dirty lines must cascade
	// L1 -> L2 -> LLC -> memory writes eventually.
	var recs []trace.Record
	for i := 0; i < 4096; i++ {
		recs = append(recs, trace.Record{Gap: 0, Kind: trace.Store, Addr: addr.Addr(i * 64)})
	}
	gen := loopTrace(recs)
	eng, core, _ := buildCore(t, gen)
	core.Start(uint64(len(recs)), func() { eng.Stop() })
	eng.Run()
	if core.Stat.Stores.Value() == 0 {
		t.Fatal("no stores issued")
	}
	// L1 is 16KB = 256 blocks: storing 4096 distinct blocks must evict
	// dirty L1 lines into L2, the only way a block turns dirty there.
	dirtyInL2 := 0
	for _, r := range recs {
		if core.l2.IsDirty(addr.Default().BlockOf(r.Addr)) {
			dirtyInL2++
		}
	}
	if dirtyInL2 == 0 {
		t.Fatal("no dirty L1 line reached L2")
	}
}

func TestWindowLimitsOutstandingLoads(t *testing.T) {
	// Back-to-back loads to distinct cold blocks: every load misses to
	// memory (100+ cycles). The 128-entry window must stall issue rather
	// than race ahead.
	var recs []trace.Record
	for i := 0; i < 10000; i++ {
		recs = append(recs, trace.Record{Gap: 0, Kind: trace.Load, Addr: addr.Addr(1<<30*uint64(i%2)*64 + uint64(i)*64)})
	}
	gen := loopTrace(recs)
	eng, core, _ := buildCore(t, gen)
	core.Start(2000, func() { eng.Stop() })
	eng.Run()
	if core.Stat.WindowStalls.Value() == 0 {
		t.Fatal("no window stalls under a miss storm")
	}
	if core.IPC() >= 1 {
		t.Fatalf("IPC = %v under a miss storm", core.IPC())
	}
}

func TestMSHRMergesDuplicateLoads(t *testing.T) {
	// Two loads to the same cold block in flight together: one memory
	// read.
	recs := []trace.Record{
		{Gap: 0, Kind: trace.Load, Addr: 4096},
		{Gap: 0, Kind: trace.Load, Addr: 4096},
		{Gap: 50, Kind: trace.Load, Addr: 8192},
	}
	gen := loopTrace(recs)
	eng, core, mem := buildCore(t, gen)
	core.Start(3, func() { eng.Stop() })
	eng.Run()
	if mem.reads > 2 {
		t.Fatalf("memory reads = %d, want <= 2 (merged)", mem.reads)
	}
	_ = core
}

// scripted replays recs once, then tail forever.
type scripted struct {
	recs []trace.Record
	tail trace.Record
}

func (s *scripted) Next() trace.Record {
	if len(s.recs) == 0 {
		return s.tail
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r
}

// TestMergedStoreFillsDirty: a store that misses behind an outstanding
// load to the same block merges into that load's fetch (one LLC read),
// and the fetch's one fill must install the block dirty in L1, or the
// store is lost.
func TestMergedStoreFillsDirty(t *testing.T) {
	const x = 4096
	gen := &scripted{
		recs: []trace.Record{
			{Gap: 0, Kind: trace.Load, Addr: x},
			{Gap: 0, Kind: trace.Store, Addr: x},
		},
		// Loads of one block in another L1 set keep the core busy.
		tail: trace.Record{Gap: 10, Kind: trace.Load, Addr: 1<<20 + 64},
	}
	eng, core, _ := buildCore(t, gen)
	core.Start(4, func() { eng.After(2000, eng.Stop) })
	eng.Run()
	if n := core.Stat.LLCAccesses.Value(); n != 2 {
		t.Fatalf("LLC reads = %d, want 2 (the store merged into the load's fetch)", n)
	}
	b := addr.Default().BlockOf(x)
	if !core.l1.Contains(b) || !core.l1.IsDirty(b) {
		t.Errorf("after the merged fetch filled, block %d is in L1 %v, dirty %v; want a dirty L1 block",
			b, core.l1.Contains(b), core.l1.IsDirty(b))
	}
}

func TestRebudgetMeasuresWindow(t *testing.T) {
	gen := loopTrace([]trace.Record{{Gap: 4, Kind: trace.Load, Addr: 64}})
	eng, core, _ := buildCore(t, gen)
	phase := 0
	core.Start(500, func() {
		phase = 1
		core.Rebudget(500, func() {
			phase = 2
			eng.Stop()
		})
	})
	eng.Run()
	if phase != 2 {
		t.Fatalf("phase = %d", phase)
	}
	if core.Cycles() == 0 {
		t.Fatal("no cycles measured in second window")
	}
	// The second window measures only its own instructions.
	if core.IPC() <= 0 || core.IPC() > 1 {
		t.Fatalf("IPC = %v", core.IPC())
	}
}
