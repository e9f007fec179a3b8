package llc

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
)

// dirtyUp puts n dirty blocks into the LLC via writeback requests.
func dirtyUp(t *testing.T, eng *event.Engine, l *LLC, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		l.Writeback(addr.BlockAddr(i*65), 0) // spread sets and regions
	}
	eng.Run()
}

func TestFlushTimedConventional(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	dirtyUp(t, eng, l, 20)
	var blocks int
	var cycles event.Cycle
	l.FlushTimed(func(b int, c event.Cycle) { blocks, cycles = b, c })
	eng.Run()
	if blocks != 20 {
		t.Fatalf("flushed %d blocks, want 20", blocks)
	}
	if len(mem.writes) < 20 {
		t.Fatalf("memory writes = %d", len(mem.writes))
	}
	// The walk must cost at least one tag access per set.
	minCycles := event.Cycle(l.Cache.Sets()) * l.tagLatency()
	if cycles < minCycles {
		t.Fatalf("conventional flush took %d cycles, want >= %d (full set walk)",
			cycles, minCycles)
	}
	if len(dirtyBlocks(l.Cache)) != 0 {
		t.Fatal("dirty blocks remain")
	}
}

func TestFlushTimedDBI(t *testing.T) {
	eng, l, mem := build(t, config.DBIAWB)
	dirtyUp(t, eng, l, 20)
	dirtyBefore := l.DBI.DirtyCount()
	var blocks int
	var cycles event.Cycle
	l.FlushTimed(func(b int, c event.Cycle) { blocks, cycles = b, c })
	eng.Run()
	if blocks != dirtyBefore {
		t.Fatalf("flushed %d blocks, want %d", blocks, dirtyBefore)
	}
	if l.DBI.DirtyCount() != 0 {
		t.Fatal("DBI still tracks dirty blocks")
	}
	if len(mem.writes) < blocks {
		t.Fatalf("memory writes = %d", len(mem.writes))
	}
	_ = cycles
}

func TestFlushTimedDBIBeatsTagWalk(t *testing.T) {
	// Same dirty content, both organizations: the DBI flush must finish
	// in far fewer cycles because it skips the full set walk.
	engC, conv, _ := build(t, config.TADIP)
	dirtyUp(t, engC, conv, 10)
	var convCycles event.Cycle
	conv.FlushTimed(func(_ int, c event.Cycle) { convCycles = c })
	engC.Run()

	engD, dbil, _ := build(t, config.DBI)
	dirtyUp(t, engD, dbil, 10)
	var dbiCycles event.Cycle
	dbil.FlushTimed(func(_ int, c event.Cycle) { dbiCycles = c })
	engD.Run()

	if dbiCycles >= convCycles {
		t.Fatalf("DBI flush (%d cycles) not faster than tag walk (%d cycles)",
			dbiCycles, convCycles)
	}
	if dbiCycles == 0 {
		t.Fatal("DBI flush took zero cycles")
	}
}

func TestFlushTimedEmptyCache(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	called := false
	l.FlushTimed(func(b int, _ event.Cycle) {
		called = true
		if b != 0 {
			t.Fatalf("flushed %d blocks from an empty cache", b)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("callback never fired")
	}
}
