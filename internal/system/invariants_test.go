package system

import (
	"math"
	"sort"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/cpu"
	"dbisim/internal/event"
	"dbisim/internal/telemetry"
	"dbisim/internal/trace"
)

// TestDBIDirtyImpliesResident checks the system-wide invariant behind
// the DBI's correctness argument: any block the DBI marks dirty must be
// resident in the LLC (the DBI is the only record of its dirtiness, and
// the data lives in the cache until written back).
func TestDBIDirtyImpliesResident(t *testing.T) {
	for _, mech := range []config.Mechanism{config.DBI, config.DBIAWB, config.DBIAWBCLB} {
		sys, err := New(smallCfg(1, mech), []string{"GemsFDTD"}, 9)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		for _, ev := range sys.LLC.DBI.Flush() {
			for _, b := range ev.Blocks {
				if !sys.LLC.Cache.Contains(b) {
					t.Fatalf("%v: block %d dirty in DBI but not resident", mech, b)
				}
			}
		}
	}
}

// TestConventionalDirtyStaysInTags checks the complementary invariant
// for conventional mechanisms: the DBI is absent and dirty state lives
// in the tag entries.
func TestConventionalDirtyStaysInTags(t *testing.T) {
	sys, err := New(smallCfg(1, config.DAWB), []string{"GemsFDTD"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.LLC.DBI != nil {
		t.Fatal("conventional mechanism built a DBI")
	}
	if len(tagDirtyBlocks(sys.LLC.Cache)) == 0 {
		t.Fatal("no dirty blocks in the tag store after a write-heavy run")
	}
}

// TestSkipCacheHoldsNoDirtyData: the write-through Skip Cache never has
// dirty blocks anywhere.
func TestSkipCacheHoldsNoDirtyData(t *testing.T) {
	sys, err := New(smallCfg(1, config.SkipCache), []string{"GemsFDTD"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if n := len(tagDirtyBlocks(sys.LLC.Cache)); n != 0 {
		t.Fatalf("write-through LLC holds %d dirty blocks", n)
	}
	if sys.LLC.Stat.WriteThroughs.Value() == 0 {
		t.Fatal("no write-through traffic recorded")
	}
}

// TestMultiCoreDeterminism: identical seeds give identical multi-core
// results despite the interleaved event streams.
func TestMultiCoreDeterminism(t *testing.T) {
	run := func() Results {
		sys, err := New(smallCfg(2, config.DBIAWBCLB), []string{"lbm", "mcf"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	for i := range a.PerCore {
		if a.PerCore[i].IPC != b.PerCore[i].IPC {
			t.Fatalf("core %d IPC differs: %v vs %v", i, a.PerCore[i].IPC, b.PerCore[i].IPC)
		}
	}
	if a.WriteRowHitRate != b.WriteRowHitRate || a.TagLookupsPKI != b.TagLookupsPKI {
		t.Fatal("global stats differ across identical runs")
	}
}

// TestWritebacksNeverLost: every writeback request is eventually either
// resident-dirty (in tags or DBI) or written to memory — dirty data is
// never silently dropped.
func TestWritebacksNeverLost(t *testing.T) {
	for _, mech := range []config.Mechanism{config.TADIP, config.DBI, config.DBIAWB} {
		sys, err := New(smallCfg(1, mech), []string{"milc"}, 13)
		if err != nil {
			t.Fatal(err)
		}
		gen := haltOnDemand(t, sys, "milc", 13)
		sys.Run()
		// Halt the core and land the writebacks still in flight before
		// flushing: FlushTimed writes back what is dirty when its walk
		// reaches it, so a writeback landing in a set the walk has
		// passed would stay dirty. The halted core's next issue is
		// 2^32 cycles away, far past this drain window.
		gen.halted = true
		sys.Eng.After(1<<20, sys.Eng.Stop)
		sys.Eng.Run()
		// Flush whatever is still dirty, then compare totals: writes to
		// memory (run + flush) must be at least the number of distinct
		// writeback requests minus merges — conservatively, > 0 and the
		// flush must empty all dirty state.
		sys.LLC.FlushTimed(func(int, event.Cycle) { sys.Eng.Stop() })
		sys.Eng.Run()
		if sys.LLC.DBI != nil && sys.LLC.DBI.DirtyCount() != 0 {
			t.Fatalf("%v: dirty blocks remain after flush", mech)
		}
		if sys.LLC.DBI == nil && len(tagDirtyBlocks(sys.LLC.Cache)) != 0 {
			t.Fatalf("%v: dirty tag entries remain after flush", mech)
		}
		if sys.Mem.Stat.Writes.Value() == 0 {
			t.Fatalf("%v: no writes reached memory", mech)
		}
	}
}

// TestNoBlockFetchedTwiceAtOnce pins the invariant that lets the LLC go
// without an MSHR of its own: two shared-level reads of one block are
// never in flight together. Each core merges its concurrent misses to a
// block (cpu.Core's outstanding map) and the cores' trace footprints are
// disjoint, so a block's cpu/llc_read spans never overlap in time — not
// even across cores running the same benchmark. astar's small footprint
// makes same-benchmark cores reuse blocks densely: with every core's
// trace at one base, its mixes overlap within these budgets.
func TestNoBlockFetchedTwiceAtOnce(t *testing.T) {
	mixes := [][]string{
		{"astar", "astar"},
		{"stream", "stream", "stream", "stream"},
		{"astar", "astar", "astar", "astar", "astar", "astar", "astar", "astar"},
	}
	type span struct{ start, end uint64 }
	for _, mech := range []config.Mechanism{config.DAWB, config.DBIAWBCLB, config.SkipCache} {
		for _, benches := range mixes {
			cfg := smallCfg(len(benches), mech)
			cfg.WarmupInstructions = 20_000
			cfg.MeasureInstructions = 40_000
			tr := telemetry.NewTracer(1 << 17)
			sys, err := New(cfg, benches, 11, WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			if d := tr.Dropped(); d != 0 {
				t.Fatalf("%v %v: tracer dropped %d of %d events", mech, benches, d, tr.Emitted())
			}
			byBlock := map[uint64][]span{}
			for _, e := range tr.Events() {
				if e.Cat == "cpu" && e.Name == "llc_read" {
					byBlock[e.Arg] = append(byBlock[e.Arg], span{e.TS, e.TS + e.Dur})
				}
			}
			if len(byBlock) == 0 {
				t.Fatalf("%v %v: no llc_read spans", mech, benches)
			}
			for b, ss := range byBlock {
				sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
				for i := 1; i < len(ss); i++ {
					if ss[i].start < ss[i-1].end {
						t.Fatalf("%v %v: block %#x read over [%d,%d) and again from %d",
							mech, benches, b, ss[i-1].start, ss[i-1].end, ss[i].start)
					}
				}
			}
		}
	}
}

// haltable passes its generator's records through until halted, then
// repeats the last address as a load 2^32-1 instructions away, so its
// core touches no new block and issues nothing for billions of cycles.
type haltable struct {
	trace.Generator
	last   trace.Record
	halted bool
}

func (h *haltable) Next() trace.Record {
	if h.halted {
		return trace.Record{Gap: math.MaxUint32, Kind: trace.Load, Addr: h.last.Addr}
	}
	h.last = h.Generator.Next()
	return h.last
}

// haltOnDemand rebuilds a single-core machine's core, before Run, on a
// haltable copy of the generator New gave it.
func haltOnDemand(t *testing.T, sys *System, bench string, seed int64) *haltable {
	t.Helper()
	p, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	h := &haltable{Generator: trace.New(p, addr.Addr(1<<36), seed)}
	core, err := cpu.New(&sys.Eng, 0, sys.Cfg, h, sys.LLC, seed)
	if err != nil {
		t.Fatal(err)
	}
	sys.Cores[0] = core
	return h
}
