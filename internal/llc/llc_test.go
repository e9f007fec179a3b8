package llc

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/telemetry"
)

// fakeMem records traffic and answers reads after a fixed latency.
type fakeMem struct {
	eng    *event.Engine
	lat    event.Cycle
	reads  []addr.BlockAddr
	writes []addr.BlockAddr
}

func (m *fakeMem) Read(b addr.BlockAddr, done func()) {
	m.reads = append(m.reads, b)
	m.eng.After(m.lat, done)
}

func (m *fakeMem) Write(b addr.BlockAddr) { m.writes = append(m.writes, b) }

func build(t *testing.T, mech config.Mechanism) (*event.Engine, *LLC, *fakeMem) {
	t.Helper()
	var eng event.Engine
	mem := &fakeMem{eng: &eng, lat: 100}
	sys := config.Paper(1, mech)
	// Shrink the LLC so tests exercise evictions quickly:
	// 64KB, 4-way, 256 sets.
	sys.L3.SizeBytes = 64 << 10
	sys.L3.Ways = 4
	l, err := New(&eng, addr.Default(), Config{Cores: 1, Sys: sys, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &eng, l, mem
}

func TestReadMissFetchesAndFills(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	served := false
	l.Read(5, 0, func() { served = true })
	eng.Run()
	if !served {
		t.Fatal("read not served")
	}
	if len(mem.reads) != 1 || mem.reads[0] != 5 {
		t.Fatalf("memory reads = %v", mem.reads)
	}
	if !l.Cache.Contains(5) {
		t.Fatal("block not filled")
	}
	if l.Stat.ReadMisses.Value() != 1 {
		t.Fatal("miss not counted")
	}
}

func TestReadHitStaysOnChip(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	l.Read(5, 0, nil)
	eng.Run()
	var hitAt event.Cycle
	l.Read(5, 0, func() { hitAt = eng.Now() })
	start := eng.Now()
	eng.Run()
	if len(mem.reads) != 1 {
		t.Fatalf("hit went to memory: %v", mem.reads)
	}
	// Serial tag (10) + data (24) = 34 cycles for the paper's 1-core LLC.
	if hitAt-start != 34 {
		t.Fatalf("hit latency = %d, want 34", hitAt-start)
	}
	if l.Stat.ReadHits.Value() != 1 {
		t.Fatal("hit not counted")
	}
}

// TestConcurrentReadsFetchSeparately pins that the LLC does not merge
// misses: the cores merge their own, so two reads of one block in
// flight at once each go to memory, and both are served.
func TestConcurrentReadsFetchSeparately(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	served := 0
	l.Read(9, 0, func() { served++ })
	l.Read(9, 0, func() { served++ })
	eng.Run()
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
	if len(mem.reads) != 2 {
		t.Fatalf("memory reads = %v, want 2 (no merging in the LLC)", mem.reads)
	}
	if n := countValid(l.Cache); n != 1 {
		t.Fatalf("%d blocks resident, want 1", n)
	}
}

func TestReadHitDoesNotTouchPredictorOutsideSamples(t *testing.T) {
	var eng event.Engine
	mem := &fakeMem{eng: &eng, lat: 50}
	sys := config.Scaled(1, config.DBICLB)
	sys.L3.SizeBytes = 64 << 10
	sys.L3.Ways = 4
	l, err := New(&eng, addr.Default(), Config{Cores: 1, Sys: sys, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With no miss evidence, nothing bypasses regardless of set.
	served := 0
	for i := 0; i < 10; i++ {
		l.Read(addr.BlockAddr(i), 0, func() { served++ })
	}
	eng.Run()
	if served != 10 {
		t.Fatalf("served %d of 10", served)
	}
	if l.Stat.Bypasses.Value() != 0 {
		t.Fatal("bypassed without evidence")
	}
}

func TestConventionalWritebackMarksDirty(t *testing.T) {
	eng, l, _ := build(t, config.TADIP)
	l.Writeback(7, 0)
	eng.Run()
	if !l.Cache.IsDirty(7) {
		t.Fatal("writeback did not mark the tag entry dirty")
	}
}

func TestDirtyVictimWritesBack(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	// Fill set 0 (blocks map to set b%256) with dirty blocks, then evict.
	for i := 0; i < 4; i++ {
		l.Writeback(addr.BlockAddr(i*256), 0)
	}
	eng.Run()
	l.Read(addr.BlockAddr(4*256), 0, nil)
	eng.Run()
	if len(mem.writes) != 1 {
		t.Fatalf("memory writes = %v, want 1 victim writeback", mem.writes)
	}
	if l.Stat.VictimWBs.Value() != 1 {
		t.Fatal("victim writeback not counted")
	}
}

func TestDBIWritebackTracksDirtyInDBI(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	l.Writeback(7, 0)
	eng.Run()
	if l.Cache.IsDirty(7) {
		t.Fatal("DBI mechanism must not set the tag dirty bit")
	}
	if !l.DBI.IsDirty(7) {
		t.Fatal("block not dirty in DBI")
	}
	if !l.Cache.Contains(7) {
		t.Fatal("block not inserted")
	}
}

func TestDBIEvictionWritesBackTrackedBlocks(t *testing.T) {
	eng, l, mem := build(t, config.DBI)
	// The test LLC has 1024 blocks; α=1/4 -> 256 tracked; granularity 64
	// -> 4 entries; associativity 16 -> floor at 16 entries... so fill
	// enough distinct regions to force a DBI eviction.
	// Stride 65 blocks: every write lands in a distinct DBI region while
	// spreading across cache sets (so cache evictions don't clean the
	// DBI first).
	entries := l.DBI.Entries()
	for k := 0; k <= entries*dbiWays; k++ {
		l.Writeback(addr.BlockAddr(k*65), 0)
		eng.Run()
	}
	if l.DBI.Stat.Evictions.Value() == 0 {
		t.Fatal("no DBI eviction occurred")
	}
	if l.Stat.DBIEvictionWBs.Value() == 0 {
		t.Fatal("DBI eviction produced no writebacks")
	}
	if len(mem.writes) == 0 {
		t.Fatal("no memory writes")
	}
}

func TestDBIEvictionKeepsBlocksResident(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	first := addr.BlockAddr(0)
	l.Writeback(first, 0)
	eng.Run()
	// Force DBI evictions with many distinct regions that spread over
	// cache sets (stride 65) so cache pressure stays low.
	for k := 1; k <= l.DBI.Entries()*dbiWays; k++ {
		l.Writeback(addr.BlockAddr(k*65), 0)
		eng.Run()
	}
	if l.DBI.IsDirty(first) {
		t.Fatal("LRW entry survived full-DBI pressure")
	}
	if !l.Cache.Contains(first) {
		t.Fatal("DBI eviction removed the block from the cache")
	}
}

func TestAWBHarvestsRowMates(t *testing.T) {
	eng, l, mem := build(t, config.DBIAWB)
	// Two dirty blocks in the same DBI region but different cache sets.
	// Region = block/64; blocks 0 and 1 share region 0, sets 0 and 1.
	l.Writeback(0, 0)
	l.Writeback(1, 0)
	eng.Run()
	// Evict block 0 by filling set 0 with reads (4-way set 0: blocks
	// k*256).
	for k := 1; k <= 4; k++ {
		l.Read(addr.BlockAddr(k*256), 0, nil)
		eng.Run()
	}
	if l.DBI.IsDirty(0) {
		t.Fatal("victim still dirty")
	}
	// AWB must have written back block 1 proactively as well.
	found := false
	for _, w := range mem.writes {
		if w == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("row-mate not proactively written back: %v", mem.writes)
	}
	if l.DBI.IsDirty(1) {
		t.Fatal("row-mate still dirty after AWB")
	}
	if !l.Cache.Contains(1) {
		t.Fatal("AWB evicted the row-mate from the cache")
	}
	if l.Stat.ProactiveWBs.Value() == 0 {
		t.Fatal("proactive writeback not counted")
	}
}

func TestDAWBLooksUpWholeRow(t *testing.T) {
	eng, l, mem := build(t, config.DAWB)
	l.Writeback(0, 0)
	l.Writeback(1, 0)
	eng.Run()
	before := l.TagLookups()
	for k := 1; k <= 4; k++ {
		l.Read(addr.BlockAddr(k*256), 0, nil)
		eng.Run()
	}
	// DAWB scans all 127 row-mates of the evicted dirty block.
	fillers := l.Stat.FillerLookups.Value()
	if fillers != 127 {
		t.Fatalf("filler lookups = %d, want 127", fillers)
	}
	if l.TagLookups() <= before {
		t.Fatal("tag lookups did not grow")
	}
	// Block 1 was dirty and must be among the writes.
	found := false
	for _, w := range mem.writes {
		if w == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("DAWB missed dirty row-mate: %v", mem.writes)
	}
	if l.Cache.IsDirty(1) {
		t.Fatal("row-mate still dirty")
	}
}

func TestVWQFiltersLookups(t *testing.T) {
	eng, l, _ := build(t, config.VWQ)
	l.Writeback(0, 0)
	l.Writeback(1, 0)
	eng.Run()
	for k := 1; k <= 4; k++ {
		l.Read(addr.BlockAddr(k*256), 0, nil)
		eng.Run()
	}
	// The SSV filters sets without dirty-in-LRU blocks, so VWQ performs
	// fewer filler lookups than DAWB's 127.
	if got := l.Stat.FillerLookups.Value(); got >= 127 {
		t.Fatalf("VWQ filler lookups = %d, want < 127", got)
	}
}

func TestSkipCacheWritesThrough(t *testing.T) {
	eng, l, mem := build(t, config.SkipCache)
	l.Writeback(3, 0)
	eng.Run()
	if len(mem.writes) != 1 {
		t.Fatalf("write-through traffic = %v", mem.writes)
	}
	if l.Cache.IsDirty(3) {
		t.Fatal("write-through cache holds dirty data")
	}
	if l.Stat.WriteThroughs.Value() != 1 {
		t.Fatal("write-through not counted")
	}
}

func TestFlushConventional(t *testing.T) {
	eng, l, mem := build(t, config.TADIP)
	for i := 0; i < 5; i++ {
		l.Writeback(addr.BlockAddr(i), 0)
	}
	eng.Run()
	var n int
	l.FlushTimed(func(b int, _ event.Cycle) { n = b })
	eng.Run()
	if n != 5 || len(mem.writes) != 5 {
		t.Fatalf("flushed %d, writes %v", n, mem.writes)
	}
	if len(dirtyBlocks(l.Cache)) != 0 {
		t.Fatal("dirty blocks remain")
	}
}

func TestFlushDBI(t *testing.T) {
	eng, l, mem := build(t, config.DBIAWB)
	for i := 0; i < 5; i++ {
		l.Writeback(addr.BlockAddr(i), 0)
	}
	eng.Run()
	var n int
	l.FlushTimed(func(b int, _ event.Cycle) { n = b })
	eng.Run()
	if n != 5 || len(mem.writes) != 5 {
		t.Fatalf("flushed %d, writes %v", n, mem.writes)
	}
	if l.DBI.DirtyCount() != 0 {
		t.Fatal("DBI still tracks dirty blocks")
	}
}

func TestDemandBeatsFillerOnPort(t *testing.T) {
	eng, l, _ := build(t, config.DAWB)
	// Make a dirty eviction queue 127 filler lookups, then issue a
	// demand read; the demand read must not wait for all 127.
	l.Writeback(0, 0)
	eng.Run()
	for k := 1; k <= 4; k++ {
		l.Read(addr.BlockAddr(k*256), 0, nil)
		eng.Run()
	}
	// Fresh dirty eviction to enqueue fillers:
	l.Writeback(addr.BlockAddr(5*256), 0)
	eng.After(14, eng.Stop) // let the writeback lookup complete
	eng.Run()
	l.Read(addr.BlockAddr(6*256), 0, nil)
	done := eng.Now()
	eng.Run()
	_ = done
	// The demand read's lookup happened before most fillers: demand ops
	// count must have advanced while fillers remain bounded.
	if l.Port.DemandOps.Value() == 0 {
		t.Fatal("no demand ops recorded")
	}
}

func TestCLBBypassesCleanPredictedMisses(t *testing.T) {
	var eng event.Engine
	mem := &fakeMem{eng: &eng, lat: 100}
	sys := config.Paper(1, config.DBIAWBCLB)
	sys.L3.SizeBytes = 64 << 10
	sys.L3.Ways = 4
	sys.MissPred.EpochCycles = 10_000
	l, err := New(&eng, addr.Default(), Config{Cores: 1, Sys: sys, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive misses into sampled sets during epoch 0 (block addresses that
	// map to sampled sets: predictor samples set 0 mod per; set = b%256).
	for i := 0; i < 200; i++ {
		b := addr.BlockAddr(i * 256 * 8) // set 0 always
		l.Read(b, 0, nil)
		eng.Run()
	}
	// Cross the epoch boundary.
	eng.At(eng.Now()+event.Cycle(sys.MissPred.EpochCycles), func() {})
	eng.Run()
	lookupsBefore := l.TagLookups()
	// A predicted-miss access to a non-sampled set bypasses the lookup.
	served := false
	l.Read(addr.BlockAddr(12345*256+3), 0, func() { served = true })
	eng.Run()
	if !served {
		t.Fatal("bypassed read not served")
	}
	if l.Stat.Bypasses.Value() == 0 {
		t.Fatal("no bypass recorded")
	}
	if l.TagLookups() != lookupsBefore {
		t.Fatalf("bypass performed a tag lookup")
	}
}

func TestCLBDoesNotBypassDirty(t *testing.T) {
	var eng event.Engine
	mem := &fakeMem{eng: &eng, lat: 100}
	sys := config.Paper(1, config.DBIAWBCLB)
	sys.L3.SizeBytes = 64 << 10
	sys.L3.Ways = 4
	sys.MissPred.EpochCycles = 10_000
	l, err := New(&eng, addr.Default(), Config{Cores: 1, Sys: sys, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := addr.BlockAddr(777 * 256) // non-sampled set? set = 777*256 % 256 = 0...
	dirty = addr.BlockAddr(3)          // set 3: not sampled (sampled sets are multiples of 8)
	l.Writeback(dirty, 0)
	eng.Run()
	for i := 0; i < 200; i++ {
		l.Read(addr.BlockAddr(i*256*8), 0, nil)
		eng.Run()
	}
	eng.At(eng.Now()+event.Cycle(sys.MissPred.EpochCycles), func() {})
	eng.Run()
	served := false
	l.Read(dirty, 0, func() { served = true })
	eng.Run()
	if !served {
		t.Fatal("read not served")
	}
	if l.Stat.BypassDirty.Value() != 1 {
		t.Fatalf("dirty bypass guard = %d, want 1", l.Stat.BypassDirty.Value())
	}
	if len(mem.reads) == 0 {
		t.Fatal("no memory traffic at all")
	}
	// The dirty block must have been served from the cache, not memory.
	for _, r := range mem.reads {
		if r == dirty {
			t.Fatal("dirty block fetched from memory — stale data")
		}
	}
}

// TestDBILatencyZeroIsHonored: a DBI+CLB LLC configured with a 0-cycle
// DBI lookup answers a bypassed read's dirty check at once, instead of
// substituting a default latency.
func TestDBILatencyZeroIsHonored(t *testing.T) {
	var eng event.Engine
	mem := &fakeMem{eng: &eng, lat: 100}
	sys := config.Paper(1, config.DBICLB)
	sys.L3.SizeBytes = 64 << 10
	sys.L3.Ways = 4
	sys.DBI.Latency = 0
	sys.MissPred.EpochCycles = 1000
	l, err := New(&eng, addr.Default(), Config{Cores: 1, Sys: sys, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &telemetry.Attribution{}
	l.Attr = a
	// An epoch of sampled-set misses puts thread 0 in bypass mode.
	for i := 0; i < 100; i++ {
		l.Pred.Observe(0, 0, false, event.Cycle(i))
	}
	const start = 1001
	var served event.Cycle
	eng.At(start, func() { l.Read(1, 0, func() { served = eng.Now() }) }) // set 1 is not sampled
	eng.Run()
	if l.Stat.Bypasses.Value() != 1 {
		t.Fatalf("bypasses = %d, want 1", l.Stat.Bypasses.Value())
	}
	if got := a.Values().Cats[telemetry.ADBIProbe]; got != 0 {
		t.Errorf("dirty check charged %d DBI cycles, want 0", got)
	}
	if served != start+mem.lat {
		t.Errorf("read served at %d, want %d (no DBI delay before the memory read)", served, start+mem.lat)
	}
}
