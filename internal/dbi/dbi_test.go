package dbi

import (
	"testing"
	"testing/quick"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

func params(repl config.DBIReplacement) config.DBIParams {
	return config.DBIParams{
		AlphaNum: 1, AlphaDen: 4, Granularity: 64,
		Associativity: 4, Latency: 4,
		Replacement: repl, BIPEpsilonDen: 64,
	}
}

// newDBI builds a small DBI: 32768-block cache, α=1/4 -> 8192 tracked,
// granularity 64 -> 128 entries, 4-way -> 32 sets.
func newDBI(t *testing.T, repl config.DBIReplacement) *DBI {
	t.Helper()
	d, err := New(WithParams(params(repl)), WithCacheBlocks(32768), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameSetBlocks returns the base block addresses of n distinct regions
// that all hash into the same DBI set, so tests can fill one set
// deterministically regardless of the set-index hash.
func sameSetBlocks(d *DBI, n int) []addr.BlockAddr {
	want := d.setOf(RegionID(0))
	out := []addr.BlockAddr{0}
	for r := uint64(1); len(out) < n; r++ {
		if d.setOf(RegionID(r)) == want {
			out = append(out, addr.BlockAddr(r*uint64(d.granularity)))
		}
	}
	return out
}

func TestGeometry(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	if d.Entries() != 128 || d.sets != 32 || d.ways != 4 {
		t.Fatalf("geometry: %d entries, %d sets, %d ways", d.Entries(), d.sets, d.ways)
	}
	if d.TrackedBlocks() != 8192 {
		t.Fatalf("tracked = %d, want 8192 (α=1/4 of 32768)", d.TrackedBlocks())
	}
	if d.Granularity() != 64 {
		t.Fatalf("granularity = %d", d.Granularity())
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	p := params(config.DBILRW)
	p.Granularity = 256 // exceeds 128 blocks per row
	if _, err := New(WithParams(p), WithCacheBlocks(32768), WithSeed(1)); err == nil {
		t.Fatal("granularity above blocks-per-row accepted")
	}
	p = params(config.DBILRW)
	p.AlphaDen = 0
	if _, err := New(WithParams(p), WithCacheBlocks(32768), WithSeed(1)); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestDirtySemantics(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	b := addr.BlockAddr(12345)
	if d.IsDirty(b) {
		t.Fatal("fresh DBI reports dirty")
	}
	if _, ev := d.SetDirty(b); ev {
		t.Fatal("eviction on first insert")
	}
	if !d.IsDirty(b) {
		t.Fatal("block not dirty after SetDirty")
	}
	// A row-mate in the same region must not be dirty.
	if d.IsDirty(b + 1) {
		t.Fatal("neighbour dirty")
	}
	if !d.ClearDirty(b) {
		t.Fatal("ClearDirty missed the block")
	}
	if d.IsDirty(b) {
		t.Fatal("still dirty after clear")
	}
	if d.ClearDirty(b) {
		t.Fatal("double clear reported success")
	}
}

func TestLastClearInvalidatesEntry(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	d.SetDirty(100)
	d.SetDirty(101)
	if d.ValidEntries() != 1 {
		t.Fatalf("valid entries = %d", d.ValidEntries())
	}
	d.ClearDirty(100)
	if d.ValidEntries() != 1 {
		t.Fatal("entry invalidated while blocks remain dirty")
	}
	d.ClearDirty(101)
	if d.ValidEntries() != 0 {
		t.Fatal("entry not invalidated after last block cleared")
	}
}

func TestDirtyBlocksInRegion(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	// Region of block 0: blocks 0..63.
	d.SetDirty(3)
	d.SetDirty(17)
	d.SetDirty(63)
	d.SetDirty(64) // different region
	got := d.DirtyBlocksInRegion(3)
	want := []addr.BlockAddr{3, 17, 63}
	if len(got) != len(want) {
		t.Fatalf("DirtyBlocksInRegion = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DirtyBlocksInRegion = %v, want %v", got, want)
		}
	}
	if d.DirtyBlocksInRegion(9999999) != nil {
		t.Fatal("untracked region returned blocks")
	}
}

func TestEvictionListsAllDirtyBlocks(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	// Fill one set: regions mapping to set 0 are region = k*32 (32 sets).
	rb := sameSetBlocks(d, 8)
	regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
	for k := 0; k < 4; k++ {
		d.SetDirty(regionBlocks(k))
		d.SetDirty(regionBlocks(k) + 5)
	}
	if d.ValidEntries() != 4 {
		t.Fatalf("valid entries = %d", d.ValidEntries())
	}
	// Fifth region in the same set evicts the least recently written
	// (region 0).
	ev, evicted := d.SetDirty(regionBlocks(4))
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if len(ev.Blocks) != 2 || ev.Blocks[0] != regionBlocks(0) || ev.Blocks[1] != regionBlocks(0)+5 {
		t.Fatalf("eviction blocks = %v", ev.Blocks)
	}
	// Evicted blocks are no longer dirty.
	if d.IsDirty(regionBlocks(0)) || d.IsDirty(regionBlocks(0)+5) {
		t.Fatal("evicted blocks still dirty")
	}
	if d.Stat.Evictions.Value() != 1 || d.Stat.EvictionBlocks.Value() != 2 {
		t.Fatalf("eviction stats: %d/%d", d.Stat.Evictions.Value(), d.Stat.EvictionBlocks.Value())
	}
}

func TestLRWEvictsLeastRecentlyWritten(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	rb := sameSetBlocks(d, 150)
	regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
	for k := 0; k < 4; k++ {
		d.SetDirty(regionBlocks(k))
	}
	// Rewrite region 0: region 1 becomes LRW.
	d.SetDirty(regionBlocks(0) + 1)
	ev, evicted := d.SetDirty(regionBlocks(4))
	if !evicted || ev.Blocks[0] != regionBlocks(1) {
		t.Fatalf("LRW evicted %v, want region 1", ev.Blocks)
	}
}

func TestMaxMinDirtyPolicies(t *testing.T) {
	for _, tc := range []struct {
		repl config.DBIReplacement
		want int // region index expected to be evicted
	}{
		{config.DBIMaxDirty, 2},
		{config.DBIMinDirty, 1},
	} {
		d := newDBI(t, tc.repl)
		rb := sameSetBlocks(d, 150)
		regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
		// Region 0: 2 dirty; region 1: 1 dirty; region 2: 3 dirty;
		// region 3: 2 dirty.
		d.SetDirty(regionBlocks(0))
		d.SetDirty(regionBlocks(0) + 1)
		d.SetDirty(regionBlocks(1))
		d.SetDirty(regionBlocks(2))
		d.SetDirty(regionBlocks(2) + 1)
		d.SetDirty(regionBlocks(2) + 2)
		d.SetDirty(regionBlocks(3))
		d.SetDirty(regionBlocks(3) + 1)
		ev, evicted := d.SetDirty(regionBlocks(4))
		if !evicted {
			t.Fatalf("%v: no eviction", tc.repl)
		}
		if ev.Blocks[0] != regionBlocks(tc.want) {
			t.Fatalf("%v evicted %v, want region %d", tc.repl, ev.Blocks, tc.want)
		}
	}
}

func TestRWIPPolicyTerminatesAndEvicts(t *testing.T) {
	d := newDBI(t, config.DBIRWIP)
	rb := sameSetBlocks(d, 150)
	regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
	for k := 0; k < 4; k++ {
		d.SetDirty(regionBlocks(k))
	}
	// Keep region 3 recently written (rwpv=0); others age.
	d.SetDirty(regionBlocks(3) + 1)
	ev, evicted := d.SetDirty(regionBlocks(4))
	if !evicted {
		t.Fatal("no eviction")
	}
	if ev.Blocks[0] == regionBlocks(3) {
		t.Fatal("RWIP evicted the most recently rewritten region")
	}
}

func TestLRWBIPInsertsAtLRWPosition(t *testing.T) {
	// With an (effectively) infinite epsilon denominator, BIP always
	// inserts at the LRW position: a stream of new regions evicts only
	// itself, never the established (rewritten) entries.
	p := params(config.DBILRWBIP)
	p.BIPEpsilonDen = 1 << 30
	d, err := New(WithParams(p), WithCacheBlocks(32768), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rb := sameSetBlocks(d, 150)
	regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
	for k := 0; k < 4; k++ {
		d.SetDirty(regionBlocks(k))
		d.SetDirty(regionBlocks(k) + 1) // rewrite: promote to MRW
	}
	for k := 4; k < 104; k++ {
		d.SetDirty(regionBlocks(k))
	}
	survivors := 0
	for k := 1; k < 4; k++ { // region 0 was the LRW victim of the first insert
		if d.IsDirty(regionBlocks(k)) {
			survivors++
		}
	}
	if survivors != 3 {
		t.Fatalf("established regions surviving BIP stream: %d/3", survivors)
	}
}

func TestLRWBIPEpsilonOneBehavesLikeLRW(t *testing.T) {
	// With epsilon denominator 1 every insert is an MRW insert, i.e.
	// plain LRW: a long enough stream cycles the whole set.
	p := params(config.DBILRWBIP)
	p.BIPEpsilonDen = 1
	d, err := New(WithParams(p), WithCacheBlocks(32768), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rb := sameSetBlocks(d, 150)
	regionBlocks := func(k int) addr.BlockAddr { return rb[k] }
	for k := 0; k < 4; k++ {
		d.SetDirty(regionBlocks(k))
		d.SetDirty(regionBlocks(k) + 1)
	}
	for k := 4; k < 12; k++ {
		d.SetDirty(regionBlocks(k))
	}
	for k := 0; k < 4; k++ {
		if d.IsDirty(regionBlocks(k)) {
			t.Fatalf("region %d survived an MRW-insert stream", k)
		}
	}
}

func TestRegionMappingGranularity(t *testing.T) {
	p := params(config.DBILRW)
	p.Granularity = 16
	d, err := New(WithParams(p), WithCacheBlocks(32768), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.RegionOf(15) != 0 || d.RegionOf(16) != 1 {
		t.Fatal("region mapping wrong for granularity 16")
	}
	d.SetDirty(0)
	d.SetDirty(16)
	// Blocks 0 and 16 are row-mates in DRAM but different DBI regions.
	if got := d.DirtyBlocksInRegion(0); len(got) != 1 {
		t.Fatalf("region blocks = %v", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	d.IsDirty(5)
	d.SetDirty(5)
	d.ClearDirty(5)
	if d.Stat.Lookups.Value() != 1 || d.Stat.Writes.Value() != 1 || d.Stat.Cleans.Value() != 1 {
		t.Fatalf("stats: %d/%d/%d", d.Stat.Lookups.Value(), d.Stat.Writes.Value(), d.Stat.Cleans.Value())
	}
}

func TestDirtyCountTracksAll(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	for i := 0; i < 100; i++ {
		d.SetDirty(addr.BlockAddr(i * 7))
	}
	if d.DirtyCount() == 0 {
		t.Fatal("dirty count zero")
	}
	sum := 0
	for i := 0; i < 100; i++ {
		if d.IsDirty(addr.BlockAddr(i * 7)) {
			sum++
		}
	}
	if sum != d.DirtyCount() {
		t.Fatalf("IsDirty sum %d != DirtyCount %d", sum, d.DirtyCount())
	}
}

// Property: after any sequence of SetDirty/ClearDirty, a block is dirty
// iff the reference model says so (accounting for evictions cleaning
// whole regions).
func TestQuickReferenceModel(t *testing.T) {
	f := func(ops []uint32) bool {
		d, err := New(WithParams(params(config.DBILRW)), WithCacheBlocks(4096), WithSeed(3))
		if err != nil {
			return false
		}
		ref := map[addr.BlockAddr]bool{}
		for _, op := range ops {
			b := addr.BlockAddr(op % 65536)
			if op&1 == 0 {
				ev, evicted := d.SetDirty(b)
				ref[b] = true
				if evicted {
					for _, eb := range ev.Blocks {
						if !ref[eb] {
							return false // evicted a block the model says is clean
						}
						delete(ref, eb)
					}
				}
			} else {
				was := d.ClearDirty(b)
				if was != ref[b] {
					return false
				}
				delete(ref, b)
			}
		}
		for b, dirty := range ref {
			if d.IsDirty(b) != dirty {
				return false
			}
		}
		count := 0
		for range ref {
			count++
		}
		return d.DirtyCount() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DBI never tracks more dirty blocks than α allows.
func TestQuickCapacityBound(t *testing.T) {
	f := func(ops []uint32) bool {
		d, err := New(WithParams(params(config.DBILRW)), WithCacheBlocks(4096), WithSeed(5))
		if err != nil {
			return false
		}
		for _, op := range ops {
			d.SetDirty(addr.BlockAddr(op % 1 << 20))
			if d.DirtyCount() > d.TrackedBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
