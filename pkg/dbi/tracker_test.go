package dbi

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestRowMapping(t *testing.T) {
	tr, err := New(WithRows(128), WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if tr.RowSize() != 64 {
		t.Fatalf("RowSize = %d, want 64", tr.RowSize())
	}
	for _, tc := range []struct {
		k Key
		r Row
	}{{0, 0}, {63, 0}, {64, 1}, {6400 + 7, 100}} {
		if got := tr.RowOf(tc.k); got != tc.r {
			t.Errorf("RowOf(%d) = %d, want %d", tc.k, got, tc.r)
		}
	}
}

func TestSetDirtyIsDirtyFlush(t *testing.T) {
	tr, err := New(WithRows(1024), WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{0, 1, 63, 64, 1000, 1 << 30}
	for _, k := range keys {
		if ev := tr.SetDirty(k); len(ev) != 0 {
			t.Fatalf("SetDirty(%d) evicted %v with plenty of capacity", k, ev)
		}
	}
	for _, k := range keys {
		if !tr.IsDirty(k) {
			t.Errorf("IsDirty(%d) = false after SetDirty", k)
		}
	}
	if tr.IsDirty(2) {
		t.Error("IsDirty(2) = true, never set")
	}

	// Row 0 holds keys 0, 1, 63; region query sees all three.
	got := tr.DirtyBlocksInRegion(5)
	want := []Key{0, 1, 63}
	if !sameKeys(got, want) {
		t.Errorf("DirtyBlocksInRegion(5) = %v, want %v", got, want)
	}

	// FlushRow harvests and clears them; keys in other rows survive.
	flushed := tr.FlushRow(0)
	if !sameKeys(flushed, want) {
		t.Errorf("FlushRow(0) = %v, want %v", flushed, want)
	}
	for _, k := range want {
		if tr.IsDirty(k) {
			t.Errorf("IsDirty(%d) = true after flush", k)
		}
	}
	if !tr.IsDirty(64) || !tr.IsDirty(1000) {
		t.Error("flush of row 0 disturbed other rows")
	}
	if again := tr.FlushRow(0); len(again) != 0 {
		t.Errorf("second FlushRow(0) = %v, want empty", again)
	}

	st := tr.Stats()
	if st.Flushes != 2 || st.FlushedKeys != 3 {
		t.Errorf("Stats flushes=%d flushedKeys=%d, want 2 and 3", st.Flushes, st.FlushedKeys)
	}
	if st.DirtyKeys != len(keys)-len(want) {
		t.Errorf("DirtyKeys = %d, want %d", st.DirtyKeys, len(keys)-len(want))
	}
}

func TestEvictionReturnsDisplacedKeys(t *testing.T) {
	// Tiny tracker: capacity clamps to one set of `assoc` rows, so the
	// (assoc+1)-th distinct row must displace one and hand back its keys.
	tr, err := New(WithRows(4), WithRowSize(64), WithAssociativity(4))
	if err != nil {
		t.Fatal(err)
	}
	var evicted []Key
	inserted := map[Key]bool{}
	for r := 0; r < 5; r++ {
		k := Key(r * 64)
		inserted[k] = true
		evicted = append(evicted, tr.SetDirty(k)...)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted %v, want exactly one key", evicted)
	}
	if !inserted[evicted[0]] {
		t.Fatalf("evicted key %d was never inserted", evicted[0])
	}
	if tr.IsDirty(evicted[0]) {
		t.Error("evicted key still reported dirty")
	}
	st := tr.Stats()
	if st.Evictions != 1 || st.EvictedKeys != 1 {
		t.Errorf("Stats evictions=%d evictedKeys=%d, want 1 and 1", st.Evictions, st.EvictedKeys)
	}
}

// TestShardedMatchesSingle drives an identical random workload through
// New's one-shard tracker and an 8-shard tracker and requires identical
// answers to every query. Evictions differ (capacity is partitioned),
// so capacity is kept large enough that neither evicts.
func TestShardedMatchesSingle(t *testing.T) {
	single, err := New(WithRows(1<<14), WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(8, WithRows(1<<14), WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = Key(rng.Intn(1 << 16))
	}
	for _, k := range keys {
		if ev := single.SetDirty(k); len(ev) != 0 {
			t.Fatalf("single evicted at key %d; enlarge capacity", k)
		}
		if ev := sharded.SetDirty(k); len(ev) != 0 {
			t.Fatalf("sharded evicted at key %d; enlarge capacity", k)
		}
	}
	for probe := Key(0); probe < 1<<16; probe += 17 {
		if a, b := single.IsDirty(probe), sharded.IsDirty(probe); a != b {
			t.Fatalf("IsDirty(%d): single=%v sharded=%v", probe, a, b)
		}
	}
	for probe := Key(0); probe < 1<<16; probe += 640 {
		a, b := single.DirtyBlocksInRegion(probe), sharded.DirtyBlocksInRegion(probe)
		if !sameKeys(a, b) {
			t.Fatalf("DirtyBlocksInRegion(%d): single=%v sharded=%v", probe, a, b)
		}
	}
	for probe := Key(0); probe < 1<<16; probe += 640 {
		a, b := single.FlushRow(probe), sharded.FlushRow(probe)
		if !sameKeys(a, b) {
			t.Fatalf("FlushRow(%d): single=%v sharded=%v", probe, a, b)
		}
	}
	if a, b := single.Stats(), sharded.Stats(); a.DirtyKeys != b.DirtyKeys {
		t.Fatalf("DirtyKeys after flushes: single=%d sharded=%d", a.DirtyKeys, b.DirtyKeys)
	}
}

// TestBatchMatchesSingleOps checks the batch forms against the same
// keys applied one at a time to an identically-configured tracker, for
// 1, 4 and 8 shards, every policy, and a capacity small enough that
// most batches evict. Rounds of set, IsDirty and flush batches
// interleave, so the two trackers must also stay in the same state.
// IsDirtyBatch and FlushRowsInto answer element for element.
// SetDirtyBatch applies each shard's keys in batch order but the shards
// one after another, so its evictions are compared as a set. Stats
// agree after every phase.
func TestBatchMatchesSingleOps(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		for _, repl := range []Replacement{LRW, LRWBIP, RWIP, MaxDirty, MinDirty} {
			mk := func() Batcher {
				tr, err := NewSharded(shards, WithRows(64), WithRowSize(64),
					WithAssociativity(4), WithReplacement(repl))
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			a, b := mk(), mk()
			sameStats := func(round int, phase string) {
				t.Helper()
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("shards=%d policy=%d round %d %s: Stats differ:\nsingle %+v\nbatch  %+v",
						shards, repl, round, phase, sa, sb)
				}
			}
			rng := rand.New(rand.NewSource(11))
			draw := func(n int) []Key {
				keys := make([]Key, n)
				for i := range keys {
					keys[i] = Key(rng.Intn(1 << 15))
				}
				return keys
			}
			for round := 0; round < 40; round++ {
				keys := draw(128)
				var evA []Key
				for _, k := range keys {
					evA = append(evA, a.SetDirty(k)...)
				}
				evB := b.SetDirtyBatch(keys, nil)
				if !sameKeys(evA, evB) {
					t.Fatalf("shards=%d policy=%d round %d: eviction sets differ: %v vs %v",
						shards, repl, round, evA, evB)
				}
				sameStats(round, "set")

				probes := append(keys[:64:64], draw(64)...)
				gotB := b.IsDirtyBatch(probes, nil)
				for i, k := range probes {
					if want := a.IsDirty(k); gotB[i] != want {
						t.Fatalf("shards=%d policy=%d round %d: IsDirtyBatch[%d] (key %d) = %v, want %v",
							shards, repl, round, i, k, gotB[i], want)
					}
				}
				sameStats(round, "dirty")

				flushed := append(keys[64:80:80], draw(16)...)
				var flA []Key
				for _, k := range flushed {
					flA = append(flA, a.FlushRow(k)...)
				}
				if flB := b.FlushRowsInto(flushed, nil); !slices.Equal(flA, flB) {
					t.Fatalf("shards=%d policy=%d round %d: FlushRowsInto = %v, per key %v",
						shards, repl, round, flB, flA)
				}
				sameStats(round, "flush")
			}
			if st := b.Stats(); st.Evictions == 0 {
				t.Fatalf("shards=%d policy=%d: no evictions; shrink the capacity", shards, repl)
			}
		}
	}
}

// TestShardDistribution hashes a dense row range and a strided key
// range across shards and requires every shard's share to stay within
// 25% of the mean — the Fibonacci row hash must not leave shards idle
// for regular key patterns, which is exactly what a naive modulo would
// do for strided rows.
func TestShardDistribution(t *testing.T) {
	const shards = 16
	tr, err := NewSharded(shards, WithRows(1<<12), WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	patterns := map[string]func(i int) Key{
		"dense-rows":   func(i int) Key { return Key(i * 64) },
		"strided-rows": func(i int) Key { return Key(i * 64 * shards) },
		"random":       func(i int) Key { return Key(rand.New(rand.NewSource(int64(i))).Uint64()) },
	}
	for name, gen := range patterns {
		const n = 1 << 14
		var counts [shards]int
		for i := 0; i < n; i++ {
			idx := tr.ShardOf(gen(i))
			if idx < 0 || idx >= shards {
				t.Fatalf("%s: ShardOf out of range: %d", name, idx)
			}
			counts[idx]++
		}
		mean := float64(n) / shards
		for s, c := range counts {
			if dev := math.Abs(float64(c)-mean) / mean; dev > 0.25 {
				t.Errorf("%s: shard %d holds %d of %d keys (%.0f%% off mean)",
					name, s, c, n, dev*100)
			}
		}
	}
	// Every key of a row must map to that row's shard.
	for r := 0; r < 1000; r++ {
		base := Key(r * 64)
		want := tr.ShardOf(base)
		for _, off := range []Key{1, 31, 63} {
			if got := tr.ShardOf(base + off); got != want {
				t.Fatalf("row %d split across shards %d and %d", r, want, got)
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewSharded(3); err == nil {
		t.Error("NewSharded(3) accepted a non-power-of-two shard count")
	}
	if _, err := NewSharded(0); err == nil {
		t.Error("NewSharded(0) accepted zero shards")
	}
	if _, err := New(WithRowSize(48)); err == nil {
		t.Error("New accepted non-power-of-two row size")
	}
	if _, err := New(WithRows(0)); err == nil {
		t.Error("New accepted zero rows")
	}
	if _, err := New(WithReplacement(Replacement(99))); err == nil {
		t.Error("New accepted unknown replacement policy")
	}
	for _, s := range []string{"lrw", "lrw-bip", "rwip", "max-dirty", "min-dirty"} {
		r, err := ParseReplacement(s)
		if err != nil {
			t.Errorf("ParseReplacement(%q): %v", s, err)
		}
		if _, err := New(WithReplacement(r)); err != nil {
			t.Errorf("New(WithReplacement(%q)): %v", s, err)
		}
	}
	if _, err := ParseReplacement("mru"); err == nil {
		t.Error("ParseReplacement accepted unknown name")
	}
}

func sameKeys(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Key(nil), a...)
	bs := append([]Key(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
