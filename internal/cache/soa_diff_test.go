package cache

// Differential tests pinning the struct-of-arrays tag store against a
// retained array-of-structs reference: one record per slot, early-exit
// probe loops — the layout the columnar store replaced. Both consume
// identical randomized operation streams through the same replacement
// policy implementations (same seed, same call sequence), so every
// answer, every victim and the final structural state must agree
// exactly.

import (
	"math/rand"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/replacement"
)

type refCacheEntry struct {
	valid bool
	addr  addr.BlockAddr
	dirty bool
}

type refCache struct {
	sets, ways int
	entries    []refCacheEntry
	policy     replacement.Policy
}

func newRefCache(t *testing.T, kind config.ReplacementKind, sets, ways, threads int, seed int64) *refCache {
	t.Helper()
	pol, err := replacement.New(kind, sets, ways, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refCache{
		sets: sets, ways: ways,
		entries: make([]refCacheEntry, sets*ways),
		policy:  pol,
	}
}

func (c *refCache) setOf(b addr.BlockAddr) int {
	return int(uint64(b) & uint64(c.sets-1))
}

// find is the classic early-exit AoS probe.
func (c *refCache) find(b addr.BlockAddr) (way int, ok bool) {
	base := c.setOf(b) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if e.valid && e.addr == b {
			return w, true
		}
	}
	return 0, false
}

func (c *refCache) access(b addr.BlockAddr, thread int) bool {
	set := c.setOf(b)
	if way, ok := c.find(b); ok {
		c.policy.Touch(set, way)
		return true
	}
	c.policy.OnMiss(set, thread)
	return false
}

func (c *refCache) blockAt(set, way int) Block {
	e := &c.entries[set*c.ways+way]
	if !e.valid {
		return Block{}
	}
	return Block{Valid: true, Addr: e.addr, Dirty: e.dirty}
}

func (c *refCache) insert(b addr.BlockAddr, thread int, dirty bool) (victim Block) {
	set := c.setOf(b)
	if way, ok := c.find(b); ok {
		if dirty {
			c.entries[set*c.ways+way].dirty = true
		}
		return Block{}
	}
	base := set * c.ways
	way := -1
	for w := 0; w < c.ways; w++ {
		if !c.entries[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set)
		victim = c.blockAt(set, way)
	}
	c.entries[base+way] = refCacheEntry{valid: true, addr: b, dirty: dirty}
	c.policy.Insert(set, way, thread)
	return victim
}

func (c *refCache) invalidate(b addr.BlockAddr) (Block, bool) {
	way, ok := c.find(b)
	if !ok {
		return Block{}, false
	}
	set := c.setOf(b)
	old := c.blockAt(set, way)
	c.entries[set*c.ways+way].valid = false
	return old, true
}

func (c *refCache) setDirty(b addr.BlockAddr, dirty bool) bool {
	way, ok := c.find(b)
	if !ok {
		return false
	}
	c.entries[c.setOf(b)*c.ways+way].dirty = dirty
	return true
}

func (c *refCache) isDirty(b addr.BlockAddr) bool {
	way, ok := c.find(b)
	return ok && c.entries[c.setOf(b)*c.ways+way].dirty
}

func (c *refCache) touch(b addr.BlockAddr) {
	if way, ok := c.find(b); ok {
		c.policy.Touch(c.setOf(b), way)
	}
}

func TestCacheDifferentialSoAvsAoS(t *testing.T) {
	kinds := []struct {
		name string
		repl config.ReplacementKind
	}{
		{"lru", config.ReplLRU},
		{"tadip", config.ReplTADIP},
		{"drrip", config.ReplDRRIP},
	}
	const threads = 2
	for _, kc := range kinds {
		t.Run(kc.name, func(t *testing.T) {
			p := smallParams()
			p.Replacement = kc.repl
			c, err := New(p, threads, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(t, kc.repl, c.Sets(), c.Ways(), threads, 7)
			// ~8x capacity so conflict evictions are common.
			space := int64(8 * c.Sets() * c.Ways())
			rng := rand.New(rand.NewSource(99))
			for op := 0; op < 100000; op++ {
				b := addr.BlockAddr(rng.Int63n(space))
				thread := rng.Intn(threads)
				switch rng.Intn(10) {
				case 0, 1, 2:
					if got, want := c.Access(b, thread), ref.access(b, thread); got != want {
						t.Fatalf("op %d: Access(%#x)=%v, ref %v", op, uint64(b), got, want)
					}
				case 3, 4, 5:
					dirty := rng.Intn(2) == 0
					got := c.Insert(b, thread, dirty)
					want := ref.insert(b, thread, dirty)
					if got != want {
						t.Fatalf("op %d: Insert(%#x) victim %+v, ref %+v", op, uint64(b), got, want)
					}
				case 6:
					g1, g2 := c.Invalidate(b)
					w1, w2 := ref.invalidate(b)
					if g1 != w1 || g2 != w2 {
						t.Fatalf("op %d: Invalidate(%#x) = (%+v,%v), ref (%+v,%v)", op, uint64(b), g1, g2, w1, w2)
					}
				case 7:
					dirty := rng.Intn(2) == 0
					if got, want := c.SetDirty(b, dirty), ref.setDirty(b, dirty); got != want {
						t.Fatalf("op %d: SetDirty(%#x)=%v, ref %v", op, uint64(b), got, want)
					}
				case 8:
					if got, want := c.IsDirty(b), ref.isDirty(b); got != want {
						t.Fatalf("op %d: IsDirty(%#x)=%v, ref %v", op, uint64(b), got, want)
					}
				case 9:
					c.Touch(b)
					ref.touch(b)
				}
			}
			// Full structural state must agree: every (set, way) slot view.
			for set := 0; set < c.Sets(); set++ {
				for way := 0; way < c.Ways(); way++ {
					if got, want := c.BlockAt(set, way), ref.blockAt(set, way); got != want {
						t.Fatalf("slot (%d,%d) = %+v, ref %+v", set, way, got, want)
					}
				}
			}
		})
	}
}

// TestTagProbeDoesNotAllocate pins the zero-allocation contract of the
// rewritten tag-store hot paths and the Set State Vector query.
func TestTagProbeDoesNotAllocate(t *testing.T) {
	c := mustNew(t, smallParams())
	b := addr.BlockAddr(0x40)
	c.Insert(b, 0, true)

	if n := testing.AllocsPerRun(1000, func() {
		c.Access(b, 0)
	}); n != 0 {
		t.Fatalf("Access hit allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Lookup(b)
	}); n != 0 {
		t.Fatalf("Lookup allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.IsDirty(b)
	}); n != 0 {
		t.Fatalf("IsDirty allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.DirtyInLowRanks(c.SetOf(b), 2)
	}); n != 0 {
		t.Fatalf("DirtyInLowRanks allocates %.1f per op", n)
	}

	// Conflict-insert steady state: same set, rotating tags.
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Insert(addr.BlockAddr((i%8)*uint64(c.Sets())), 0, false)
		i++
	}); n != 0 {
		t.Fatalf("Insert/evict steady state allocates %.1f per op", n)
	}
}
