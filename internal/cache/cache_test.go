package cache

import (
	"testing"
	"testing/quick"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

func smallParams() config.CacheParams {
	return config.CacheParams{
		SizeBytes: 64 * 4 * 16, Ways: 4,
		TagLatency: 2, DataLatency: 2,
		Replacement: config.ReplLRU,
	}
}

func mustNew(t *testing.T, p config.CacheParams) *Cache {
	t.Helper()
	c, err := New(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.Ways = 0
	if _, err := New(p, 1, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := mustNew(t, smallParams())
	b := addr.BlockAddr(0x100)
	if c.Access(b, 0) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(b, 0, false)
	if !c.Access(b, 0) {
		t.Fatal("miss after insert")
	}
	if c.Stats.TagLookups.Value() != 2 {
		t.Fatalf("tag lookups = %d, want 2", c.Stats.TagLookups.Value())
	}
}

func TestSetMapping(t *testing.T) {
	c := mustNew(t, smallParams()) // 16 sets
	if c.Sets() != 16 || c.Ways() != 4 {
		t.Fatalf("geometry %dx%d", c.Sets(), c.Ways())
	}
	if c.SetOf(addr.BlockAddr(16+3)) != 3 {
		t.Fatalf("SetOf = %d", c.SetOf(addr.BlockAddr(16+3)))
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := mustNew(t, smallParams())
	// Fill set 0 with blocks 0,16,32,48 (all map to set 0).
	for i := 0; i < 4; i++ {
		if v := c.Insert(addr.BlockAddr(i*16), 0, false); v.Valid {
			t.Fatalf("eviction while filling invalid ways: %+v", v)
		}
	}
	// Touch block 0 so block 16 is LRU.
	c.Touch(0)
	v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if !v.Valid || v.Addr != 16 {
		t.Fatalf("victim = %+v, want block 16", v)
	}
	if c.Contains(16) {
		t.Fatal("evicted block still present")
	}
}

func TestInsertDirtyVictim(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 4; i++ {
		c.Insert(addr.BlockAddr(i*16), 0, i == 0) // block 0 dirty
	}
	v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if !v.Valid || v.Addr != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
	if v := c.Insert(addr.BlockAddr(5*16), 0, false); !v.Valid || v.Dirty {
		t.Fatalf("victim = %+v, want a clean block", v)
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(7, 0, false)
	v := c.Insert(7, 0, true)
	if v.Valid {
		t.Fatalf("re-insert evicted %+v", v)
	}
	if !c.IsDirty(7) {
		t.Fatal("re-insert with dirty=true did not mark dirty")
	}
	c.Insert(7, 0, false)
	if !c.IsDirty(7) {
		t.Fatal("re-insert with dirty=false cleared dirty bit")
	}
}

func TestDirtyBitOps(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(5, 0, false)
	if c.IsDirty(5) {
		t.Fatal("fresh block dirty")
	}
	if !c.SetDirty(5, true) {
		t.Fatal("SetDirty failed on resident block")
	}
	if !c.IsDirty(5) {
		t.Fatal("dirty bit not set")
	}
	if c.SetDirty(999, true) {
		t.Fatal("SetDirty succeeded on absent block")
	}
	got := c.DirtyBlocks()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("DirtyBlocks = %v", got)
	}
	c.SetDirty(5, false)
	if len(c.DirtyBlocks()) != 0 {
		t.Fatal("dirty list not empty after clearing")
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(9, 0, true)
	old, ok := c.Invalidate(9)
	if !ok || !old.Dirty || old.Addr != 9 {
		t.Fatalf("Invalidate = %+v, %v", old, ok)
	}
	if c.Contains(9) {
		t.Fatal("block still present")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate reported ok")
	}
}

func TestLookupCountsButDoesNotPromote(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 4; i++ {
		c.Insert(addr.BlockAddr(i*16), 0, false)
	}
	// Lookup block 0 (LRU): should not promote it.
	if _, hit := c.Lookup(0); !hit {
		t.Fatal("lookup missed resident block")
	}
	v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if v.Addr != 0 {
		t.Fatalf("victim = %+v; Lookup must not refresh recency", v)
	}
}

func TestCountValid(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 10; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	if c.CountValid() != 10 {
		t.Fatalf("CountValid = %d", c.CountValid())
	}
}

// Property: the cache never holds two copies of a block and never exceeds
// its capacity, under arbitrary insert/invalidate sequences.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := New(smallParams(), 1, 7)
		if err != nil {
			return false
		}
		live := map[addr.BlockAddr]bool{}
		for _, op := range ops {
			b := addr.BlockAddr(op % 256)
			switch op % 3 {
			case 0:
				v := c.Insert(b, 0, op%5 == 0)
				live[b] = true
				if v.Valid {
					delete(live, v.Addr)
				}
			case 1:
				if old, ok := c.Invalidate(b); ok {
					if old.Addr != b {
						return false
					}
					delete(live, b)
				}
			case 2:
				c.Access(b, 0)
			}
		}
		if c.CountValid() > c.Sets()*c.Ways() {
			return false
		}
		for b := range live {
			if !c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAt(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(3, 2, true)
	set := c.SetOf(3)
	found := false
	for w := 0; w < c.Ways(); w++ {
		blk := c.BlockAt(set, w)
		if blk.Valid && blk.Addr == 3 {
			found = true
			if !blk.Dirty {
				t.Fatalf("BlockAt = %+v", blk)
			}
		}
	}
	if !found {
		t.Fatal("inserted block not found via BlockAt")
	}
}
