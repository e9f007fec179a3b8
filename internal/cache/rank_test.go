package cache

import (
	"math/rand"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

// refDirtyInLowRanks is DirtyInLowRanks spelled through the value view:
// BlockAt reads an invalid slot as the zero Block, whatever dirty byte
// it still holds.
func refDirtyInLowRanks(c *Cache, set, k int) bool {
	m := c.LowRanks(set, k)
	for w := 0; w < c.Ways(); w++ {
		if b := c.BlockAt(set, w); m&(1<<uint(w)) != 0 && b.Valid && b.Dirty {
			return true
		}
	}
	return false
}

// TestDirtyInLowRanksIgnoresStaleSlots empties the two LRU ways of a set
// with Invalidate: the slots keep their dirty bytes and low ranks, and
// the SSV query must not count them.
func TestDirtyInLowRanksIgnoresStaleSlots(t *testing.T) {
	c := mustNew(t, smallParams()) // LRU, 16 sets x 4 ways
	sets := uint64(c.Sets())
	for w := uint64(0); w < 4; w++ {
		c.Insert(addr.BlockAddr(w*sets), 0, w < 2) // ways 0 and 1 dirty, LRU-most
	}
	if !c.DirtyInLowRanks(0, 2) {
		t.Fatal("dirty LRU ways not reported")
	}
	c.Invalidate(0)
	c.Invalidate(addr.BlockAddr(sets))
	if c.LowRanks(0, 2) != 0b11 || c.dirty[0] == 0 || c.dirty[1] == 0 {
		t.Fatal("invalidated slots lost their rank or dirty byte; the test no longer probes stale state")
	}
	for k := 0; k <= 5; k++ {
		if c.DirtyInLowRanks(0, k) {
			t.Fatalf("k=%d: invalidated dirty slots counted", k)
		}
	}
	c.SetDirty(addr.BlockAddr(3*sets), true)
	if c.DirtyInLowRanks(0, 3) || !c.DirtyInLowRanks(0, 4) {
		t.Fatal("valid dirty way 3 misreported")
	}
}

// TestDirtyInLowRanksDifferential runs random fills, hits, dirtying and
// invalidations through every policy and compares the SSV query with
// refDirtyInLowRanks on every set after every operation.
func TestDirtyInLowRanksDifferential(t *testing.T) {
	const sets, ops = 4, 300
	rng := rand.New(rand.NewSource(7))
	for _, repl := range []config.ReplacementKind{config.ReplLRU, config.ReplTADIP, config.ReplDRRIP} {
		for _, ways := range []int{1, 3, 16, 64} {
			c, err := New(config.CacheParams{
				SizeBytes: uint64(64 * sets * ways), Ways: ways, BlockSize: 64,
				Replacement: repl,
			}, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ops; i++ {
				b := addr.BlockAddr(rng.Intn(3 * sets * ways))
				switch op := rng.Intn(20); {
				case op < 8:
					c.Insert(b, rng.Intn(2), rng.Intn(2) == 0)
				case op < 12:
					c.Access(b, rng.Intn(2))
				case op < 15:
					c.SetDirty(b, rng.Intn(2) == 0)
				default:
					c.Invalidate(b)
				}
				for set := 0; set < sets; set++ {
					for _, k := range []int{0, 1, 2, ways - 1, ways, ways + 1} {
						if got, want := c.DirtyInLowRanks(set, k), refDirtyInLowRanks(c, set, k); got != want {
							t.Fatalf("%v %d ways, op %d, set %d, k %d: DirtyInLowRanks %v, reference %v",
								repl, ways, i, set, k, got, want)
						}
					}
				}
			}
		}
	}
}
