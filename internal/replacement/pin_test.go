package replacement

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"dbisim/internal/config"
)

// pinStream drives p through ops seeded calls and returns the FNV-64a
// hash of every Victim way and LowRanks mask; after, when not nil, runs
// after every call. The stream runs in phases of pinPhase calls; in each
// phase every thread's demand misses lean toward one group of its
// dueling sets (the paper layout's leaders, sets ≡ -2t and ≡ 4-2t mod 8
// at 256 sets), the direction alternating by phase and thread, so each
// PSEL swings across its midpoint.
func pinStream(p Policy, sets, ways, threads, ops int, after func()) uint64 {
	const pinPhase = 16384
	rng := rand.New(rand.NewPCG(24, uint64(threads)))
	h := fnv.New64a()
	var buf [8]byte
	emit := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < ops; i++ {
		t := rng.IntN(threads)
		set := rng.IntN(sets)
		switch r := rng.IntN(16); {
		case r < 6: // demand miss, victim search and fill
			if rng.IntN(2) == 0 {
				// A set s with (s + 2t) % 8 == g.
				g := 4
				if (i/pinPhase+t)%2 == 0 {
					g = 0
				}
				set = (8*rng.IntN(sets/8) + g - 2*t%8 + sets) % sets
			}
			p.OnMiss(set, t)
			w := p.Victim(set)
			emit(uint64(w))
			p.Insert(set, w, t)
		case r < 8: // fill of an invalid way
			p.Insert(set, rng.IntN(ways), t)
		case r < 13: // hit
			p.Touch(set, rng.IntN(ways))
		default: // the Set State Vector query
			emit(p.LowRanks(set, rng.IntN(ways+2)))
		}
		if after != nil {
			after()
		}
	}
	return h.Sum64()
}

// TestPolicyDecisionsPinned pins every replacement decision: a seeded
// stream of Touch, Insert, OnMiss, Victim and LowRanks calls runs
// through each policy built as the caches build it, and the hash of
// every Victim way and LowRanks mask must not change. A moved leader
// set, a changed PSEL update, an ε draw taken in another order, a
// tie-break or an aging step moves the hash. No golden-grid cell uses
// DRRIP, so this is what pins its decisions.
func TestPolicyDecisionsPinned(t *testing.T) {
	const sets, ways, ops, seed = 256, 16, 1 << 18, 42
	const pselMid = (1<<pselBits - 1) / 2
	for _, tc := range []struct {
		name    string
		kind    config.ReplacementKind
		threads int
		want    uint64
	}{
		{"lru/1", config.ReplLRU, 1, 0x57838e4049806256},
		{"lru/4", config.ReplLRU, 4, 0xae230ebab4e659ed},
		{"tadip/1", config.ReplTADIP, 1, 0x0a090d8afeb68594},
		{"tadip/4", config.ReplTADIP, 4, 0xf949a8500d5eca29},
		{"drrip/1", config.ReplDRRIP, 1, 0x695ff7203386344b},
		{"drrip/4", config.ReplDRRIP, 4, 0xc6a2cce51158027f},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustNew(t, tc.kind, sets, ways, tc.threads, seed)
			var psel []int // the policy's selectors, updated in place
			switch d := p.(type) {
			case *TADIP:
				psel = d.psel
			case *DRRIP:
				psel = d.psel
			}
			// Per thread: the side of the midpoint the selector is on
			// (above = bimodal for followers) and its crossings.
			above := make([]bool, tc.threads)
			ups, downs := make([]int, tc.threads), make([]int, tc.threads)
			var after func()
			if psel != nil {
				after = func() {
					for i, v := range psel {
						switch a := v > pselMid; {
						case a && !above[i]:
							ups[i]++
						case !a && above[i]:
							downs[i]++
						}
						above[i] = v > pselMid
					}
				}
			}
			got := pinStream(p, sets, ways, tc.threads, ops, after)
			if psel != nil {
				for i := range ups {
					if ups[i] == 0 || downs[i] == 0 {
						t.Fatalf("thread %d PSEL crossed its midpoint %d times up, %d down; the stream must cross both ways",
							i, ups[i], downs[i])
					}
				}
				t.Logf("PSEL midpoint crossings up %v, down %v", ups, downs)
			}
			if got != tc.want {
				t.Fatalf("decision hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
