package replacement

// Differential tests pinning LowRanks against the per-way rank loops it
// replaced, retained here as the reference: rank(w) counts the ways
// ahead of w in eviction order by rescanning the whole set. Bit w of
// LowRanks(set, k) must be set exactly when rank(w) < k.

import (
	"math/rand"
	"testing"
)

// rank is the reference LRU/TA-DIP order: how many ways of the set
// have strictly smaller stamps, ties broken by way index.
func (s *lruState) rank(set, way int) int {
	self := s.stamps[set*s.ways+way]
	r := 0
	for w := 0; w < s.ways; w++ {
		if w == way {
			continue
		}
		v := s.stamps[set*s.ways+w]
		if v < self || (v == self && w < way) {
			r++
		}
	}
	return r
}

// rank is the reference DRRIP order: ways with larger RRPVs are closer
// to eviction, ties broken by way index.
func (r *rripState) rank(set, way int) int {
	self := r.rrpv[set*r.ways+way]
	n := 0
	for w := 0; w < r.ways; w++ {
		if w == way {
			continue
		}
		v := r.rrpv[set*r.ways+w]
		if v > self || (v == self && w < way) {
			n++
		}
	}
	return n
}

// checkLowRanks compares every (set, k) mask of p against rank.
func checkLowRanks(t *testing.T, p Policy, sets, ways int, rank func(set, way int) int) {
	t.Helper()
	for set := 0; set < sets; set++ {
		for _, k := range []int{0, 1, 2, ways - 1, ways, ways + 1} {
			got := p.LowRanks(set, k)
			var want uint64
			for w := 0; w < ways; w++ {
				if rank(set, w) < k {
					want |= 1 << uint(w)
				}
			}
			if got != want {
				t.Fatalf("%s %d ways, set %d, k %d: LowRanks %#x, reference %#x",
					p.Name(), ways, set, k, got, want)
			}
		}
	}
}

// randomStamps fills s with recency stamps rich in ties: never-touched
// ways at 0, live stamps drawn from a range narrower than the set,
// then a few demotions to the set's floor and a few fresh touches.
func randomStamps(rng *rand.Rand, s *lruState, sets int) {
	for i := range s.stamps {
		if rng.Intn(4) == 0 {
			s.stamps[i] = 0
		} else {
			s.stamps[i] = uint64(1 + rng.Intn(s.ways/2+1))
		}
	}
	s.clock = uint64(s.ways)
	for n := rng.Intn(4); n > 0; n-- {
		s.demote(rng.Intn(sets), rng.Intn(s.ways))
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.touch(rng.Intn(sets), rng.Intn(s.ways))
	}
}

func TestLowRanksMatchesRankReference(t *testing.T) {
	const sets, trials = 3, 20
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= 64; ways++ {
		c := TADIPConfig{Sets: sets, Ways: ways, Seed: 1}
		lru, tadip, drrip := NewLRU(sets, ways), NewTADIP(c), NewDRRIP(c)
		for i := 0; i < trials; i++ {
			randomStamps(rng, lru.s, sets)
			randomStamps(rng, tadip.s, sets)
			for j := range drrip.r.rrpv {
				drrip.r.rrpv[j] = uint8(rng.Intn(4))
			}
			checkLowRanks(t, lru, sets, ways, lru.s.rank)
			checkLowRanks(t, tadip, sets, ways, tadip.s.rank)
			checkLowRanks(t, drrip, sets, ways, drrip.r.rank)
		}
	}
}

// TestLowRanksFollowsPolicyState drives each policy through random
// touches, fills (TA-DIP's BIP fills demote to the floor, DRRIP's land
// at or below the maximum RRPV), misses and victim searches (DRRIP
// ages its set) and compares after every operation.
func TestLowRanksFollowsPolicyState(t *testing.T) {
	const sets, ops = 4, 400
	rng := rand.New(rand.NewSource(2))
	for _, ways := range []int{1, 2, 3, 8, 16, 33, 64} {
		c := TADIPConfig{Sets: sets, Ways: ways, Threads: 2, DuelingSets: 2, Seed: 3}
		lru, tadip, drrip := NewLRU(sets, ways), NewTADIP(c), NewDRRIP(c)
		for _, tc := range []struct {
			p    Policy
			rank func(set, way int) int
		}{{lru, lru.s.rank}, {tadip, tadip.s.rank}, {drrip, drrip.r.rank}} {
			for i := 0; i < ops; i++ {
				set, way, thread := rng.Intn(sets), rng.Intn(ways), rng.Intn(2)
				switch rng.Intn(4) {
				case 0:
					tc.p.Touch(set, way)
				case 1:
					tc.p.Insert(set, way, thread)
				case 2:
					tc.p.OnMiss(set, thread)
				case 3:
					tc.p.Victim(set)
				}
				checkLowRanks(t, tc.p, sets, ways, tc.rank)
			}
		}
	}
}
