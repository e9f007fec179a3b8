// Package replacement implements the cache replacement and insertion
// policies evaluated in the DBI paper: LRU, thread-aware DIP (TA-DIP,
// the default LLC policy for every non-baseline mechanism) and
// thread-aware DRRIP (the Section 6.5 sensitivity study). TA-DIP and
// DRRIP share one set-dueling core; BIP, SRRIP and BRRIP exist only as
// the insertions those two duel.
//
// A Policy manages recency state for a set-associative structure with a
// fixed number of sets and ways. The owning cache calls Touch on hits,
// Insert on fills, OnMiss on demand misses (for set-dueling counters) and
// Victim to choose an eviction way when a set is full; the Virtual Write
// Queue asks LowRanks for the ways closest to eviction.
package replacement

import (
	"fmt"
	"math/rand/v2"

	"dbisim/internal/config"
	"dbisim/internal/simrand"
)

// Policy is the replacement interface of every cache level.
type Policy interface {
	// Touch records a hit on (set, way).
	Touch(set, way int)
	// Insert records a fill of (set, way) by thread.
	Insert(set, way, thread int)
	// OnMiss records a demand miss by thread in set (set-dueling input).
	OnMiss(set, thread int)
	// Victim returns the way to evict from a full set.
	Victim(set int) int
	// LowRanks returns the mask (bit w = way w) of the set's k ways
	// closest to eviction, invalid ways included. LRU and TA-DIP order
	// ways by recency stamp, smallest first; DRRIP by RRPV, largest
	// first; equal values go to the lower way. It is the Virtual Write
	// Queue's Set State Vector query. Sets are at most 64 ways wide.
	LowRanks(set, k int) uint64
}

// The paper's set-dueling parameters [Jaleel+, PACT'08]: 32 leader sets
// per policy per thread and a 10-bit policy selector per thread. The
// bimodal insertions promote one fill in 64 (BIP) or 32 (BRRIP).
const (
	duelingSets  = 32
	pselBits     = 10
	bipEpsilon   = 64
	brripEpsilon = 32
)

// New builds the policy of kind for a sets×ways structure shared by
// threads threads; seed fixes the bimodal insertions' random draws.
func New(kind config.ReplacementKind, sets, ways, threads int, seed int64) (Policy, error) {
	switch kind {
	case config.ReplLRU:
		return &LRU{newLRUState(sets, ways)}, nil
	case config.ReplTADIP:
		p := &TADIP{lruState: newLRUState(sets, ways)}
		p.init(sets, threads, bipEpsilon, seed)
		return p, nil
	case config.ReplDRRIP:
		p := &DRRIP{rripState: newRRIPState(sets, ways, 2)}
		p.init(sets, threads, brripEpsilon, seed)
		return p, nil
	}
	return nil, fmt.Errorf("replacement: unknown kind %v", kind)
}

// lruState holds per-block recency stamps; higher is more recent. LRU
// and TA-DIP share its Touch, Victim and LowRanks.
type lruState struct {
	ways   int
	stamps []uint64
	clock  uint64
}

func newLRUState(sets, ways int) *lruState {
	return &lruState{ways: ways, stamps: make([]uint64, sets*ways)}
}

// Touch implements Policy: the way becomes the most recent.
func (s *lruState) Touch(set, way int) {
	s.clock++
	s.stamps[set*s.ways+way] = s.clock
}

// demote makes (set, way) the LRU candidate of its set.
func (s *lruState) demote(set, way int) {
	min := s.stamps[set*s.ways]
	for w := 1; w < s.ways; w++ {
		if v := s.stamps[set*s.ways+w]; v < min {
			min = v
		}
	}
	if min == 0 {
		min = 1
	}
	s.stamps[set*s.ways+way] = min - 1
}

// Victim implements Policy: the way with the oldest stamp.
func (s *lruState) Victim(set int) int {
	best, bestStamp := 0, s.stamps[set*s.ways]
	for w := 1; w < s.ways; w++ {
		if v := s.stamps[set*s.ways+w]; v < bestStamp {
			best, bestStamp = w, v
		}
	}
	return best
}

// LRU is classic least-recently-used with MRU insertion.
type LRU struct{ *lruState }

// Insert implements Policy (MRU insertion).
func (l *LRU) Insert(set, way, thread int) { l.Touch(set, way) }

// OnMiss implements Policy (no dueling state).
func (l *LRU) OnMiss(set, thread int) {}

// duel is the set-dueling core of TA-DIP and DRRIP: each thread duels
// a base insertion against a bimodal one on a few leader sets and
// follows the winner elsewhere, through a saturating per-thread policy
// selector (PSEL).
type duel struct {
	period     int // one base leader and one bimodal leader per period, per thread
	psel       []int
	pselMax    int
	epsilonDen int
	pcg        rand.PCG   // rng's source, held by value
	rng        *rand.Rand // draws from pcg
}

// init places the paper's leader sets among sets for threads threads
// and seeds the bimodal promotion draw, which succeeds with
// probability 1/epsilonDen.
func (d *duel) init(sets, threads, epsilonDen int, seed int64) {
	d.period = max(sets/duelingSets, 2)
	d.pselMax = 1<<pselBits - 1
	d.psel = make([]int, max(threads, 1))
	for i := range d.psel {
		d.psel[i] = d.pselMax / 2
	}
	d.epsilonDen = epsilonDen
	simrand.Seed(&d.pcg, seed)
	d.rng = rand.New(&d.pcg)
}

// leaderKind returns +1 for thread's base leader sets, -1 for its
// bimodal leader sets and 0 for follower sets. Thread offsets
// decorrelate the leader sets of different threads.
func (d *duel) leaderKind(set, thread int) int {
	t := thread % len(d.psel)
	switch (set + 2*t) % d.period {
	case 0:
		return 1
	case d.period / 2:
		return -1
	}
	return 0
}

// OnMiss implements Policy: a miss in a leader set moves the thread's
// selector away from that leader's insertion.
func (d *duel) OnMiss(set, thread int) {
	t := thread % len(d.psel)
	switch d.leaderKind(set, thread) {
	case 1: // miss under the base insertion: vote for bimodal
		if d.psel[t] < d.pselMax {
			d.psel[t]++
		}
	case -1: // miss under the bimodal insertion: vote for the base
		if d.psel[t] > 0 {
			d.psel[t]--
		}
	}
}

// bimodalDemotes decides thread's fill of set: true when the fill takes
// the bimodal insertion and its 1-in-epsilonDen promotion draw fails.
// Only bimodal fills draw.
func (d *duel) bimodalDemotes(set, thread int) bool {
	bimodal := false
	switch d.leaderKind(set, thread) {
	case -1:
		bimodal = true
	case 0:
		bimodal = d.psel[thread%len(d.psel)] > d.pselMax/2
	}
	return bimodal && d.rng.IntN(d.epsilonDen) != 0
}

// TADIP is the thread-aware dynamic insertion policy [Jaleel+, PACT'08;
// Qureshi+, ISCA'07]: each thread duels LRU insertion against bimodal
// insertion (BIP) on a few leader sets and follows the winner elsewhere.
type TADIP struct {
	duel
	*lruState
}

// Insert implements Policy: MRU insertion under LRU, LRU insertion with
// 1/epsilon MRU promotion under BIP.
func (d *TADIP) Insert(set, way, thread int) {
	if d.bimodalDemotes(set, thread) {
		d.demote(set, way)
		return
	}
	d.Touch(set, way)
}

// rripState holds DRRIP's per-block re-reference prediction values.
type rripState struct {
	ways int
	rrpv []uint8
	max  uint8
}

func newRRIPState(sets, ways int, bits int) *rripState {
	max := uint8(1<<bits - 1)
	r := &rripState{ways: ways, rrpv: make([]uint8, sets*ways), max: max}
	for i := range r.rrpv {
		r.rrpv[i] = max
	}
	return r
}

// Touch implements Policy: promote to near-immediate re-reference.
func (r *rripState) Touch(set, way int) { r.rrpv[set*r.ways+way] = 0 }

// Victim implements Policy: the first way at the maximum RRPV, aging
// the set until one is.
func (r *rripState) Victim(set int) int {
	base := set * r.ways
	for {
		for w := 0; w < r.ways; w++ {
			if r.rrpv[base+w] == r.max {
				return w
			}
		}
		for w := 0; w < r.ways; w++ {
			r.rrpv[base+w]++
		}
	}
}

// DRRIP is thread-aware dynamic RRIP with 2-bit RRPVs [Jaleel+,
// ISCA'10]: SRRIP duels against BRRIP per thread with the same
// set-dueling core as TA-DIP.
type DRRIP struct {
	duel
	*rripState
}

// Insert implements Policy: SRRIP inserts at max-1; BRRIP inserts at max
// with a 1/epsilon chance of max-1.
func (d *DRRIP) Insert(set, way, thread int) {
	v := d.max - 1
	if d.bimodalDemotes(set, thread) {
		v = d.max
	}
	d.rrpv[set*d.ways+way] = v
}
