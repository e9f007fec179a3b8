// Package replacement implements the cache replacement and insertion
// policies evaluated in the DBI paper: LRU, BIP, thread-aware DIP with
// set dueling (TA-DIP, the default LLC policy for every non-baseline
// mechanism), and SRRIP/BRRIP/DRRIP (the Section 6.5 sensitivity study).
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

	"dbisim/internal/simrand"
)

// Policy is the replacement interface shared by all cache levels.
type Policy interface {
	// Name identifies the policy.
	Name() string
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

// lruState holds per-block recency stamps; higher is more recent.
type lruState struct {
	ways   int
	stamps []uint64
	clock  uint64
}

func newLRUState(sets, ways int) *lruState {
	return &lruState{ways: ways, stamps: make([]uint64, sets*ways)}
}

func (s *lruState) touch(set, way int) {
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

func (s *lruState) victim(set int) int {
	best, bestStamp := 0, s.stamps[set*s.ways]
	for w := 1; w < s.ways; w++ {
		if v := s.stamps[set*s.ways+w]; v < bestStamp {
			best, bestStamp = w, v
		}
	}
	return best
}

// LRU is classic least-recently-used with MRU insertion.
type LRU struct{ s *lruState }

// NewLRU returns an LRU policy for a sets×ways structure.
func NewLRU(sets, ways int) *LRU { return &LRU{s: newLRUState(sets, ways)} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// Touch implements Policy.
func (l *LRU) Touch(set, way int) { l.s.touch(set, way) }

// Insert implements Policy (MRU insertion).
func (l *LRU) Insert(set, way, thread int) { l.s.touch(set, way) }

// OnMiss implements Policy (no dueling state).
func (l *LRU) OnMiss(set, thread int) {}

// Victim implements Policy.
func (l *LRU) Victim(set int) int { return l.s.victim(set) }

// TADIP is the thread-aware dynamic insertion policy [Jaleel+, PACT'08;
// Qureshi+, ISCA'07]: each thread duels LRU insertion against bimodal
// insertion (BIP) on a few leader sets and follows the winner elsewhere.
type TADIP struct {
	s          *lruState
	sets       int
	period     int // one LRU leader and one BIP leader per period, per thread
	psel       []int
	pselMax    int
	epsilonDen int
	pcg        rand.PCG   // rng's source, held by value
	rng        *rand.Rand // draws from pcg
}

// TADIPConfig configures TA-DIP.
type TADIPConfig struct {
	Sets, Ways int
	Threads    int
	// DuelingSets is the number of leader sets per policy per thread (32
	// in the paper).
	DuelingSets int
	// PSELBits sizes the per-thread policy selector (10 in the paper).
	PSELBits int
	// EpsilonDen is the 1/N probability of MRU insertion under BIP (64).
	EpsilonDen int
	Seed       int64
}

// NewTADIP returns a TA-DIP policy.
func NewTADIP(c TADIPConfig) *TADIP {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.DuelingSets < 1 {
		c.DuelingSets = 32
	}
	if c.PSELBits < 1 {
		c.PSELBits = 10
	}
	if c.EpsilonDen < 1 {
		c.EpsilonDen = 64
	}
	period := c.Sets / c.DuelingSets
	if period < 2 {
		period = 2
	}
	max := 1<<c.PSELBits - 1
	psel := make([]int, c.Threads)
	for i := range psel {
		psel[i] = max / 2
	}
	d := &TADIP{
		s:          newLRUState(c.Sets, c.Ways),
		sets:       c.Sets,
		period:     period,
		psel:       psel,
		pselMax:    max,
		epsilonDen: c.EpsilonDen,
	}
	simrand.Seed(&d.pcg, c.Seed)
	d.rng = rand.New(&d.pcg)
	return d
}

// Name implements Policy.
func (d *TADIP) Name() string { return "TA-DIP" }

// leaderKind returns +1 for thread's LRU leader sets, -1 for BIP leader
// sets and 0 for follower sets. Thread offsets decorrelate the leader
// sets of different threads.
func (d *TADIP) leaderKind(set, thread int) int {
	t := thread % len(d.psel)
	switch (set + 2*t) % d.period {
	case 0:
		return 1
	case d.period / 2:
		return -1
	}
	return 0
}

// Touch implements Policy.
func (d *TADIP) Touch(set, way int) { d.s.touch(set, way) }

// OnMiss implements Policy: a miss in a leader set moves the selector
// away from that leader's policy.
func (d *TADIP) OnMiss(set, thread int) {
	t := thread % len(d.psel)
	switch d.leaderKind(set, thread) {
	case 1: // miss under LRU insertion: vote for BIP
		if d.psel[t] < d.pselMax {
			d.psel[t]++
		}
	case -1: // miss under BIP insertion: vote for LRU
		if d.psel[t] > 0 {
			d.psel[t]--
		}
	}
}

// useBIP decides the insertion policy for thread in set.
func (d *TADIP) useBIP(set, thread int) bool {
	switch d.leaderKind(set, thread) {
	case 1:
		return false
	case -1:
		return true
	}
	t := thread % len(d.psel)
	return d.psel[t] > d.pselMax/2
}

// Insert implements Policy: MRU insertion under LRU, LRU insertion with
// 1/epsilon MRU promotion under BIP.
func (d *TADIP) Insert(set, way, thread int) {
	if d.useBIP(set, thread) && d.rng.IntN(d.epsilonDen) != 0 {
		d.s.demote(set, way)
		return
	}
	d.s.touch(set, way)
}

// Victim implements Policy.
func (d *TADIP) Victim(set int) int { return d.s.victim(set) }

// PSEL exposes the selector value for a thread (for tests/diagnostics).
func (d *TADIP) PSEL(thread int) int { return d.psel[thread%len(d.psel)] }

// rripState holds per-block re-reference prediction values.
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

func (r *rripState) victim(set int) int {
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

// DRRIP is thread-aware dynamic RRIP [Jaleel+, ISCA'10]: SRRIP duels
// against BRRIP per thread with the same set-dueling machinery as TA-DIP.
type DRRIP struct {
	r          *rripState
	period     int
	psel       []int
	pselMax    int
	epsilonDen int
	pcg        rand.PCG   // rng's source, held by value
	rng        *rand.Rand // draws from pcg
}

// NewDRRIP returns a DRRIP policy with 2-bit RRPVs.
func NewDRRIP(c TADIPConfig) *DRRIP {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.DuelingSets < 1 {
		c.DuelingSets = 32
	}
	if c.PSELBits < 1 {
		c.PSELBits = 10
	}
	if c.EpsilonDen < 1 {
		c.EpsilonDen = 32
	}
	period := c.Sets / c.DuelingSets
	if period < 2 {
		period = 2
	}
	max := 1<<c.PSELBits - 1
	psel := make([]int, c.Threads)
	for i := range psel {
		psel[i] = max / 2
	}
	d := &DRRIP{
		r:          newRRIPState(c.Sets, c.Ways, 2),
		period:     period,
		psel:       psel,
		pselMax:    max,
		epsilonDen: c.EpsilonDen,
	}
	simrand.Seed(&d.pcg, c.Seed)
	d.rng = rand.New(&d.pcg)
	return d
}

// Name implements Policy.
func (d *DRRIP) Name() string { return "DRRIP" }

func (d *DRRIP) leaderKind(set, thread int) int {
	t := thread % len(d.psel)
	switch (set + 2*t) % d.period {
	case 0:
		return 1 // SRRIP leader
	case d.period / 2:
		return -1 // BRRIP leader
	}
	return 0
}

// Touch implements Policy: promote to near-immediate re-reference.
func (d *DRRIP) Touch(set, way int) { d.r.rrpv[set*d.r.ways+way] = 0 }

// OnMiss implements Policy.
func (d *DRRIP) OnMiss(set, thread int) {
	t := thread % len(d.psel)
	switch d.leaderKind(set, thread) {
	case 1:
		if d.psel[t] < d.pselMax {
			d.psel[t]++
		}
	case -1:
		if d.psel[t] > 0 {
			d.psel[t]--
		}
	}
}

// Insert implements Policy: SRRIP inserts at max-1; BRRIP inserts at max
// with a 1/epsilon chance of max-1.
func (d *DRRIP) Insert(set, way, thread int) {
	useBRRIP := false
	switch d.leaderKind(set, thread) {
	case 1:
		useBRRIP = false
	case -1:
		useBRRIP = true
	default:
		t := thread % len(d.psel)
		useBRRIP = d.psel[t] > d.pselMax/2
	}
	v := d.r.max - 1
	if useBRRIP && d.rng.IntN(d.epsilonDen) != 0 {
		v = d.r.max
	}
	d.r.rrpv[set*d.r.ways+way] = v
}

// Victim implements Policy.
func (d *DRRIP) Victim(set int) int { return d.r.victim(set) }

// Config bundles what caches need to construct a policy by kind.
type Config struct {
	Sets, Ways, Threads int
	Seed                int64
}

// Kind names a policy for New.
type Kind int

const (
	// KindLRU selects LRU.
	KindLRU Kind = iota
	// KindTADIP selects thread-aware DIP.
	KindTADIP
	// KindDRRIP selects thread-aware DRRIP.
	KindDRRIP
)

// New constructs the named policy with paper-default dueling parameters.
func New(k Kind, c Config) (Policy, error) {
	switch k {
	case KindLRU:
		return NewLRU(c.Sets, c.Ways), nil
	case KindTADIP:
		return NewTADIP(TADIPConfig{
			Sets: c.Sets, Ways: c.Ways, Threads: c.Threads,
			DuelingSets: 32, PSELBits: 10, EpsilonDen: 64, Seed: c.Seed,
		}), nil
	case KindDRRIP:
		return NewDRRIP(TADIPConfig{
			Sets: c.Sets, Ways: c.Ways, Threads: c.Threads,
			DuelingSets: 32, PSELBits: 10, EpsilonDen: 32, Seed: c.Seed,
		}), nil
	}
	return nil, fmt.Errorf("replacement: unknown kind %d", int(k))
}
