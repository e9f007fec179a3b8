package dbi

// Differential tests pinning the struct-of-arrays DBI against a
// retained array-of-structs reference implementation: the pre-refactor
// layout with one record per entry and a per-entry heap-allocated bit
// vector. Both implementations consume identical randomized operation
// streams; every answer, every eviction (region and block list) and the
// final structural state must agree exactly, for every replacement
// policy. The reference is deliberately naive — early-exit probe loops,
// pointer-chased bit slices — so a layout bug in the columnar store
// cannot be mirrored here by construction.

import (
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/simrand"
)

// refDBIEntry is the old AoS layout: one record per entry, dirty bits
// in a per-entry slice. (Only tests may use this layout; CI rejects it
// in non-test files.)
type refDBIEntry struct {
	valid     bool
	region    RegionID
	lastWrite uint64
	rwpv      uint8
	bits      []uint64
}

type refDBI struct {
	sets, ways  int
	granularity int
	regionShift uint
	wpe         int
	repl        config.DBIReplacement
	epsDen      int
	clock       uint64
	rng         *randv2.Rand
	entries     []refDBIEntry

	inserts, evictions, evictionBlocks uint64
}

// newRefDBI mirrors the live DBI's geometry so both see the same sets,
// ways and hash, and seeds an independent rng with the same seed.
func newRefDBI(d *DBI, seed int64) *refDBI {
	var pcg randv2.PCG
	simrand.Seed(&pcg, seed)
	r := &refDBI{
		sets: d.sets, ways: d.ways,
		granularity: d.Granularity(),
		regionShift: d.regionShift,
		wpe:         (d.Granularity() + 63) / 64,
		repl:        d.prm.Replacement,
		epsDen:      d.prm.BIPEpsilonDen,
		rng:         randv2.New(&pcg),
		entries:     make([]refDBIEntry, d.sets*d.ways),
	}
	for i := range r.entries {
		r.entries[i].bits = make([]uint64, r.wpe)
	}
	return r
}

func (r *refDBI) regionOf(b addr.BlockAddr) RegionID {
	return RegionID(uint64(b) >> r.regionShift)
}

func (r *refDBI) offsetOf(b addr.BlockAddr) int {
	return int(uint64(b) & (uint64(r.granularity) - 1))
}

func (r *refDBI) setOf(reg RegionID) int {
	const golden = 0x9E3779B97F4A7C15
	return int((uint64(reg) * golden >> 32) & uint64(r.sets-1))
}

// find is the classic early-exit AoS probe.
func (r *refDBI) find(reg RegionID) *refDBIEntry {
	base := r.setOf(reg) * r.ways
	for w := 0; w < r.ways; w++ {
		e := &r.entries[base+w]
		if e.valid && e.region == reg {
			return e
		}
	}
	return nil
}

func (e *refDBIEntry) bit(i int) bool { return e.bits[i>>6]&(1<<(i&63)) != 0 }
func (e *refDBIEntry) setBit(i int)   { e.bits[i>>6] |= 1 << (i & 63) }
func (e *refDBIEntry) clearBit(i int) { e.bits[i>>6] &^= 1 << (i & 63) }
func (e *refDBIEntry) dirtyCount() int {
	n := 0
	for _, w := range e.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func (r *refDBI) blocksOf(e *refDBIEntry) []addr.BlockAddr {
	var out []addr.BlockAddr
	base := uint64(e.region) << r.regionShift
	for i := 0; i < r.granularity; i++ {
		if e.bit(i) {
			out = append(out, addr.BlockAddr(base|uint64(i)))
		}
	}
	return out
}

func (r *refDBI) isDirty(b addr.BlockAddr) bool {
	e := r.find(r.regionOf(b))
	return e != nil && e.bit(r.offsetOf(b))
}

func (r *refDBI) victimWay(set int) int {
	base := set * r.ways
	es := r.entries[base : base+r.ways]
	switch r.repl {
	case config.DBILRW, config.DBILRWBIP:
		best := 0
		for w := 1; w < r.ways; w++ {
			if es[w].lastWrite < es[best].lastWrite {
				best = w
			}
		}
		return best
	case config.DBIRWIP:
		for {
			for w := range es {
				if es[w].rwpv >= 3 {
					return w
				}
			}
			for w := range es {
				es[w].rwpv++
			}
		}
	case config.DBIMaxDirty:
		best := 0
		for w := 1; w < r.ways; w++ {
			if es[w].dirtyCount() > es[best].dirtyCount() {
				best = w
			}
		}
		return best
	case config.DBIMinDirty:
		best := 0
		for w := 1; w < r.ways; w++ {
			if es[w].dirtyCount() < es[best].dirtyCount() {
				best = w
			}
		}
		return best
	}
	return 0
}

func (r *refDBI) setDirty(b addr.BlockAddr) (ev Eviction, evicted bool) {
	r.clock++
	reg := r.regionOf(b)
	if e := r.find(reg); e != nil {
		e.setBit(r.offsetOf(b))
		e.lastWrite = r.clock
		e.rwpv = 0
		return Eviction{}, false
	}
	set := r.setOf(reg)
	base := set * r.ways
	way := -1
	for w := 0; w < r.ways; w++ {
		if !r.entries[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = r.victimWay(set)
		victim := &r.entries[base+way]
		ev = Eviction{Region: victim.region, Blocks: r.blocksOf(victim)}
		evicted = true
		r.evictions++
		r.evictionBlocks += uint64(len(ev.Blocks))
	}
	e := &r.entries[base+way]
	e.valid, e.region = true, reg
	for i := range e.bits {
		e.bits[i] = 0
	}
	e.setBit(r.offsetOf(b))
	switch r.repl {
	case config.DBILRWBIP:
		if r.rng.IntN(r.epsDen) != 0 {
			e.lastWrite = 0
		} else {
			e.lastWrite = r.clock
		}
	case config.DBIRWIP:
		e.rwpv = 2
		e.lastWrite = r.clock
	default:
		e.lastWrite = r.clock
	}
	r.inserts++
	return ev, evicted
}

func (r *refDBI) clearDirty(b addr.BlockAddr) bool {
	e := r.find(r.regionOf(b))
	if e == nil || !e.bit(r.offsetOf(b)) {
		return false
	}
	e.clearBit(r.offsetOf(b))
	if e.dirtyCount() == 0 {
		e.valid = false
	}
	return true
}

// flushRegion harvests and empties b's region's entry, as
// FlushRegionInto does.
func (r *refDBI) flushRegion(b addr.BlockAddr) []addr.BlockAddr {
	e := r.find(r.regionOf(b))
	if e == nil {
		return nil
	}
	e.valid = false
	return r.blocksOf(e)
}

// flush evicts every valid entry in index order, as Flush does.
func (r *refDBI) flush() []Eviction {
	var evs []Eviction
	for i := range r.entries {
		if e := &r.entries[i]; e.valid {
			evs = append(evs, Eviction{Region: e.region, Blocks: r.blocksOf(e)})
			e.valid = false
			r.evictions++
			r.evictionBlocks += uint64(len(evs[len(evs)-1].Blocks))
		}
	}
	return evs
}

func (r *refDBI) dirtyCount() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].valid {
			n += r.entries[i].dirtyCount()
		}
	}
	return n
}

func (r *refDBI) validEntries() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].valid {
			n++
		}
	}
	return n
}

func sameBlocks(a, b []addr.BlockAddr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDifferentialSoAvsAoS(t *testing.T) {
	policies := []struct {
		name string
		repl config.DBIReplacement
	}{
		{"lrw", config.DBILRW},
		{"lrw-bip", config.DBILRWBIP},
		{"rwip", config.DBIRWIP},
		{"max-dirty", config.DBIMaxDirty},
		{"min-dirty", config.DBIMinDirty},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			d := newDBI(t, pc.repl)
			ref := newRefDBI(d, 1)
			// Address space sized to force set conflicts and evictions:
			// ~4x the tracked capacity.
			space := int64(4 * d.TrackedBlocks())
			rng := rand.New(rand.NewSource(42))
			// The running counts must equal both the columns' scan and
			// the reference's after every operation.
			checkCounts := func(op int) {
				t.Helper()
				if got, scan, want := d.DirtyCount(), d.scanDirtyCount(), ref.dirtyCount(); got != want || scan != want {
					t.Fatalf("op %d: DirtyCount = %d, scan %d, ref %d", op, got, scan, want)
				}
				if got, scan, want := d.ValidEntries(), d.scanValidEntries(), ref.validEntries(); got != want || scan != want {
					t.Fatalf("op %d: ValidEntries = %d, scan %d, ref %d", op, got, scan, want)
				}
			}
			const ops = 100000
			for op := 0; op < ops; op++ {
				b := addr.BlockAddr(rng.Int63n(space))
				switch rng.Intn(11) {
				case 0, 1, 2, 3:
					ev1, k1 := d.SetDirty(b)
					ev2, k2 := ref.setDirty(b)
					if k1 != k2 {
						t.Fatalf("op %d: SetDirty(%#x) evicted=%v, ref %v", op, uint64(b), k1, k2)
					}
					if k1 && (ev1.Region != ev2.Region || !sameBlocks(ev1.Blocks, ev2.Blocks)) {
						t.Fatalf("op %d: eviction mismatch: %+v vs ref %+v", op, ev1, ev2)
					}
				case 4, 5:
					if got, want := d.ClearDirty(b), ref.clearDirty(b); got != want {
						t.Fatalf("op %d: ClearDirty(%#x)=%v, ref %v", op, uint64(b), got, want)
					}
				case 6, 7, 8:
					if got, want := d.IsDirty(b), ref.isDirty(b); got != want {
						t.Fatalf("op %d: IsDirty(%#x)=%v, ref %v", op, uint64(b), got, want)
					}
				case 9:
					got := d.DirtyBlocksInRegion(b)
					var want []addr.BlockAddr
					if e := ref.find(ref.regionOf(b)); e != nil {
						want = ref.blocksOf(e)
					}
					if !sameBlocks(got, want) {
						t.Fatalf("op %d: DirtyBlocksInRegion(%#x) = %v, ref %v", op, uint64(b), got, want)
					}
				case 10:
					got := d.FlushRegionInto(b, nil)
					if want := ref.flushRegion(b); !sameBlocks(got, want) {
						t.Fatalf("op %d: FlushRegionInto(%#x) = %v, ref %v", op, uint64(b), got, want)
					}
				}
				checkCounts(op)
			}
			// Full structural state must agree: every (set, way) entry view.
			for set := 0; set < d.sets; set++ {
				for way := 0; way < d.ways; way++ {
					got := d.EntryAt(set, way)
					re := &ref.entries[set*ref.ways+way]
					want := Entry{}
					if re.valid {
						want = Entry{Valid: true, Region: re.region, Dirty: re.dirtyCount()}
					}
					if got != want {
						t.Fatalf("entry (%d,%d) = %+v, ref %+v", set, way, got, want)
					}
				}
			}
			// A closing Flush empties both, eviction for eviction.
			evs, refEvs := d.Flush(), ref.flush()
			if len(evs) != len(refEvs) {
				t.Fatalf("Flush: %d evictions, ref %d", len(evs), len(refEvs))
			}
			for i := range evs {
				if evs[i].Region != refEvs[i].Region || !sameBlocks(evs[i].Blocks, refEvs[i].Blocks) {
					t.Fatalf("Flush eviction %d = %+v, ref %+v", i, evs[i], refEvs[i])
				}
			}
			checkCounts(ops)
			if got, want := d.Stat.EntryInserts.Value(), ref.inserts; got != want {
				t.Fatalf("EntryInserts = %d, ref %d", got, want)
			}
			if got, want := d.Stat.Evictions.Value(), ref.evictions; got != want {
				t.Fatalf("Evictions = %d, ref %d", got, want)
			}
			if got, want := d.Stat.EvictionBlocks.Value(), ref.evictionBlocks; got != want {
				t.Fatalf("EvictionBlocks = %d, ref %d", got, want)
			}
		})
	}
}

// TestProbeLoopsDoNotAllocate pins the zero-allocation contract of the
// rewritten hot paths: the branchless probe (IsDirty), the steady-state
// write path with a recycled scratch buffer (SetDirtyInto) and the AWB
// harvest (DirtyBlocksInRegionInto).
func TestProbeLoopsDoNotAllocate(t *testing.T) {
	d := newDBI(t, config.DBILRW)
	blocks := sameSetBlocks(d, d.ways+1)
	for _, b := range blocks {
		d.SetDirty(b)
	}

	if n := testing.AllocsPerRun(1000, func() {
		d.IsDirty(blocks[0])
	}); n != 0 {
		t.Fatalf("IsDirty allocates %.1f per op", n)
	}

	var scratch []addr.BlockAddr
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		b := blocks[i%len(blocks)]
		i++
		if ev, evicted := d.SetDirtyInto(b, scratch); evicted {
			scratch = ev.Blocks
		}
	}); n != 0 {
		t.Fatalf("SetDirtyInto steady state allocates %.1f per op", n)
	}

	var dst []addr.BlockAddr
	if n := testing.AllocsPerRun(1000, func() {
		dst = d.DirtyBlocksInRegionInto(blocks[len(blocks)-1], dst[:0])
	}); n != 0 {
		t.Fatalf("DirtyBlocksInRegionInto allocates %.1f per op", n)
	}
}
