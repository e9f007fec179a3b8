// Package dbi implements the Dirty-Block Index, the primary contribution
// of the paper. The DBI removes dirty bits from the cache tag store and
// organizes them in a separate set-associative structure whose entries
// each track the dirty status of the blocks of one DRAM-row-aligned
// region: an entry holds a row tag and a bit vector with one bit per
// block (Section 2 of the paper).
//
// Semantics: a cache block is dirty if and only if the DBI holds a valid
// entry for the block's region and the block's bit in that entry is set.
//
// The structure supports the three queries the paper's optimizations
// need:
//
//   - IsDirty — a single fast lookup (much smaller than the tag store),
//     used by cache-lookup bypass (CLB);
//   - DirtyBlocksInRegion — all spatially co-located dirty blocks in one
//     query, used by aggressive DRAM-aware writeback (AWB);
//   - the entry count itself bounds how many blocks can be dirty, which
//     is what lets heterogeneous ECC keep strong ECC for DBI-tracked
//     blocks only.
//
// Inserting into a full DBI set evicts another entry; the evicted entry's
// dirty blocks must be written back to memory (a "DBI eviction",
// Section 2.2.4), because the DBI is the only record of their dirtiness.
//
// # Storage layout
//
// The index is struct-of-arrays. There is no per-entry record and, in
// particular, no per-entry heap-allocated bit vector: every entry's
// dirty bits live in one flat backing array (entry i owns
// words[i*wpe : (i+1)*wpe]), and the region tags, validity stamps and
// replacement metadata each occupy their own dense column. The probe
// loop touches only the stamp and region columns — for a 4-way set that
// is 2×32 contiguous bytes — scanning the region tags first and
// confirming the validity stamp only on a tag match. An entry is valid
// iff its stamp is 1 (0 = empty). The stamp is a flag, not a sentinel
// region: service keys reach every region value.
package dbi

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/simrand"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// RegionID identifies one DBI-entry-sized, row-aligned group of blocks.
// When the granularity equals blocks-per-row this is exactly the DRAM
// row ID.
type RegionID uint64

// Entry is a value snapshot (view) of one DBI entry: the valid bit, the
// region (row) tag and the population of the dirty bit vector. It is
// how diagnostics and tests observe the columnar store; the store
// itself holds no Entry records.
type Entry struct {
	Valid  bool
	Region RegionID
	Dirty  int // number of dirty blocks the entry tracks
}

// Eviction describes a DBI eviction: every listed block must be written
// back to memory and transitioned dirty→clean in the cache (the blocks
// themselves stay resident).
type Eviction struct {
	Region RegionID
	Blocks []addr.BlockAddr
}

// Stats counts DBI activity.
type Stats struct {
	Lookups        stats.Counter // IsDirty / bulk queries
	Writes         stats.Counter // SetDirty operations
	Cleans         stats.Counter // ClearDirty operations
	EntryInserts   stats.Counter
	Evictions      stats.Counter // DBI evictions (entry displaced)
	EvictionBlocks stats.Counter // dirty blocks written back by evictions
	// DirtyAtEviction histograms the bit-vector population at eviction,
	// showing how much row locality AWB can harvest.
	DirtyAtEviction *stats.Histogram
}

// DBI is the Dirty-Block Index.
type DBI struct {
	geo         addr.Geometry
	prm         config.DBIParams
	sets        int
	ways        int
	granularity int
	regionShift uint

	// Hot probe plane: one validity stamp (1 = live, 0 = empty) and one
	// region tag per entry.
	stamps  []uint64
	regions []RegionID
	// Replacement metadata columns.
	lastWrite []uint64 // LRW stamp; larger = more recently written
	rwpv      []uint8  // re-write prediction value (RWIP policy)
	// words is the flat dirty-bit backing store: entry i owns
	// words[i*wpe : (i+1)*wpe]. One allocation for the whole index —
	// no per-entry slice headers, no pointer chase per probe.
	words []uint64
	wpe   int // words per entry: ceil(granularity/64)

	clock uint64
	pcg   rand.PCG   // rng's source, held by value
	rng   *rand.Rand // draws from pcg

	Stat Stats
}

// New builds a DBI from functional options (options.go). Sizing comes
// from exactly one of WithCacheBlocks (track α × the cache's blocks,
// the simulator's framing) or WithRows (an explicit entry budget, the
// service framing); everything else defaults to the paper's Table-1
// DBI against the default geometry.
func New(opts ...Option) (*DBI, error) {
	o := options{geo: addr.Default(), prm: DefaultParams()}
	for _, fn := range opts {
		fn(&o)
	}
	geo, prm := o.geo, o.prm
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if prm.Granularity > geo.BlocksPerRow() {
		return nil, fmt.Errorf("dbi: granularity %d exceeds %d blocks per DRAM row",
			prm.Granularity, geo.BlocksPerRow())
	}
	var entries int
	switch {
	case o.rows > 0:
		entries = o.rows
		if entries < prm.Associativity {
			entries = prm.Associativity
		}
	case o.cacheBlocks > 0:
		entries = prm.Entries(o.cacheBlocks)
	default:
		return nil, fmt.Errorf("dbi: capacity unset: pass WithCacheBlocks or WithRows")
	}
	sets := entries / prm.Associativity
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	n := sets * prm.Associativity
	wpe := (prm.Granularity + 63) / 64
	d := &DBI{
		geo:         geo,
		prm:         prm,
		sets:        sets,
		ways:        prm.Associativity,
		granularity: prm.Granularity,
		stamps:      make([]uint64, n),
		regions:     make([]RegionID, n),
		lastWrite:   make([]uint64, n),
		rwpv:        make([]uint8, n),
		words:       make([]uint64, n*wpe),
		wpe:         wpe,
	}
	simrand.Seed(&d.pcg, o.seed)
	d.rng = rand.New(&d.pcg)
	d.regionShift = log2(uint64(prm.Granularity))
	if prm.BIPEpsilonDen <= 0 {
		d.prm.BIPEpsilonDen = 64
	}
	d.Stat.DirtyAtEviction = stats.NewHistogram(prm.Granularity)
	return d, nil
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Sets returns the number of DBI sets.
func (d *DBI) Sets() int { return d.sets }

// Ways returns the DBI associativity.
func (d *DBI) Ways() int { return d.ways }

// Entries returns the total entry count.
func (d *DBI) Entries() int { return len(d.regions) }

// TrackedBlocks returns the cumulative number of blocks the DBI can
// track (entries × granularity) — the numerator of α.
func (d *DBI) TrackedBlocks() int { return len(d.regions) * d.granularity }

// Granularity returns blocks per entry.
func (d *DBI) Granularity() int { return d.granularity }

// RegionOf maps a block to its DBI region.
func (d *DBI) RegionOf(b addr.BlockAddr) RegionID {
	return RegionID(uint64(b) >> d.regionShift)
}

// offsetOf returns the block's bit position within its region.
func (d *DBI) offsetOf(b addr.BlockAddr) int {
	return int(uint64(b) & (uint64(d.granularity) - 1))
}

// setOf hashes the region into a set. A multiplicative (Fibonacci) hash
// spreads regions evenly even when physical page placement happens to
// cluster: with few sets, a plain modulo would let an unlucky placement
// overload one set with the hot write working set and thrash it.
func (d *DBI) setOf(r RegionID) int {
	const golden = 0x9E3779B97F4A7C15
	h := uint64(r) * golden
	return int((h >> 32) & uint64(d.sets-1))
}

// validAt reports whether entry e is live.
func (d *DBI) validAt(e int) bool { return d.stamps[e] != 0 }

// invalidate marks entry e empty (stamp 0, like a fresh slot).
func (d *DBI) invalidate(e int) { d.stamps[e] = 0 }

// bit vector accessors over the flat backing store.
func (d *DBI) bit(e, i int) bool { return d.words[e*d.wpe+(i>>6)]&(1<<(i&63)) != 0 }
func (d *DBI) setBit(e, i int)   { d.words[e*d.wpe+(i>>6)] |= 1 << (i & 63) }
func (d *DBI) clearBit(e, i int) { d.words[e*d.wpe+(i>>6)] &^= 1 << (i & 63) }
func (d *DBI) clearWords(e int) {
	w := d.words[e*d.wpe : (e+1)*d.wpe]
	for i := range w {
		w[i] = 0
	}
}

// dirtyCountOf returns the bit-vector population of entry e, walking the
// entry's words in the flat array directly.
func (d *DBI) dirtyCountOf(e int) int {
	n := 0
	for _, w := range d.words[e*d.wpe : (e+1)*d.wpe] {
		n += bits.OnesCount64(w)
	}
	return n
}

// find locates the entry index for a region without counting a lookup,
// or returns -1. The way scan walks the dense region column with the
// region tag as the primary compare (it is the selective one — the
// stamp matches every live entry) and confirms validity only on a tag
// match. Unlike the cache's 16-way probe plane, the DBI's hit
// distribution is front-loaded (inserts fill way 0 first and sets are
// sparsely occupied), so an early exit beats a fixed-trip branchless
// scan here; the columnar layout still keeps the whole scan inside two
// cache lines per column.
func (d *DBI) find(r RegionID) int {
	base := d.setOf(r) * d.ways
	stamps := d.stamps[base : base+d.ways]
	regions := d.regions[base : base+d.ways : base+d.ways]
	key := uint64(r)
	for w := range regions {
		if uint64(regions[w]) == key && stamps[w] != 0 {
			return base + w
		}
	}
	return -1
}

// EntryAt exposes a value snapshot of the entry at (set, way) for
// diagnostics and tests — the DBI-level replacement for the per-entry
// accessors the columnar store no longer has. Invalid slots read as the
// zero Entry regardless of their stale contents.
func (d *DBI) EntryAt(set, way int) Entry {
	e := set*d.ways + way
	if !d.validAt(e) {
		return Entry{}
	}
	return Entry{Valid: true, Region: d.regions[e], Dirty: d.dirtyCountOf(e)}
}

// IsDirty implements the DBI's defining query: the block is dirty iff a
// valid entry for its region exists and its bit is set.
func (d *DBI) IsDirty(b addr.BlockAddr) bool {
	d.Stat.Lookups.Inc()
	e := d.find(d.RegionOf(b))
	return e >= 0 && d.bit(e, d.offsetOf(b))
}

// SetDirty marks a block dirty (a writeback request arrived at the
// cache, Section 2.2.2). If the region has no entry, one is inserted,
// possibly evicting another entry; the eviction (if any) is returned and
// the caller must write back and clean every listed block.
func (d *DBI) SetDirty(b addr.BlockAddr) (ev Eviction, evicted bool) {
	return d.SetDirtyInto(b, nil)
}

// SetDirtyInto is SetDirty with a caller-provided scratch buffer: when
// the insert displaces an entry, the eviction's Blocks list is built by
// appending into scratch (re-sliced to zero length), so a caller that
// recycles buffers pays no allocation per eviction. When no eviction
// occurs scratch is untouched and the caller keeps ownership; on
// eviction the returned Blocks alias (or, if scratch was too small, a
// regrown copy of) scratch.
func (d *DBI) SetDirtyInto(b addr.BlockAddr, scratch []addr.BlockAddr) (ev Eviction, evicted bool) {
	d.Stat.Writes.Inc()
	d.clock++
	r := d.RegionOf(b)
	if e := d.find(r); e >= 0 {
		d.setBit(e, d.offsetOf(b))
		d.lastWrite[e] = d.clock
		d.rwpv[e] = 0
		return Eviction{}, false
	}
	set := d.setOf(r)
	way, victim := d.allocate(set)
	if victim >= 0 {
		ev = d.evict(victim, scratch[:0])
		evicted = true
	}
	e := set*d.ways + way
	d.stamps[e] = 1
	d.regions[e] = r
	d.clearWords(e)
	d.setBit(e, d.offsetOf(b))
	d.insertMetadata(e)
	d.Stat.EntryInserts.Inc()
	return ev, evicted
}

// allocate picks a way in the set, returning the victim entry index
// (or -1) when a valid entry must be displaced.
func (d *DBI) allocate(set int) (way, victim int) {
	base := set * d.ways
	for w := 0; w < d.ways; w++ {
		if !d.validAt(base + w) {
			return w, -1
		}
	}
	w := d.victimWay(set)
	return w, base + w
}

// victimWay applies the configured DBI replacement policy (Section 4.3).
func (d *DBI) victimWay(set int) int {
	base := set * d.ways
	switch d.prm.Replacement {
	case config.DBILRW, config.DBILRWBIP:
		best, bestStamp := 0, d.lastWrite[base]
		for w := 1; w < d.ways; w++ {
			if s := d.lastWrite[base+w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case config.DBIRWIP:
		for {
			for w := 0; w < d.ways; w++ {
				if d.rwpv[base+w] >= 3 {
					return w
				}
			}
			for w := 0; w < d.ways; w++ {
				d.rwpv[base+w]++
			}
		}
	case config.DBIMaxDirty:
		best, bestN := 0, d.dirtyCountOf(base)
		for w := 1; w < d.ways; w++ {
			if n := d.dirtyCountOf(base + w); n > bestN {
				best, bestN = w, n
			}
		}
		return best
	case config.DBIMinDirty:
		best, bestN := 0, d.dirtyCountOf(base)
		for w := 1; w < d.ways; w++ {
			if n := d.dirtyCountOf(base + w); n < bestN {
				best, bestN = w, n
			}
		}
		return best
	}
	return 0
}

// insertMetadata initializes replacement metadata for a fresh entry.
func (d *DBI) insertMetadata(e int) {
	switch d.prm.Replacement {
	case config.DBILRWBIP:
		// Bimodal insertion: mostly insert at the LRW position so a
		// single burst of writes to a cold row cannot displace the hot
		// write working set.
		if d.rng.IntN(d.prm.BIPEpsilonDen) != 0 {
			d.lastWrite[e] = 0
			return
		}
		d.lastWrite[e] = d.clock
	case config.DBIRWIP:
		d.rwpv[e] = 2
		d.lastWrite[e] = d.clock
	default:
		d.lastWrite[e] = d.clock
	}
}

// evict harvests the eviction's writeback list (appending into dst) and
// invalidates the entry.
func (d *DBI) evict(e int, dst []addr.BlockAddr) Eviction {
	ev := Eviction{Region: d.regions[e], Blocks: d.blocksOfInto(e, dst)}
	d.Stat.Evictions.Inc()
	d.Stat.EvictionBlocks.Add(uint64(len(ev.Blocks)))
	d.Stat.DirtyAtEviction.Observe(len(ev.Blocks))
	d.invalidate(e)
	d.clearWords(e)
	return ev
}

// blocksOf lists the dirty block addresses of an entry.
func (d *DBI) blocksOf(e int) []addr.BlockAddr {
	return d.blocksOfInto(e, nil)
}

// blocksOfInto appends the entry's dirty block addresses to dst, walking
// the entry's words in the flat array and decoding set bits with
// trailing-zero scans (word-at-a-time, not bit-at-a-time).
func (d *DBI) blocksOfInto(e int, dst []addr.BlockAddr) []addr.BlockAddr {
	base := uint64(d.regions[e]) << d.regionShift
	for wi, w := range d.words[e*d.wpe : (e+1)*d.wpe] {
		off := uint64(wi) << 6
		for w != 0 {
			i := uint64(bits.TrailingZeros64(w))
			w &= w - 1
			dst = append(dst, addr.BlockAddr(base|(off+i)))
		}
	}
	return dst
}

// ClearDirty resets a block's dirty bit (the block was written back on a
// cache eviction, Section 2.2.3). When the last dirty bit of an entry
// clears, the entry is invalidated so it can track another row. It
// reports whether the block was actually marked dirty.
func (d *DBI) ClearDirty(b addr.BlockAddr) bool {
	d.Stat.Cleans.Inc()
	e := d.find(d.RegionOf(b))
	if e < 0 {
		return false
	}
	off := d.offsetOf(b)
	if !d.bit(e, off) {
		return false
	}
	d.clearBit(e, off)
	if d.dirtyCountOf(e) == 0 {
		d.invalidate(e)
	}
	return true
}

// DirtyBlocksInRegion returns every dirty block co-located with b in its
// DBI entry — the single query that powers aggressive writeback (AWB,
// Section 3.1). The result includes b itself if dirty.
func (d *DBI) DirtyBlocksInRegion(b addr.BlockAddr) []addr.BlockAddr {
	d.Stat.Lookups.Inc()
	e := d.find(d.RegionOf(b))
	if e < 0 {
		return nil
	}
	return d.blocksOf(e)
}

// DirtyBlocksInRegionInto is DirtyBlocksInRegion appending into a
// caller-provided scratch slice, for the per-eviction AWB harvest path
// where a fresh slice per query would dominate the allocation profile.
func (d *DBI) DirtyBlocksInRegionInto(b addr.BlockAddr, dst []addr.BlockAddr) []addr.BlockAddr {
	d.Stat.Lookups.Inc()
	e := d.find(d.RegionOf(b))
	if e < 0 {
		return dst
	}
	return d.blocksOfInto(e, dst)
}

// DirtyCount returns the total number of dirty blocks tracked.
func (d *DBI) DirtyCount() int {
	n := 0
	for e := range d.stamps {
		if d.validAt(e) {
			n += d.dirtyCountOf(e)
		}
	}
	return n
}

// RegisterMetrics adds the DBI's probes to a telemetry registry:
// operation counters, occupancy gauges (entry-eviction pressure shows
// up as valid_entries pinned at capacity while evictions climb), and
// the dirty-blocks-per-evicted-entry histogram.
func (d *DBI) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterStat("dbi.lookups", &d.Stat.Lookups)
	reg.CounterStat("dbi.writes", &d.Stat.Writes)
	reg.CounterStat("dbi.cleans", &d.Stat.Cleans)
	reg.CounterStat("dbi.entry_inserts", &d.Stat.EntryInserts)
	reg.CounterStat("dbi.evictions", &d.Stat.Evictions)
	reg.CounterStat("dbi.eviction_blocks", &d.Stat.EvictionBlocks)
	reg.Gauge("dbi.valid_entries", func() float64 { return float64(d.ValidEntries()) })
	reg.Gauge("dbi.dirty_blocks", func() float64 { return float64(d.DirtyCount()) })
	reg.Histogram("dbi.dirty_at_eviction", d.Stat.DirtyAtEviction)
}

// ValidEntries returns the number of valid entries.
func (d *DBI) ValidEntries() int {
	n := 0
	for e := range d.stamps {
		if d.validAt(e) {
			n++
		}
	}
	return n
}
