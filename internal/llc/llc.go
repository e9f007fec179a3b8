// Package llc implements the shared last-level cache organizations the
// paper evaluates (Table 2): the LRU baseline, TA-DIP, DRAM-aware
// writeback (DAWB), the Virtual Write Queue (VWQ), Skip Cache, and the
// DBI-augmented cache with the aggressive-writeback (AWB) and
// cache-lookup-bypass (CLB) optimizations.
//
// The LLC owns the structures whose interplay produces the paper's
// results: the serial tag store behind a contended port (demand lookups
// beat filler lookups; nothing preempts), the Dirty-Block Index, the
// Skip-Cache miss predictor, and the writeback path into the memory
// controller's write buffer.
package llc

import (
	"fmt"

	"dbisim/internal/addr"
	"dbisim/internal/cache"
	"dbisim/internal/config"
	"dbisim/internal/dbi"
	"dbisim/internal/event"
	"dbisim/internal/misspred"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// Memory is the LLC's view of the memory controller.
type Memory interface {
	// Read fetches a block; done fires when data arrives.
	Read(b addr.BlockAddr, done func())
	// Write posts a block writeback.
	Write(b addr.BlockAddr)
}

// Stats aggregates LLC-side statistics. Tag-store lookups live in the
// embedded cache's stats; these count mechanism-level events.
type Stats struct {
	Reads         stats.Counter // demand reads from the private levels
	ReadHits      stats.Counter
	ReadMisses    stats.Counter
	Bypasses      stats.Counter // CLB: reads sent to memory without a tag lookup
	BypassDirty   stats.Counter // CLB: bypass cancelled because the DBI said dirty
	WritebackReqs stats.Counter // writeback requests from the private levels

	FillerLookups  stats.Counter // background tag lookups (DAWB/VWQ/AWB)
	ProactiveWBs   stats.Counter // row-mate writebacks issued early
	DBIEvictionWBs stats.Counter // writebacks forced by DBI evictions
	VictimWBs      stats.Counter // dirty blocks written back on eviction
	WriteThroughs  stats.Counter // Skip Cache write-through traffic
	MSHRMergeSkips stats.Counter // fills issued without MSHR merge (file full)
	ScanDrops      stats.Counter // harvest scans dropped on a full scan queue
	EagerWBs       stats.Counter // writebacks pumped during memory idle time
}

// scanJob is one row's worth of proactive-writeback work: the scanner
// walks the candidate blocks one background tag lookup at a time — the
// single scan state machine real DAWB/VWQ/AWB hardware uses. Paced jobs
// (optional harvests) additionally rate-limit their lookups so filler
// traffic cannot saturate the tag port; must-run jobs (DBI evictions)
// proceed as fast as the port grants them.
// The job owns its blocks slice: enqueueScan takes ownership, and the
// scanner returns the buffer to the LLC's mate pool once the job drains
// (idx advances instead of reslicing so the backing array survives).
type scanJob struct {
	blocks []addr.BlockAddr
	idx    int
	paced  bool
	visit  func(addr.BlockAddr)
}

// LLC is one shared last-level cache instance.
type LLC struct {
	Eng  *event.Engine
	Geo  addr.Geometry
	Mech config.Mechanism
	Prm  config.CacheParams

	Cache *cache.Cache
	Port  *cache.Port
	DBI   *dbi.DBI            // nil unless Mech.UsesDBI()
	Pred  *misspred.Predictor // nil unless CLB or Skip Cache
	mshr  *cache.MSHR
	mem   Memory

	// Trc, when non-nil, receives tag-lookup spans, bypass instants and
	// the DBI lifecycle events (entry allocate/evict, AWB harvests).
	Trc *telemetry.Tracer

	// Attr, when non-nil, receives the LLC's attribution charges:
	// per-purpose tag-port cycle categories at every Port.Submit site
	// (the port itself charges the llc_port domain total), dbi.probe
	// cycles for DBI queries, and one block of dram_bus bytes per
	// memory read/write the LLC issues, categorized by purpose.
	Attr *telemetry.Attribution

	// vwqDepth is how many LRU ways VWQ scans (the Set State Vector
	// covers this many ways per set).
	vwqDepth int

	// dbiLat is the configured DBI lookup latency in cycles.
	dbiLat event.Cycle

	// scanQ bounds in-flight proactive-writeback work: one lookup at a
	// time, a handful of queued rows. Jobs arriving at a full queue are
	// dropped (the harvest is an optimization), except DBI-eviction
	// writebacks, which are required for correctness and always enqueue
	// (the paper's evict buffer).
	scanQ      []scanJob
	scanning   bool
	nextScanAt event.Cycle // earliest start for the next paced lookup
	scanWake   bool        // a delayed pumpScan is scheduled

	// In-flight scan lookup state plus prebound callbacks and the
	// tag-request free list: the lookup, writeback and scan paths reuse
	// the same function values and pooled records instead of allocating
	// a closure per tag-store operation. Only one scan lookup is in
	// flight at a time (scanning), so a single field pair carries its
	// state.
	curScanBlock addr.BlockAddr
	curScanVisit func(addr.BlockAddr)
	scanDoneFn   event.Func
	scanWakeFn   event.Func
	tagFree      *tagReq

	// mateFree recycles harvest candidate buffers (row-mate lists, DBI
	// eviction drains, flush scratch) so the steady-state harvest paths
	// stop allocating a slice per dirty eviction.
	mateFree [][]addr.BlockAddr

	// fillFree recycles memory-fill requests so an LLC miss issues no
	// new closure on its way to DRAM.
	fillFree *fillReq

	// Prebound harvest visitors (each captures only the LLC).
	dbiEvictVisit func(addr.BlockAddr)
	dawbVisit     func(addr.BlockAddr)
	vwqVisit      func(addr.BlockAddr)
	awbVisit      func(addr.BlockAddr)

	Stat Stats
}

// tagReq is a pooled tag-store request: one record carries a demand
// read (possibly via the CLB's DBI check first) or a writeback through
// the contended port, with its callbacks bound once at allocation.
type tagReq struct {
	l      *LLC
	b      addr.BlockAddr
	thread int
	done   func()
	start  event.Cycle
	next   *tagReq
	clbFn  event.Func // DBI dirty check before a predicted-miss bypass
	readFn event.Func // demand tag-lookup port callback
	wbFn   event.Func // writeback port callback
}

func (l *LLC) getReq(b addr.BlockAddr, thread int, done func()) *tagReq {
	rr := l.tagFree
	if rr == nil {
		rr = &tagReq{l: l}
		rr.clbFn = rr.clbCheck
		rr.readFn = rr.lookupDone
		rr.wbFn = rr.writebackDone
	} else {
		l.tagFree = rr.next
	}
	rr.b, rr.thread, rr.done = b, thread, done
	return rr
}

func (l *LLC) putReq(rr *tagReq) {
	rr.done = nil
	rr.next = l.tagFree
	l.tagFree = rr
}

// getMates returns a zero-length candidate buffer from the pool (nil
// when the pool is empty; append grows it once and the buffer then
// recirculates at full size).
func (l *LLC) getMates() []addr.BlockAddr {
	if n := len(l.mateFree); n > 0 {
		s := l.mateFree[n-1]
		l.mateFree[n-1] = nil
		l.mateFree = l.mateFree[:n-1]
		return s
	}
	return nil
}

func (l *LLC) putMates(s []addr.BlockAddr) {
	if cap(s) == 0 {
		return
	}
	l.mateFree = append(l.mateFree, s[:0])
}

// scanQueueCap bounds the number of queued harvest rows.
const scanQueueCap = 8

// scanInterval is the pacing of optional harvest lookups (cycles per
// lookup). It bounds filler tag traffic the way the paper's clipped
// Figure-6c bars imply (~1 lookup per hundred cycles for the worst
// DAWB cases).
const scanInterval = 40

// Config carries what New needs beyond the system config.
type Config struct {
	Cores int
	Sys   config.SystemConfig
	Mem   Memory
	Seed  int64
}

// New builds the LLC for the configured mechanism.
func New(eng *event.Engine, geo addr.Geometry, c Config) (*LLC, error) {
	sys := c.Sys
	l3, err := cache.New(sys.L3, c.Cores, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("llc: %w", err)
	}
	l := &LLC{
		Eng:      eng,
		Geo:      geo,
		Mech:     sys.Mechanism,
		Prm:      sys.L3,
		Cache:    l3,
		Port:     &cache.Port{Eng: eng},
		mshr:     cache.NewMSHR(sys.L3.MSHRs),
		mem:      c.Mem,
		vwqDepth: 2,
	}
	if sys.Mechanism.UsesDBI() {
		d, err := dbi.New(dbi.WithGeometry(geo), dbi.WithParams(sys.DBI),
			dbi.WithCacheBlocks(sys.L3.Blocks()), dbi.WithSeed(c.Seed+1))
		if err != nil {
			return nil, fmt.Errorf("llc: %w", err)
		}
		l.DBI = d
		l.dbiLat = event.Cycle(sys.DBI.Latency)
		if l.dbiLat == 0 {
			l.dbiLat = 4
		}
	}
	if sys.Mechanism.HasCLB() || sys.Mechanism == config.SkipCache {
		p, err := misspred.New(sys.MissPred, sys.L3.Sets(), c.Cores)
		if err != nil {
			return nil, fmt.Errorf("llc: %w", err)
		}
		l.Pred = p
	}
	l.bindCallbacks()
	return l, nil
}

// bindCallbacks creates, once, the function values the hot paths reuse.
func (l *LLC) bindCallbacks() {
	l.scanDoneFn = func() {
		l.scanning = false
		visit, b := l.curScanVisit, l.curScanBlock
		l.curScanVisit = nil
		visit(b)
		l.pumpScan()
	}
	l.scanWakeFn = func() {
		l.scanWake = false
		l.pumpScan()
	}
	l.dbiEvictVisit = func(blk addr.BlockAddr) {
		l.Stat.FillerLookups.Inc()
		if _, hit := l.Cache.Lookup(blk); hit {
			l.Stat.DBIEvictionWBs.Inc()
			l.Attr.Charge(telemetry.ABytesDBIDrain, l.Geo.BlockSize)
			l.mem.Write(blk)
		}
	}
	l.dawbVisit = func(mate addr.BlockAddr) {
		l.Stat.FillerLookups.Inc()
		if _, hit := l.Cache.Lookup(mate); hit && l.Cache.IsDirty(mate) {
			l.Cache.SetDirty(mate, false)
			l.Stat.ProactiveWBs.Inc()
			l.Attr.Charge(telemetry.ABytesWBProactive, l.Geo.BlockSize)
			l.mem.Write(mate)
		}
	}
	l.vwqVisit = func(mate addr.BlockAddr) {
		l.Stat.FillerLookups.Inc()
		way, hit := l.Cache.Lookup(mate)
		if hit && l.Cache.IsDirty(mate) &&
			l.Cache.LowRanks(l.Cache.SetOf(mate), l.vwqDepth)&(1<<uint(way)) != 0 {
			l.Cache.SetDirty(mate, false)
			l.Stat.ProactiveWBs.Inc()
			l.Attr.Charge(telemetry.ABytesWBProactive, l.Geo.BlockSize)
			l.mem.Write(mate)
		}
	}
	l.awbVisit = func(mate addr.BlockAddr) {
		l.Stat.FillerLookups.Inc()
		if _, hit := l.Cache.Lookup(mate); hit && l.DBI.IsDirty(mate) {
			l.DBI.ClearDirty(mate)
			l.Stat.ProactiveWBs.Inc()
			l.Attr.Charge(telemetry.ABytesWBAWBHarvest, l.Geo.BlockSize)
			l.mem.Write(mate)
		}
	}
}

// tagLatency is the port occupancy of one tag lookup.
func (l *LLC) tagLatency() event.Cycle { return event.Cycle(l.Prm.TagLatency) }

// dataLatency is the additional latency of the (serial) data access.
func (l *LLC) dataLatency() event.Cycle { return event.Cycle(l.Prm.DataLatency) }

// dbiLatency is the DBI lookup latency.
func (l *LLC) dbiLatency() event.Cycle {
	if l.DBI == nil {
		return 0
	}
	return l.dbiLat
}

// Read handles a demand read from the private levels. done fires when
// the data is available to the requester.
func (l *LLC) Read(b addr.BlockAddr, thread int, done func()) {
	l.Stat.Reads.Inc()
	set := l.Cache.SetOf(b)

	// CLB / Skip Cache: predicted-miss accesses skip the tag lookup.
	if l.Pred != nil && l.Pred.PredictMiss(thread, set, l.Eng.Now()) {
		if l.Mech == config.SkipCache {
			// Write-through cache: no block can be dirty; bypass
			// unconditionally.
			l.bypass(b, done)
			return
		}
		// DBI+CLB: the bypass is safe only if the block is not dirty.
		// The DBI answers in a few cycles, far cheaper than the tag
		// store (Figure 4).
		rr := l.getReq(b, thread, done)
		l.Attr.Charge(telemetry.ADBIProbe, uint64(l.dbiLatency()))
		l.Eng.After(l.dbiLatency(), rr.clbFn)
		return
	}
	l.lookupRead(b, thread, done)
}

// clbCheck resolves a predicted-miss read once the DBI answered: dirty
// blocks fall back to the tag lookup, clean ones bypass to memory.
func (rr *tagReq) clbCheck() {
	l := rr.l
	b, thread, done := rr.b, rr.thread, rr.done
	l.putReq(rr)
	if l.DBI.IsDirty(b) {
		l.Stat.BypassDirty.Inc()
		l.lookupRead(b, thread, done)
		return
	}
	l.bypass(b, done)
}

// bypass forwards a read to memory without touching the tag store.
// Bypassed fills do not allocate in the LLC (the block was predicted
// dead on arrival).
func (l *LLC) bypass(b addr.BlockAddr, done func()) {
	l.Stat.Bypasses.Inc()
	l.Trc.Instant("llc", "bypass", telemetry.TIDLLC, uint64(l.Eng.Now()), uint64(b))
	l.fetch(b, done, false, 0)
}

// lookupRead performs the demand tag lookup and the hit/miss handling.
func (l *LLC) lookupRead(b addr.BlockAddr, thread int, done func()) {
	rr := l.getReq(b, thread, done)
	rr.start = l.Eng.Now()
	l.Attr.Charge(telemetry.ALLCTagProbe, uint64(l.tagLatency()))
	l.Port.Submit(false, l.tagLatency(), rr.readFn)
}

// lookupDone runs when the demand lookup wins and finishes on the port.
// The record releases before the downstream work (which may submit new
// lookups that reuse it); everything needed is copied out first.
func (rr *tagReq) lookupDone() {
	l := rr.l
	b, thread, done, start := rr.b, rr.thread, rr.done, rr.start
	l.putReq(rr)
	// Span covers queueing for the contended port plus occupancy.
	l.Trc.Complete("llc", "tag_lookup", telemetry.TIDLLC, uint64(start), uint64(l.Eng.Now()), uint64(b))
	hit := l.Cache.Access(b, thread)
	if l.Pred != nil {
		l.Pred.Observe(thread, l.Cache.SetOf(b), hit, l.Eng.Now())
	}
	if hit {
		l.Stat.ReadHits.Inc()
		l.Eng.After(l.dataLatency(), done)
		return
	}
	l.Stat.ReadMisses.Inc()
	l.fetch(b, done, true, thread)
}

// fillReq is a pooled memory-fill request with its callback bound once
// at allocation. Merged fills complete the MSHR entry on arrival;
// unmerged (MSHR-full) fills invoke done directly.
type fillReq struct {
	b        addr.BlockAddr
	thread   int
	allocate bool
	merged   bool
	done     func()
	fn       func()
	next     *fillReq
}

// getFill takes a fill record from the free list, binding its callback
// only on first allocation.
func (l *LLC) getFill(b addr.BlockAddr, thread int, allocate, merged bool, done func()) *fillReq {
	r := l.fillFree
	if r == nil {
		r = &fillReq{}
		r.fn = func() { l.completeFill(r) }
	} else {
		l.fillFree = r.next
	}
	r.next = nil
	r.b, r.thread, r.allocate, r.merged, r.done = b, thread, allocate, merged, done
	return r
}

// completeFill runs when the memory read arrives. The record is
// recycled before the fill executes: completing the MSHR entry wakes
// demand waiters that may synchronously issue the next miss and reuse
// it, so all state is copied out first.
func (l *LLC) completeFill(r *fillReq) {
	b, thread, allocate, merged, done := r.b, r.thread, r.allocate, r.merged, r.done
	r.done = nil
	r.next = l.fillFree
	l.fillFree = r
	if allocate {
		l.fill(b, thread)
	}
	if merged {
		l.mshr.Complete(uint64(b))
	} else {
		done()
	}
}

// fetch issues the memory read (with MSHR merging) and optionally
// allocates the block on fill.
func (l *LLC) fetch(b addr.BlockAddr, done func(), allocate bool, thread int) {
	key := uint64(b)
	if l.mshr.Outstanding(key) {
		l.mshr.Register(key, done)
		return
	}
	cat := telemetry.ABytesReadBypass
	if allocate {
		cat = telemetry.ABytesReadFill
	}
	l.Attr.Charge(cat, l.Geo.BlockSize)
	if l.mshr.Full() {
		// No MSHR available: issue an unmerged fill (counted; rare).
		l.Stat.MSHRMergeSkips.Inc()
		l.mem.Read(b, l.getFill(b, thread, allocate, false, done).fn)
		return
	}
	l.mshr.Register(key, done)
	l.mem.Read(b, l.getFill(b, thread, allocate, true, nil).fn)
}

// fill inserts a clean block fetched from memory and handles the victim.
func (l *LLC) fill(b addr.BlockAddr, thread int) {
	victim := l.Cache.Insert(b, thread, false)
	if victim.Valid {
		l.handleEviction(victim)
	}
}

// Writeback handles a writeback request from the private levels
// (Section 2.2.2): insert/update the block, then record its dirty state
// in the tag entry or the DBI depending on the mechanism.
func (l *LLC) Writeback(b addr.BlockAddr, thread int) {
	l.Stat.WritebackReqs.Inc()
	rr := l.getReq(b, thread, nil)
	l.Attr.Charge(telemetry.ALLCTagWriteback, uint64(l.tagLatency()))
	l.Port.Submit(false, l.tagLatency(), rr.wbFn)
}

// writebackDone installs the written-back block once its tag lookup
// finishes on the port.
func (rr *tagReq) writebackDone() {
	l := rr.l
	b, thread := rr.b, rr.thread
	l.putReq(rr)
	switch l.Mech {
	case config.SkipCache:
		// Write-through: update/allocate but never hold dirty data.
		victim := l.Cache.Insert(b, thread, false)
		if victim.Valid {
			l.handleEviction(victim)
		}
		l.Stat.WriteThroughs.Inc()
		l.Attr.Charge(telemetry.ABytesWBWriteThrough, l.Geo.BlockSize)
		l.mem.Write(b)
	default:
		if l.DBI != nil {
			victim := l.Cache.Insert(b, thread, false)
			if victim.Valid {
				l.handleEviction(victim)
			}
			l.dbiSetDirty(b)
		} else {
			victim := l.Cache.Insert(b, thread, true)
			if victim.Valid {
				l.handleEviction(victim)
			}
		}
	}
}

// dbiSetDirty marks a block dirty in the DBI and services any DBI
// eviction it causes: every block the displaced entry tracked is written
// back (after a background tag lookup to read its data) and becomes
// clean in the cache — the blocks themselves stay resident
// (Section 2.2.4). The eviction goes through the evict buffer (scan
// queue) so its writebacks interleave with demand traffic.
func (l *LLC) dbiSetDirty(b addr.BlockAddr) {
	var preInserts uint64
	if l.Trc != nil {
		preInserts = l.DBI.Stat.EntryInserts.Value()
	}
	scratch := l.getMates()
	ev, evicted := l.DBI.SetDirtyInto(b, scratch)
	if l.Trc != nil {
		now := uint64(l.Eng.Now())
		if l.DBI.Stat.EntryInserts.Value() > preInserts {
			l.Trc.Instant("dbi", "entry_alloc", telemetry.TIDDBI, now, uint64(b))
		}
		if evicted {
			// The drain of an evicted entry's aggregated writebacks.
			l.Trc.Instant("dbi", "entry_evict_drain", telemetry.TIDDBI, now, uint64(len(ev.Blocks)))
		}
	}
	if !evicted {
		l.putMates(scratch)
		return
	}
	l.enqueueScan(ev.Blocks, true, l.dbiEvictVisit)
}

// enqueueScan adds a row's candidate blocks to the scan queue, taking
// ownership of the slice (it is recycled through the mate pool once the
// job drains or drops). must marks correctness-critical jobs (DBI
// evictions) that may not be dropped when the queue is full and are not
// rate-limited.
func (l *LLC) enqueueScan(blocks []addr.BlockAddr, must bool, visit func(addr.BlockAddr)) {
	if len(blocks) == 0 {
		l.putMates(blocks)
		return
	}
	if !must && len(l.scanQ) >= scanQueueCap {
		l.Stat.ScanDrops.Inc()
		l.putMates(blocks)
		return
	}
	job := scanJob{blocks: blocks, paced: !must, visit: visit}
	if must {
		// Correctness writebacks queue ahead of optional harvests.
		i := 0
		for i < len(l.scanQ) && !l.scanQ[i].paced {
			i++
		}
		l.scanQ = append(l.scanQ, scanJob{})
		copy(l.scanQ[i+1:], l.scanQ[i:])
		l.scanQ[i] = job
	} else {
		l.scanQ = append(l.scanQ, job)
	}
	l.pumpScan()
}

// pumpScan advances the single scan state machine: one background tag
// lookup in flight at a time, paced jobs no faster than one per
// scanInterval cycles.
func (l *LLC) pumpScan() {
	if l.scanning || l.scanWake {
		return
	}
	for len(l.scanQ) > 0 && l.scanQ[0].idx == len(l.scanQ[0].blocks) {
		l.putMates(l.scanQ[0].blocks)
		n := len(l.scanQ)
		copy(l.scanQ, l.scanQ[1:])
		l.scanQ[n-1] = scanJob{}
		l.scanQ = l.scanQ[:n-1]
	}
	if len(l.scanQ) == 0 {
		return
	}
	job := &l.scanQ[0]
	now := l.Eng.Now()
	if job.paced && now < l.nextScanAt {
		l.scanWake = true
		l.Eng.At(l.nextScanAt, l.scanWakeFn)
		return
	}
	// Copy the in-flight lookup's state out of the queue (insertions may
	// shift elements) onto the LLC: only one scan is in flight at a time.
	l.curScanBlock = job.blocks[job.idx]
	l.curScanVisit = job.visit
	job.idx++
	if job.paced {
		l.nextScanAt = now + scanInterval
	}
	l.scanning = true
	l.Attr.Charge(telemetry.ALLCTagFiller, uint64(l.tagLatency()))
	l.Port.Submit(true, l.tagLatency(), l.scanDoneFn)
}

// handleEviction deals with a block displaced from the tag store
// (Section 2.2.3): if it is dirty it must be written back, and the
// DRAM-aware mechanisms additionally harvest its row-mates.
func (l *LLC) handleEviction(victim cache.Block) {
	dirty := victim.Dirty
	if l.DBI != nil {
		dirty = l.DBI.IsDirty(victim.Addr)
	}
	if !dirty {
		return
	}
	l.Stat.VictimWBs.Inc()
	l.Attr.Charge(telemetry.ABytesWBDemand, l.Geo.BlockSize)
	l.mem.Write(victim.Addr)
	if l.DBI != nil {
		l.DBI.ClearDirty(victim.Addr)
	}
	switch {
	case l.Mech == config.DAWB:
		l.harvestDAWB(victim.Addr)
	case l.Mech == config.VWQ:
		l.harvestVWQ(victim.Addr)
	case l.Mech.HasAWB():
		l.harvestAWB(victim.Addr)
	}
}

// harvestDAWB implements DRAM-aware writeback [Lee+, TR'10]: on a dirty
// eviction, indiscriminately look up every other block of the victim's
// DRAM row and write back those found dirty. The lookups are
// filler-priority but still consume tag bandwidth — the 1.95× tag-lookup
// inflation of Figure 6c.
func (l *LLC) harvestDAWB(b addr.BlockAddr) {
	row := l.Geo.RowOf(b)
	mates := l.getMates()
	for col := 0; col < l.Geo.BlocksPerRow(); col++ {
		if mate := l.Geo.BlockInRow(row, col); mate != b {
			mates = append(mates, mate)
		}
	}
	l.enqueueScan(mates, false, l.dawbVisit)
}

// harvestVWQ implements the Virtual Write Queue [Stuecheli+, ISCA'10]:
// like DAWB, but the Set State Vector filters lookups to sets that hold
// dirty blocks among their LRU ways, and only blocks found in those ways
// are written back.
func (l *LLC) harvestVWQ(b addr.BlockAddr) {
	row := l.Geo.RowOf(b)
	mates := l.getMates()
	for col := 0; col < l.Geo.BlocksPerRow(); col++ {
		mate := l.Geo.BlockInRow(row, col)
		if mate == b {
			continue
		}
		// SSV check: free (a registered bit per set).
		if l.Cache.DirtyInLowRanks(l.Cache.SetOf(mate), l.vwqDepth) {
			mates = append(mates, mate)
		}
	}
	l.enqueueScan(mates, false, l.vwqVisit)
}

// harvestAWB implements the paper's aggressive writeback (Section 3.1):
// one DBI query yields exactly the dirty row-mates, so the tag store is
// looked up only for blocks that are actually dirty.
func (l *LLC) harvestAWB(b addr.BlockAddr) {
	mates := l.DBI.DirtyBlocksInRegionInto(b, l.getMates())
	for i := 0; i < len(mates); {
		if mates[i] == b {
			mates = append(mates[:i], mates[i+1:]...)
			continue
		}
		i++
	}
	if len(mates) > 0 {
		// One AWB aggregated-writeback drain: a whole row's dirty mates
		// head for the write buffer together.
		l.Trc.Instant("dbi", "awb_harvest", telemetry.TIDDBI, uint64(l.Eng.Now()), uint64(len(mates)))
	}
	l.enqueueScan(mates, false, l.awbVisit)
}

// TagLookups reports total tag-store lookups (Figure 6c's numerator).
func (l *LLC) TagLookups() uint64 { return l.Cache.Stats.TagLookups.Value() }

// RegisterMetrics adds the LLC's probes (and those of its port and DBI,
// when present) to a telemetry registry.
func (l *LLC) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterStat("llc.reads", &l.Stat.Reads)
	reg.CounterStat("llc.read_hits", &l.Stat.ReadHits)
	reg.CounterStat("llc.read_misses", &l.Stat.ReadMisses)
	reg.CounterStat("llc.bypasses", &l.Stat.Bypasses)
	reg.CounterStat("llc.bypass_dirty", &l.Stat.BypassDirty)
	reg.CounterStat("llc.writeback_reqs", &l.Stat.WritebackReqs)
	reg.CounterStat("llc.filler_lookups", &l.Stat.FillerLookups)
	reg.CounterStat("llc.proactive_wbs", &l.Stat.ProactiveWBs)
	reg.CounterStat("llc.dbi_eviction_wbs", &l.Stat.DBIEvictionWBs)
	reg.CounterStat("llc.victim_wbs", &l.Stat.VictimWBs)
	reg.CounterStat("llc.write_throughs", &l.Stat.WriteThroughs)
	reg.CounterStat("llc.scan_drops", &l.Stat.ScanDrops)
	reg.Counter("llc.tag_lookups", l.TagLookups)
	reg.Gauge("llc.scan_queue", func() float64 { return float64(len(l.scanQ)) })
	l.Port.RegisterMetrics(reg, "llc.port")
	if l.DBI != nil {
		l.DBI.RegisterMetrics(reg)
	}
}

// Flush writes back every dirty block, using the DBI's row-grouped flush
// when available (Section 7, "Cache Flushing"). It returns the number of
// blocks written back. Flush is immediate (untimed); it exists for the
// flush/DMA application examples, not the main performance loop.
func (l *LLC) Flush() int {
	n := 0
	if l.DBI != nil {
		for _, ev := range l.DBI.Flush() {
			for _, b := range ev.Blocks {
				l.Attr.Charge(telemetry.ABytesWBFlush, l.Geo.BlockSize)
				l.mem.Write(b)
				n++
			}
		}
		return n
	}
	dirty := l.Cache.DirtyBlocksInto(l.getMates())
	for _, b := range dirty {
		l.Cache.SetDirty(b, false)
		l.Attr.Charge(telemetry.ABytesWBFlush, l.Geo.BlockSize)
		l.mem.Write(b)
		n++
	}
	l.putMates(dirty)
	return n
}
