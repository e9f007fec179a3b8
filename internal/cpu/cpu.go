// Package cpu models the out-of-order cores of Table 1: single-issue,
// 128-entry instruction window, with private L1 and L2 caches in front of
// the shared LLC.
//
// The core is trace-driven. It issues one instruction per cycle; loads
// proceed through the hierarchy asynchronously and many may be in flight
// at once (memory-level parallelism), but issue stalls when the
// instruction window fills behind an incomplete oldest load — the way
// out-of-order cores actually lose performance to memory latency. Stores
// retire through a store buffer and never stall the window; they generate
// the writeback traffic that ultimately reaches the LLC and the DBI.
package cpu

import (
	"fmt"

	"dbisim/internal/addr"
	"dbisim/internal/cache"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
	"dbisim/internal/trace"
)

// Stats counts per-core activity.
type Stats struct {
	Instructions stats.Counter // issued (≈ retired) instructions
	Loads        stats.Counter
	Stores       stats.Counter
	L1Hits       stats.Counter
	L2Hits       stats.Counter
	LLCAccesses  stats.Counter // demand reads that reached the LLC
	WindowStalls stats.Counter // stall episodes on a full window
}

// Core is one simulated core plus its private cache levels.
type Core struct {
	Eng *event.Engine
	ID  int

	// Trc, when non-nil, receives the core's request-lifecycle spans
	// (issue → LLC → fill) on the core's own trace lane.
	Trc *telemetry.Tracer

	// Attr, when non-nil, receives the core's cycle attribution:
	// cpu.issue for per-instruction cost and cpu.window_stall for
	// full-window stall episodes (charged on resume, so a stall
	// spanning the warmup→measure boundary lands in the window where
	// it ends).
	Attr *telemetry.Attribution

	gen trace.Generator
	l1  *cache.Cache
	l2  *cache.Cache
	llc *llc.LLC

	geo           addr.Geometry
	window        int
	l1Latency     event.Cycle
	l2Latency     event.Cycle
	issued        uint64 // instruction issue counter (sequence numbers)
	issuedAtStart uint64
	inflight      []*loadSlot
	stalled       bool
	stallAt       event.Cycle  // cycle the current stall episode began
	deferred      trace.Record // record waiting on a full window

	// outstanding merges concurrent shared-level fetches to the same
	// block (the private-level MSHRs). Requests are pooled records with
	// prebound completion callbacks and recycled waiter slices, so a
	// miss costs no allocation in steady state.
	outstanding map[addr.BlockAddr]*sharedReq
	sharedFree  *sharedReq
	swFree      [][]sharedWaiter

	// Budget: the core calls onDone once after issuing budget
	// instructions; it keeps running afterwards to preserve contention.
	budget uint64
	onDone func()
	done   bool

	// Measurement window markers, set by Start.
	startCycle event.Cycle
	doneCycle  event.Cycle

	// Prebound callbacks and the load-slot free list keep the per-
	// instruction issue loop allocation-free: the advance event after
	// every instruction and the completion callback of every load reuse
	// the same function values instead of capturing loop state.
	stepFn    event.Func
	advanceFn event.Func
	slotFree  *loadSlot

	Stat Stats
}

type loadSlot struct {
	seq  uint64
	done bool
	next *loadSlot
	fn   event.Func // bound once: marks the slot done and resumes issue
}

// sharedWaiter is one request parked on an outstanding shared-level
// fetch: on fill it installs the block in L2 then L1 (dirty for
// stores), then signals the waiting load slot (done is nil for stores).
type sharedWaiter struct {
	dirty bool
	done  func()
}

// sharedReq is a pooled outstanding shared-level fetch; fn is bound
// once at allocation so a miss schedules no new closure.
type sharedReq struct {
	b       addr.BlockAddr
	start   event.Cycle
	waiters []sharedWaiter
	fn      event.Func
	next    *sharedReq
}

// New builds a core with fresh private caches.
func New(eng *event.Engine, id int, cfg config.SystemConfig, gen trace.Generator, shared *llc.LLC, seed int64) (*Core, error) {
	l1, err := cache.New(cfg.L1, 1, seed)
	if err != nil {
		return nil, fmt.Errorf("cpu: L1: %w", err)
	}
	l2, err := cache.New(cfg.L2, 1, seed+1)
	if err != nil {
		return nil, fmt.Errorf("cpu: L2: %w", err)
	}
	c := &Core{
		Eng:         eng,
		ID:          id,
		gen:         gen,
		l1:          l1,
		l2:          l2,
		llc:         shared,
		geo:         addr.Default(),
		window:      cfg.Core.WindowSize,
		l1Latency:   event.Cycle(cfg.L1.AccessLatency()),
		l2Latency:   event.Cycle(cfg.L1.AccessLatency() + cfg.L2.AccessLatency()),
		outstanding: make(map[addr.BlockAddr]*sharedReq),
	}
	c.stepFn = c.step
	c.advanceFn = func() {
		if !c.stalled {
			c.step()
		}
	}
	return c, nil
}

// getSlot takes a load slot from the free list, allocating (and binding
// its completion callback) only on first use.
func (c *Core) getSlot() *loadSlot {
	s := c.slotFree
	if s == nil {
		s = &loadSlot{}
		s.fn = func() {
			s.done = true
			c.resume()
		}
	} else {
		c.slotFree = s.next
	}
	s.next = nil
	s.done = false
	return s
}

func (c *Core) putSlot(s *loadSlot) {
	s.next = c.slotFree
	c.slotFree = s
}

// getShared takes a shared-fetch record from the free list, binding its
// completion callback only on first allocation and reusing a recycled
// waiter slice when one is available.
func (c *Core) getShared(b addr.BlockAddr) *sharedReq {
	r := c.sharedFree
	if r == nil {
		r = &sharedReq{}
		r.fn = func() { c.completeShared(r) }
	} else {
		c.sharedFree = r.next
	}
	r.next = nil
	r.b = b
	if n := len(c.swFree); n > 0 {
		r.waiters = c.swFree[n-1]
		c.swFree = c.swFree[:n-1]
	}
	return r
}

// Start begins execution: the core will call onDone once after issuing
// budget instructions, then keep running (to preserve contention for
// other cores) for as long as its engine runs.
func (c *Core) Start(budget uint64, onDone func()) {
	c.Rebudget(budget, onDone)
	c.Eng.After(1, c.stepFn)
}

// Rebudget opens a new measurement window without restarting the issue
// pipeline — the warmup→measure transition. The next budget instructions
// are timed from now.
func (c *Core) Rebudget(budget uint64, onDone func()) {
	c.budget = budget
	c.onDone = onDone
	c.done = false
	c.startCycle = c.Eng.Now()
	c.issuedAtStart = c.issued
}

// Issued returns the total instructions issued since construction.
func (c *Core) Issued() uint64 { return c.issued }

// Cycles returns the cycles the core took to issue its budget
// (valid after onDone).
func (c *Core) Cycles() uint64 { return uint64(c.doneCycle - c.startCycle) }

// IPC returns budget/cycles for the measured window (valid after
// onDone).
func (c *Core) IPC() float64 {
	if c.doneCycle <= c.startCycle {
		return 0
	}
	return float64(c.budget) / float64(c.doneCycle-c.startCycle)
}

// RegisterMetrics adds the core's probes to a telemetry registry under
// a "cpuN." prefix.
func (c *Core) RegisterMetrics(reg *telemetry.Registry) {
	p := fmt.Sprintf("cpu%d.", c.ID)
	reg.CounterStat(p+"instructions", &c.Stat.Instructions)
	reg.CounterStat(p+"loads", &c.Stat.Loads)
	reg.CounterStat(p+"stores", &c.Stat.Stores)
	reg.CounterStat(p+"l1_hits", &c.Stat.L1Hits)
	reg.CounterStat(p+"l2_hits", &c.Stat.L2Hits)
	reg.CounterStat(p+"llc_accesses", &c.Stat.LLCAccesses)
	reg.CounterStat(p+"window_stalls", &c.Stat.WindowStalls)
	reg.Gauge(p+"inflight_loads", func() float64 { return float64(len(c.inflight)) })
}

// step issues the next trace record.
func (c *Core) step() {
	// The budget completes here, after the issued instructions' cycles
	// have elapsed, so IPC never exceeds the issue width.
	if !c.done && c.budget > 0 && c.issued-c.issuedAtStart >= c.budget {
		c.done = true
		c.doneCycle = c.Eng.Now()
		if c.onDone != nil {
			c.onDone()
		}
	}
	rec := c.gen.Next()
	cost := uint64(rec.Gap) + 1

	// Window check: we may not issue past the oldest incomplete load by
	// more than the window size.
	c.reapLoads()
	if c.windowFull(cost) {
		// Stall until enough older loads complete; every load completion
		// re-checks via resume. WindowStalls counts stall episodes.
		c.stalled = true
		c.stallAt = c.Eng.Now()
		c.Stat.WindowStalls.Inc()
		c.deferred = rec
		return
	}
	c.issue(rec, cost)
}

// windowFull reports whether issuing cost more instructions would move
// issue further than the window allows past the oldest incomplete load.
func (c *Core) windowFull(cost uint64) bool {
	return len(c.inflight) > 0 && c.issued+cost-c.inflight[0].seq > uint64(c.window)
}

// resume re-checks the window after a load completion and restarts issue
// if the stalled record now fits.
func (c *Core) resume() {
	if !c.stalled {
		return
	}
	c.reapLoads()
	cost := uint64(c.deferred.Gap) + 1
	if c.windowFull(cost) {
		return
	}
	c.stalled = false
	c.Attr.Charge(telemetry.ACPUWindowStall, uint64(c.Eng.Now()-c.stallAt))
	c.issue(c.deferred, cost)
}

func (c *Core) issue(rec trace.Record, cost uint64) {
	c.issued += cost
	c.Stat.Instructions.Add(cost)
	c.Attr.Charge(telemetry.ACPUIssue, cost)
	b := c.geo.BlockOf(rec.Addr)
	if rec.Kind == trace.Load {
		c.Stat.Loads.Inc()
		slot := c.getSlot()
		slot.seq = c.issued
		c.inflight = append(c.inflight, slot)
		c.load(b, slot.fn)
	} else {
		c.Stat.Stores.Inc()
		c.store(b)
	}
	c.Eng.After(event.Cycle(cost), c.advanceFn)
}

// reapLoads drops completed loads from the head of the window, returning
// their slots to the free list (safe: a done slot's callback has fired).
func (c *Core) reapLoads() {
	i := 0
	for i < len(c.inflight) && c.inflight[i].done {
		c.putSlot(c.inflight[i])
		i++
	}
	if i > 0 {
		c.inflight = append(c.inflight[:0], c.inflight[i:]...)
	}
}

// load walks the hierarchy; done fires when data is available.
func (c *Core) load(b addr.BlockAddr, done func()) {
	if c.l1.Access(b, 0) {
		c.Stat.L1Hits.Inc()
		c.Eng.After(c.l1Latency, done)
		return
	}
	if c.l2.Access(b, 0) {
		c.Stat.L2Hits.Inc()
		c.fillL1(b, false)
		c.Eng.After(c.l2Latency, done)
		return
	}
	c.fetchShared(b, false, done)
}

// store performs a write-allocate store; it never blocks the window.
func (c *Core) store(b addr.BlockAddr) {
	if c.l1.Access(b, 0) {
		c.Stat.L1Hits.Inc()
		c.l1.SetDirty(b, true)
		return
	}
	if c.l2.Access(b, 0) {
		c.Stat.L2Hits.Inc()
		c.fillL1(b, true)
		return
	}
	// Read-for-ownership fetch, then install dirty in L1.
	c.fetchShared(b, true, nil)
}

// fetchShared reads a block from the LLC, merging concurrent requests to
// the same block (the private-level MSHRs). Every waiter — including the
// originator — fills L2 then L1 on completion, in registration order.
func (c *Core) fetchShared(b addr.BlockAddr, dirty bool, done func()) {
	if r, ok := c.outstanding[b]; ok {
		r.waiters = append(r.waiters, sharedWaiter{dirty, done})
		return
	}
	r := c.getShared(b)
	r.waiters = append(r.waiters, sharedWaiter{dirty, done})
	c.outstanding[b] = r
	c.Stat.LLCAccesses.Inc()
	r.start = c.Eng.Now()
	c.llc.Read(b, c.ID, r.fn)
}

// completeShared finishes an outstanding fetch: it recycles the record
// before running the waiters (a waiter may issue a new miss and reuse
// it), holding the detached waiter slice until the loop is done.
func (c *Core) completeShared(r *sharedReq) {
	b, start, ws := r.b, r.start, r.waiters
	r.waiters = nil
	r.next = c.sharedFree
	c.sharedFree = r
	// The whole shared-level journey: LLC lookup (or bypass), DRAM
	// queueing, bank service, fill — one span per missed block.
	c.Trc.Complete("cpu", "llc_read", c.ID, uint64(start), uint64(c.Eng.Now()), uint64(b))
	delete(c.outstanding, b)
	for i := range ws {
		c.fillL2(b, false)
		c.fillL1(b, ws[i].dirty)
		if ws[i].done != nil {
			ws[i].done()
		}
	}
	for i := range ws {
		ws[i] = sharedWaiter{}
	}
	c.swFree = append(c.swFree, ws[:0])
}

// fillL1 installs a block in L1 (a resident block only takes the dirty
// bit), passing a dirty victim down to L2.
func (c *Core) fillL1(b addr.BlockAddr, dirty bool) {
	if victim := c.l1.Insert(b, 0, dirty); victim.Dirty {
		c.fillL2(victim.Addr, true)
	}
}

// fillL2 installs a block in L2 (a resident block only takes the dirty
// bit), passing a dirty victim down to the LLC.
func (c *Core) fillL2(b addr.BlockAddr, dirty bool) {
	if victim := c.l2.Insert(b, 0, dirty); victim.Dirty {
		c.llc.Writeback(victim.Addr, c.ID)
	}
}
