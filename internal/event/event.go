// Package event provides the deterministic event-driven simulation engine
// that drives every timed component in the simulator (cores, caches, the
// DBI, the memory controller).
//
// The engine maintains a virtual clock measured in CPU cycles and fires
// scheduled callbacks from a hierarchical timing wheel (see wheel layout
// below). Events are scheduled with At (absolute cycle) or After (relative
// delta); both return a Handle that can cancel the event before it fires.
//
// # Determinism contract
//
// Events fire in strictly non-decreasing cycle order, and events scheduled
// for the same cycle fire in the exact order they were scheduled
// (same-cycle FIFO). This total order — (cycle, schedule sequence) — is
// the contract every component relies on for reproducible simulations:
// two runs with the same configuration and seed produce bit-identical
// results. Internally each event carries a monotonically increasing
// sequence number; whatever path an event takes through the wheel
// (direct placement, cascade from an outer level, overflow spill), the
// engine restores the (cycle, sequence) order before firing.
//
// # Wheel layout
//
// The wheel has three levels of 256 slots each, covering the next 2^24
// cycles relative to an internal 256-aligned base cursor. Level 0 slots
// hold exactly one cycle; level-k slots hold 256^k cycles. An event lands
// in the innermost level whose window contains it; events beyond the
// 2^24 horizon go to a sorted far-future overflow list and re-enter the
// wheel when the cursor reaches their window. Slot occupancy is tracked
// in per-level bitmaps so finding the next event is a couple of
// trailing-zero scans. Event records come from an internal free list, so
// steady-state scheduling performs zero heap allocations.
package event

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, in CPU clock cycles.
type Cycle uint64

// Func is a callback fired when its scheduled cycle is reached.
type Func func()

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64
	arenaChunk  = 256
)

// record is one scheduled event. Records are pooled: after an event fires
// or a canceled record is swept out, the record returns to the engine's
// free list with its generation bumped so stale Handles become inert.
type record struct {
	at       Cycle
	seq      uint64
	gen      uint64
	fn       Func
	next     *record
	canceled bool
}

// Handle identifies a scheduled event. The zero Handle is valid and inert.
type Handle struct {
	e   *Engine
	r   *record
	gen uint64
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending: canceling an event that already fired (or was already
// canceled) is a no-op returning false.
func (h Handle) Cancel() bool {
	if h.r == nil || h.r.gen != h.gen || h.r.canceled {
		return false
	}
	h.r.canceled = true
	h.e.pending--
	return true
}

// Active reports whether the event is still pending (not fired, not
// canceled).
func (h Handle) Active() bool {
	return h.r != nil && h.r.gen == h.gen && !h.r.canceled
}

// bucket is an intrusive FIFO list of records sharing a wheel slot.
// lastSeq/unsorted implement the same-cycle FIFO guarantee cheaply: an
// append below the previous append's sequence flags the bucket, and a
// flagged level-0 bucket (which always holds a single cycle) is re-sorted
// by sequence once, at fire time. Unflagged buckets are provably already
// in order, so the common path never sorts.
type bucket struct {
	head, tail *record
	lastSeq    uint64
	unsorted   bool
}

func (b *bucket) append(r *record) {
	r.next = nil
	if b.tail == nil {
		b.head, b.tail = r, r
	} else {
		if r.seq < b.lastSeq {
			b.unsorted = true
		}
		b.tail.next = r
		b.tail = r
	}
	b.lastSeq = r.seq
}

// Engine is a deterministic discrete-event simulator clock.
// The zero value is ready to use.
type Engine struct {
	now     Cycle
	seq     uint64
	fired   uint64
	pending int
	stopped bool

	// wheelBase is the 256-aligned cursor the wheel windows derive from.
	// Invariant: every record stored in the wheel or overflow has
	// at >= wheelBase; records scheduled behind the cursor (possible
	// after a cascade advanced it past now) go to the sorted front list,
	// which pop drains first.
	wheelBase Cycle
	wheel     [wheelLevels][wheelSlots]bucket
	occ       [wheelLevels][wheelWords]uint64

	front    sortedList // at < wheelBase, sorted by (at, seq)
	overflow sortedList // beyond the wheel horizon, sorted by (at, seq)

	free    *record   // recycled event records
	scratch []*record // reusable buffer for re-sorting flagged buckets
}

// sortedList is a sorted (at, seq) queue in struct-of-arrays form: the
// sort keys live in their own dense columns, so the binary search and
// the refill prefix scan read contiguous integers instead of chasing a
// record pointer per comparison; the record pointers are the cold
// payload column, touched only on insert and pop. Front and overflow
// lists are short in practice (front only exists after cascades outran
// the clock; overflow holds coarse far-out events like telemetry
// epochs), so the insertion copies are cheap and the column capacities
// are reused across the run.
type sortedList struct {
	at   []Cycle
	seq  []uint64
	recs []*record
}

func (q *sortedList) len() int { return len(q.recs) }

// insert places r by binary search over the key columns.
func (q *sortedList) insert(r *record) {
	lo, hi := 0, len(q.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.at[mid] < r.at || (q.at[mid] == r.at && q.seq[mid] < r.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.at = append(q.at, 0)
	copy(q.at[lo+1:], q.at[lo:])
	q.at[lo] = r.at
	q.seq = append(q.seq, 0)
	copy(q.seq[lo+1:], q.seq[lo:])
	q.seq[lo] = r.seq
	q.recs = append(q.recs, nil)
	copy(q.recs[lo+1:], q.recs[lo:])
	q.recs[lo] = r
}

// popFront removes and returns the earliest record.
func (q *sortedList) popFront() *record {
	r := q.recs[0]
	q.dropFront(1)
	return r
}

// dropFront removes the first n elements from all three columns.
func (q *sortedList) dropFront(n int) {
	m := copy(q.at, q.at[n:])
	q.at = q.at[:m]
	copy(q.seq, q.seq[n:])
	q.seq = q.seq[:m]
	copy(q.recs, q.recs[n:])
	for i := m; i < len(q.recs); i++ {
		q.recs[i] = nil
	}
	q.recs = q.recs[:m]
}

// drain recycles every queued record through fn and empties the list,
// retaining the column capacities.
func (q *sortedList) drain(fn func(*record)) {
	for i, r := range q.recs {
		fn(r)
		q.recs[i] = nil
	}
	q.at = q.at[:0]
	q.seq = q.seq[:0]
	q.recs = q.recs[:0]
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.pending }

// At registers fn to run at absolute cycle at and returns a Handle that
// can cancel it. Scheduling in the past (at < Now) panics: it is always a
// component bug, and silently reordering time would corrupt the
// simulation.
func (e *Engine) At(at Cycle, fn Func) Handle {
	if fn == nil {
		panic("event: At called with nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d in the past (now %d)", at, e.now))
	}
	e.seq++
	r := e.newRecord()
	r.at, r.seq, r.fn = at, e.seq, fn
	e.pending++
	e.place(r)
	return Handle{e: e, r: r, gen: r.gen}
}

// After registers fn to run delta cycles from now and returns a Handle
// that can cancel it.
func (e *Engine) After(delta Cycle, fn Func) Handle {
	return e.At(e.now+delta, fn)
}

// drain returns the engine to its power-on state in O(pending) time —
// the first step of Restore: every queued record (live or canceled) is
// recycled into the free list with its generation bumped, so stale
// Handles held by clients become inert, and the clock, sequence
// counter, fired count and wheel cursor return to zero. The record
// arena and scratch buffers are retained, so a drained engine schedules
// with zero allocations from the first event. Only occupied wheel slots
// are visited (found via the occupancy bitmaps); the 768 empty buckets
// of a drained wheel cost nothing.
func (e *Engine) drain() {
	for level := 0; level < wheelLevels; level++ {
		for w := range e.occ[level] {
			word := e.occ[level][w]
			for word != 0 {
				slot := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b := &e.wheel[level][slot]
				for r := b.head; r != nil; {
					next := r.next
					e.recycle(r)
					r = next
				}
				b.head, b.tail, b.lastSeq, b.unsorted = nil, nil, 0, false
			}
			e.occ[level][w] = 0
		}
	}
	e.front.drain(e.recycle)
	e.overflow.drain(e.recycle)
	e.now, e.seq, e.fired = 0, 0, 0
	e.pending, e.stopped, e.wheelBase = 0, false, 0
}

func (e *Engine) newRecord() *record {
	r := e.free
	if r == nil {
		chunk := make([]record, arenaChunk)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		r = &chunk[0]
	}
	e.free = r.next
	r.next = nil
	return r
}

func (e *Engine) recycle(r *record) {
	r.fn = nil
	r.canceled = false
	r.gen++
	r.next = e.free
	e.free = r
}

// place routes a record to the front list, a wheel slot, or the overflow.
func (e *Engine) place(r *record) {
	if r.at < e.wheelBase {
		e.front.insert(r)
		return
	}
	e.placeWheel(r)
}

// placeWheel stores a record with at >= wheelBase into the innermost
// wheel level whose aligned window contains it, or the overflow list.
func (e *Engine) placeWheel(r *record) {
	base := e.wheelBase
	switch {
	case r.at>>wheelBits == base>>wheelBits:
		e.push(0, int(r.at&wheelMask), r)
	case r.at>>(2*wheelBits) == base>>(2*wheelBits):
		e.push(1, int(r.at>>wheelBits)&wheelMask, r)
	case r.at>>(3*wheelBits) == base>>(3*wheelBits):
		e.push(2, int(r.at>>(2*wheelBits))&wheelMask, r)
	default:
		e.overflow.insert(r)
	}
}

func (e *Engine) push(level, slot int, r *record) {
	e.wheel[level][slot].append(r)
	e.occ[level][slot>>6] |= 1 << (uint(slot) & 63)
}

// firstOccupied returns the lowest occupied slot index at the given
// level, or -1.
func (e *Engine) firstOccupied(level int) int {
	for w, word := range &e.occ[level] {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// pop removes and returns the earliest live record, sweeping out canceled
// ones, or returns nil when nothing is pending.
func (e *Engine) pop() *record {
	for {
		r := e.popAny()
		if r == nil {
			return nil
		}
		if r.canceled {
			e.recycle(r)
			continue
		}
		return r
	}
}

// popAny removes the earliest record (canceled or not), cascading outer
// wheel levels and the overflow list inward as needed. The strict level
// ordering (every front record < every level-0 record < every level-1
// record < ... < every overflow record) follows from the aligned-window
// placement rule, so consulting the structures in that order yields the
// global (at, seq) minimum.
func (e *Engine) popAny() *record {
	for {
		if e.front.len() > 0 {
			return e.front.popFront()
		}
		if slot := e.firstOccupied(0); slot >= 0 {
			return e.takeHead(slot)
		}
		if slot := e.firstOccupied(1); slot >= 0 {
			e.wheelBase = e.wheelBase&^(1<<(2*wheelBits)-1) | Cycle(slot)<<wheelBits
			e.cascade(1, slot)
			continue
		}
		if slot := e.firstOccupied(2); slot >= 0 {
			e.wheelBase = e.wheelBase&^(1<<(3*wheelBits)-1) | Cycle(slot)<<(2*wheelBits)
			e.cascade(2, slot)
			continue
		}
		if e.overflow.len() > 0 {
			e.refill()
			continue
		}
		return nil
	}
}

// cascade drains a level-1 or level-2 slot and re-places its records
// against the just-advanced wheelBase; they land in inner (more precise)
// levels, which are empty at this point, so list order — already
// per-cycle FIFO — is preserved.
func (e *Engine) cascade(level, slot int) {
	b := &e.wheel[level][slot]
	r := b.head
	b.head, b.tail, b.lastSeq, b.unsorted = nil, nil, 0, false
	e.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	for r != nil {
		next := r.next
		e.placeWheel(r)
		r = next
	}
}

// refill advances wheelBase to the first overflow record's window and
// moves every overflow record sharing that top-level window into the
// (entirely empty) wheel. The prefix scan runs over the dense at column
// alone — no record is touched until it is actually re-placed.
func (e *Engine) refill() {
	top := e.overflow.at[0] >> (wheelLevels * wheelBits)
	e.wheelBase = e.overflow.at[0] &^ wheelMask
	n := 0
	for n < e.overflow.len() && e.overflow.at[n]>>(wheelLevels*wheelBits) == top {
		n++
	}
	for _, r := range e.overflow.recs[:n] {
		e.placeWheel(r)
	}
	e.overflow.dropFront(n)
}

// takeHead pops the head of a level-0 slot, re-sorting the bucket by
// sequence first if appends arrived out of order (level-0 buckets hold a
// single cycle, so sequence order is the full FIFO order).
func (e *Engine) takeHead(slot int) *record {
	b := &e.wheel[0][slot]
	if b.unsorted {
		e.sortBucket(b)
	}
	r := b.head
	b.head = r.next
	if b.head == nil {
		b.tail = nil
		b.lastSeq = 0
		e.occ[0][slot>>6] &^= 1 << (uint(slot) & 63)
	}
	r.next = nil
	return r
}

func (e *Engine) sortBucket(b *bucket) {
	s := e.scratch[:0]
	for r := b.head; r != nil; r = r.next {
		s = append(s, r)
	}
	// Insertion sort: flagged buckets are rare and nearly sorted.
	for i := 1; i < len(s); i++ {
		r := s[i]
		j := i - 1
		for j >= 0 && s[j].seq > r.seq {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = r
	}
	for i := 0; i < len(s)-1; i++ {
		s[i].next = s[i+1]
	}
	last := s[len(s)-1]
	last.next = nil
	b.head, b.tail = s[0], last
	b.lastSeq = last.seq
	b.unsorted = false
	e.scratch = s
}

// fire advances the clock to the record's cycle and runs its callback.
// The record is recycled before the callback runs, so a callback that
// immediately reschedules (the typical chained-event pattern) reuses the
// very record that just fired — zero allocations in steady state.
func (e *Engine) fire(r *record) {
	e.now = r.at
	e.fired++
	e.pending--
	fn := r.fn
	e.recycle(r)
	fn()
}

// Step executes the single earliest pending event, advancing the clock to
// its cycle. It reports whether an event was executed.
func (e *Engine) Step() bool {
	r := e.pop()
	if r == nil {
		return false
	}
	e.fire(r)
	return true
}

// RunUntil executes events until none are pending or the next event is
// scheduled after the limit cycle. The clock never advances past limit.
func (e *Engine) RunUntil(limit Cycle) {
	e.stopped = false
	for !e.stopped {
		r := e.pop()
		if r == nil {
			break
		}
		if r.at > limit {
			// Put it back: it fires on a later run. Re-placing may
			// append behind same-cycle records with higher sequence
			// numbers; the bucket sort flag restores FIFO order then.
			e.place(r)
			break
		}
		e.fire(r)
	}
	if e.now < limit && !e.stopped {
		e.now = limit
	}
}

// Run executes events until none are pending or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		r := e.pop()
		if r == nil {
			return
		}
		e.fire(r)
	}
}

// Stop makes the current Run or RunUntil return after the in-flight
// event completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Every schedules fn to run every period cycles, first firing period
// cycles from now, until the returned cancel function is called. It is
// the epoch hook the telemetry sampler uses: the callback runs like any
// other event (so same-cycle ordering stays deterministic), and because
// rescheduling happens before fn, fn may inspect but must not mutate
// simulation state if the run's results are to stay unperturbed.
//
// Note that a live periodic event keeps the engine non-empty, so Run
// only returns via Stop while one is active; cancel before relying on
// queue drain.
func (e *Engine) Every(period Cycle, fn Func) (cancel func()) {
	if period == 0 {
		panic("event: Every with zero period")
	}
	active := true
	var tick Func
	tick = func() {
		if !active {
			return
		}
		e.After(period, tick)
		fn()
	}
	e.After(period, tick)
	return func() { active = false }
}

// Ticker invokes a callback every Period cycles while active. It is the
// building block for components with per-cycle work (e.g. cache ports,
// the DRAM command scheduler) that want to avoid scheduling events during
// idle stretches: the component arms the ticker only while it has work.
type Ticker struct {
	Engine *Engine
	Period Cycle
	Tick   Func
	armed  bool
	tickFn Func // bound once so re-arming never allocates
}

// Arm starts the ticker if it is not already running. The first tick
// fires Period cycles from now.
func (t *Ticker) Arm() {
	if t.armed {
		return
	}
	if t.Period == 0 {
		panic("event: Ticker with zero period")
	}
	if t.tickFn == nil {
		t.tickFn = t.tick
	}
	t.armed = true
	t.Engine.After(t.Period, t.tickFn)
}

// Armed reports whether the ticker is currently scheduled.
func (t *Ticker) Armed() bool { return t.armed }

// Disarm stops future ticks. A tick already scheduled for this period
// still fires but is ignored.
func (t *Ticker) Disarm() { t.armed = false }

func (t *Ticker) tick() {
	if !t.armed {
		return
	}
	t.armed = false
	t.Tick()
	// Tick may re-arm; if it did not, the ticker stays idle.
}
