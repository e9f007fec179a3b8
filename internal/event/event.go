// Package event provides the deterministic event-driven simulation engine
// that drives every timed component in the simulator (cores, caches, the
// DBI, the memory controller).
//
// The engine maintains a virtual clock measured in CPU cycles and fires
// scheduled callbacks in time order. Events are scheduled with At
// (absolute cycle) or After (relative delta).
//
// # Determinism contract
//
// Events fire in strictly non-decreasing cycle order, and events scheduled
// for the same cycle fire in the exact order they were scheduled
// (same-cycle FIFO). This total order — (cycle, schedule sequence) — is
// the contract every component relies on for reproducible simulations:
// two runs with the same configuration and seed produce bit-identical
// results. Internally each event carries a monotonically increasing
// sequence number, and the next event is always the (cycle, sequence)
// minimum of everything pending.
//
// # Layout
//
// An event due less than 256 cycles ahead goes to a ring of 256
// one-cycle FIFO slots (slot = cycle mod 256) with a 4-word occupancy
// bitmap; anything further out goes to a far list, a slice sorted by
// (cycle, sequence). Every ring event is due in [now, now+256), so each
// slot holds a single cycle, and since a slot only receives events as
// they are scheduled, it is already in sequence order. The next event is
// the earlier of the first occupied slot at or after now (wrapping) and
// the far list's head. The simulator schedules almost everything 1–255
// cycles ahead (DESIGN §7). Event records come from an internal free
// list, so steady-state scheduling performs zero heap allocations.
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
	ringSlots  = 256
	ringMask   = ringSlots - 1
	ringWords  = ringSlots / 64
	arenaChunk = 256
)

// record is one scheduled event. Records are pooled: after an event fires
// the record returns to the engine's free list.
type record struct {
	at   Cycle
	seq  uint64
	fn   Func
	next *record
}

// before reports whether a fires before b: earlier cycle, then lower
// sequence.
func before(a, b *record) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot is an intrusive FIFO list of the records due in one ring cycle;
// tail is stale once head is nil.
type slot struct {
	head, tail *record
}

// Engine is a deterministic discrete-event simulator clock.
// The zero value is ready to use.
type Engine struct {
	now     Cycle
	seq     uint64
	fired   uint64
	stopped bool

	ring [ringSlots]slot
	occ  [ringWords]uint64
	far  []*record // due at now+ringSlots or later when scheduled, sorted by (at, seq)

	free *record // recycled event records
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At registers fn to run at absolute cycle at. Scheduling in the past
// (at < Now) panics: it is always a component bug, and silently
// reordering time would corrupt the simulation.
func (e *Engine) At(at Cycle, fn Func) {
	if fn == nil {
		panic("event: At called with nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d in the past (now %d)", at, e.now))
	}
	e.seq++
	r := e.newRecord()
	r.at, r.seq, r.fn = at, e.seq, fn
	if at-e.now >= ringSlots {
		e.insertFar(r)
		return
	}
	s := int(at & ringMask)
	b := &e.ring[s]
	if b.head == nil {
		b.head = r
	} else {
		b.tail.next = r
	}
	b.tail = r
	e.occ[s>>6] |= 1 << (uint(s) & 63)
}

// After registers fn to run delta cycles from now.
func (e *Engine) After(delta Cycle, fn Func) {
	e.At(e.now+delta, fn)
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

// insertFar places r in the far list by binary search.
func (e *Engine) insertFar(r *record) {
	lo, hi := 0, len(e.far)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(e.far[mid], r) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.far = append(e.far, nil)
	copy(e.far[lo+1:], e.far[lo:])
	e.far[lo] = r
}

// ringHead returns the first occupied ring slot at or after now's slot,
// wrapping, or -1 if the ring is empty. Every ring record is due in
// [now, now+ringSlots), so scan order is cycle order.
func (e *Engine) ringHead() int {
	s := int(e.now & ringMask)
	w := s >> 6
	if word := e.occ[w] >> (uint(s) & 63); word != 0 {
		return s + bits.TrailingZeros64(word)
	}
	// The last pass revisits word w for the slots below s, which hold
	// the cycles that have wrapped around.
	for i := 1; i <= ringWords; i++ {
		k := (w + i) & (ringWords - 1)
		if word := e.occ[k]; word != 0 {
			return k<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// next returns the earliest pending record without removing it, or nil
// when nothing is pending.
func (e *Engine) next() *record {
	var r *record
	if s := e.ringHead(); s >= 0 {
		r = e.ring[s].head
	}
	if len(e.far) > 0 && (r == nil || before(e.far[0], r)) {
		r = e.far[0]
	}
	return r
}

// fire removes r, the record next returned, advances the clock to its
// cycle and runs its callback. The record is recycled before the
// callback runs, so a callback that immediately reschedules (the typical
// chained-event pattern) reuses the very record that just fired — zero
// allocations in steady state.
func (e *Engine) fire(r *record) {
	if len(e.far) > 0 && e.far[0] == r {
		e.far = e.far[:copy(e.far, e.far[1:])]
	} else {
		s := int(r.at & ringMask)
		e.ring[s].head = r.next
		if r.next == nil {
			e.occ[s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	e.now = r.at
	e.fired++
	fn := r.fn
	r.fn = nil
	r.next = e.free
	e.free = r
	fn()
}

// Step executes the single earliest pending event, advancing the clock to
// its cycle. It reports whether an event was executed.
func (e *Engine) Step() bool {
	r := e.next()
	if r == nil {
		return false
	}
	e.fire(r)
	return true
}

// Run executes events until none are pending or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run return after the in-flight event
// completes. Pending events remain queued.
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
