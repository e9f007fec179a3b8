package event

import "math/bits"

// EngineState is a checkpoint of an Engine: the clock, the counters the
// determinism contract depends on (sequence numbers, fired count), and
// every live pending event as an (at, seq, fn) triple. The callbacks
// are captured as function values, so a checkpoint is only meaningful
// for restoring into the same component graph that scheduled them —
// the closures reference pooled records and prebound methods of those
// very components. The system layer enforces that ownership rule.
//
// The zero value is ready; Snapshot reuses the event buffer across
// captures, so steady-state checkpointing does not allocate.
type EngineState struct {
	now       Cycle
	seq       uint64
	fired     uint64
	stopped   bool
	wheelBase Cycle
	events    []eventState
}

type eventState struct {
	at  Cycle
	seq uint64
	fn  Func
}

// Pending reports how many live events the checkpoint holds.
func (st *EngineState) Pending() int { return len(st.events) }

// Snapshot captures the engine's clock and pending schedule into st.
// Canceled records are skipped — they are behaviorally inert and would
// only be swept out by pop anyway. The walk visits occupied wheel slots
// via the occupancy bitmaps, so its cost is O(pending), not O(wheel).
func (e *Engine) Snapshot(st *EngineState) {
	st.now, st.seq, st.fired = e.now, e.seq, e.fired
	st.stopped = e.stopped
	st.wheelBase = e.wheelBase
	st.events = st.events[:0]
	add := func(r *record) {
		if !r.canceled {
			st.events = append(st.events, eventState{r.at, r.seq, r.fn})
		}
	}
	for _, r := range e.front.recs {
		add(r)
	}
	for level := 0; level < wheelLevels; level++ {
		for w := range e.occ[level] {
			word := e.occ[level][w]
			for word != 0 {
				slot := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				for r := e.wheel[level][slot].head; r != nil; r = r.next {
					add(r)
				}
			}
		}
	}
	for _, r := range e.overflow.recs {
		add(r)
	}
}

// Restore rewinds the engine to the checkpoint: the current schedule is
// drained (its records recycled, so stale Handles go inert), the clock, sequence and fired counters come back, and the
// saved events re-enter the wheel against the saved cursor with their
// original sequence numbers. Because events fire in global (at, seq)
// order regardless of which wheel structure holds them, the restored
// engine fires the identical event sequence the snapshotted one would
// have — the property the system snapshot replay tests pin.
func (e *Engine) Restore(st *EngineState) {
	e.drain()
	e.now, e.seq, e.fired = st.now, st.seq, st.fired
	e.stopped = st.stopped
	e.wheelBase = st.wheelBase
	e.pending = len(st.events)
	for i := range st.events {
		ev := &st.events[i]
		r := e.newRecord()
		r.at, r.seq, r.fn = ev.at, ev.seq, ev.fn
		e.place(r)
	}
}
