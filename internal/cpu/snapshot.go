package cpu

import (
	"dbisim/internal/addr"
	"dbisim/internal/cache"
	"dbisim/internal/event"
	"dbisim/internal/trace"
)

// slotState records one in-flight load by its position in the core's
// slot registry: the pooled record itself stays put (a pending L1/L2
// completion event may hold its prebound callback), only its contents
// are saved and written back.
type slotState struct {
	id   int32
	seq  uint64
	done bool
}

// sharedState records one outstanding shared-level fetch, waiter list
// included. Waiter callbacks are either a registered slot's prebound fn
// or nil (stores), so copying the func values is safe: they reference
// pooled records that survive in place across Restore.
type sharedState struct {
	id      int32
	b       addr.BlockAddr
	start   event.Cycle
	waiters []sharedWaiter
}

// State is a checkpoint of a Core: both private cache levels, the issue
// pipeline (window, stall, deferred record), the in-flight load window
// in order, the outstanding shared-fetch table, budget state and
// statistics. The zero value is ready; buffers are reused across
// captures.
type State struct {
	l1, l2 cache.CacheState

	issued        uint64
	issuedAtStart uint64
	stalled       bool
	stallAt       event.Cycle
	deferred      trace.Record
	stopped       bool

	inflight []slotState
	shared   []sharedState

	budget     uint64
	done       bool
	startCycle event.Cycle
	doneCycle  event.Cycle

	stat Stats
}

// Snapshot captures the core into st. The budget callback (onDone) is
// deliberately not saved: a checkpoint is taken at a quiescent point,
// and the run that follows a restore installs its own through Start.
func (c *Core) Snapshot(st *State) {
	c.l1.Snapshot(&st.l1)
	c.l2.Snapshot(&st.l2)
	st.issued = c.issued
	st.issuedAtStart = c.issuedAtStart
	st.stalled = c.stalled
	st.stallAt = c.stallAt
	st.deferred = c.deferred
	st.stopped = c.stopped

	st.inflight = st.inflight[:0]
	for _, s := range c.inflight {
		st.inflight = append(st.inflight, slotState{s.id, s.seq, s.done})
	}
	st.shared = st.shared[:0]
	for _, r := range c.outstanding {
		i := len(st.shared)
		st.shared = append(st.shared, sharedState{id: r.id, b: r.b, start: r.start})
		st.shared[i].waiters = append(st.shared[i].waiters, r.waiters...)
	}

	st.budget = c.budget
	st.done = c.done
	st.startCycle = c.startCycle
	st.doneCycle = c.doneCycle
	st.stat = c.Stat
}

// Restore writes st back into the core that produced it (the pooled
// records referenced by id live in this core's registries). The free
// lists are rebuilt from the registries in registry order, which may
// differ from the captured lists' order — harmless, because records are
// fully re-initialized on allocation.
func (c *Core) Restore(st *State) {
	c.l1.Restore(&st.l1)
	c.l2.Restore(&st.l2)
	c.issued = st.issued
	c.issuedAtStart = st.issuedAtStart
	c.stalled = st.stalled
	c.stallAt = st.stallAt
	c.deferred = st.deferred
	c.stopped = st.stopped

	for _, s := range c.slotAll {
		s.live = false
	}
	c.inflight = c.inflight[:0]
	for _, ss := range st.inflight {
		s := c.slotAll[ss.id]
		s.live = true
		s.seq, s.done = ss.seq, ss.done
		c.inflight = append(c.inflight, s)
	}
	c.slotFree = nil
	for i := len(c.slotAll) - 1; i >= 0; i-- {
		if s := c.slotAll[i]; !s.live {
			s.next = c.slotFree
			c.slotFree = s
		} else {
			s.next = nil
		}
	}

	// Recycle every waiter slice first, then hand them back to the live
	// records, so restore allocates only when the snapshot holds more
	// concurrently-outstanding fetches than this core ever had.
	for _, r := range c.sharedAll {
		r.live = false
		if r.waiters != nil {
			for i := range r.waiters {
				r.waiters[i] = sharedWaiter{}
			}
			c.swFree = append(c.swFree, r.waiters[:0])
			r.waiters = nil
		}
	}
	clear(c.outstanding)
	for _, rs := range st.shared {
		r := c.sharedAll[rs.id]
		r.live = true
		r.b, r.start = rs.b, rs.start
		if n := len(c.swFree); n > 0 {
			r.waiters = c.swFree[n-1]
			c.swFree = c.swFree[:n-1]
		}
		r.waiters = append(r.waiters, rs.waiters...)
		c.outstanding[r.b] = r
	}
	c.sharedFree = nil
	for i := len(c.sharedAll) - 1; i >= 0; i-- {
		if r := c.sharedAll[i]; !r.live {
			r.next = c.sharedFree
			c.sharedFree = r
		} else {
			r.next = nil
		}
	}

	c.budget = st.budget
	c.onDone = nil
	c.done = st.done
	c.startCycle = st.startCycle
	c.doneCycle = st.doneCycle
	c.Stat = st.stat
}
