package cache

import (
	"dbisim/internal/event"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// Port models a contended, non-pipelined lookup port (the shared L3 tag
// store port in the paper). Operations occupy the port for their full
// duration; queued demand operations always dispatch before queued
// background (filler) operations, but an operation in flight is never
// preempted — exactly the arbitration footnote 4 of the paper describes
// for aggressive-writeback lookups.
type Port struct {
	Eng *event.Engine
	// Attr, when set, receives the llc_port domain total: every
	// submitted operation's duration, charged at Submit. The port is
	// the single funnel for tag-store occupancy, so callers charging
	// per-purpose categories at their Submit sites reconcile exactly
	// against this total.
	Attr *telemetry.Attribution

	busy       bool
	demand     []portOp
	background []portOp
	curDone    func()     // completion callback of the op in flight
	completeFn event.Func // bound once so dispatch never allocates

	// Stats for contention analysis.
	BusyCycles    stats.Counter
	DemandOps     stats.Counter
	BackgroundOps stats.Counter
	QueueDelay    stats.Counter // summed cycles ops waited before dispatch
}

type portOp struct {
	dur      event.Cycle
	enqueued event.Cycle
	done     func()
}

// Submit queues an operation of the given duration. done runs when the
// operation completes. Background ops yield to demand ops at dispatch.
func (p *Port) Submit(background bool, dur event.Cycle, done func()) {
	p.Attr.ChargeDomain(telemetry.DomLLCPort, uint64(dur))
	op := portOp{dur: dur, enqueued: p.Eng.Now(), done: done}
	if background {
		p.background = append(p.background, op)
	} else {
		p.demand = append(p.demand, op)
	}
	p.dispatch()
}

// QueueLen reports queued (not in-flight) operations.
func (p *Port) QueueLen() int { return len(p.demand) + len(p.background) }

// Busy reports whether an operation is in flight.
func (p *Port) Busy() bool { return p.busy }

func (p *Port) dispatch() {
	if p.busy {
		return
	}
	var op portOp
	switch {
	case len(p.demand) > 0:
		op = p.demand[0]
		copy(p.demand, p.demand[1:])
		p.demand = p.demand[:len(p.demand)-1]
		p.DemandOps.Inc()
	case len(p.background) > 0:
		op = p.background[0]
		copy(p.background, p.background[1:])
		p.background = p.background[:len(p.background)-1]
		p.BackgroundOps.Inc()
	default:
		return
	}
	p.busy = true
	p.QueueDelay.Add(uint64(p.Eng.Now() - op.enqueued))
	p.BusyCycles.Add(uint64(op.dur))
	p.curDone = op.done
	if p.completeFn == nil {
		p.completeFn = p.complete
	}
	p.Eng.After(op.dur, p.completeFn)
}

// complete finishes the in-flight operation and dispatches the next.
// The in-flight callback is held on the port (one op is in flight at a
// time) rather than captured in a closure, keeping dispatch
// allocation-free.
func (p *Port) complete() {
	done := p.curDone
	p.curDone = nil
	p.busy = false
	if done != nil {
		done()
	}
	p.dispatch()
}

// RegisterMetrics adds the port's contention probes under the given
// name prefix (e.g. "llc.port").
func (p *Port) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.CounterStat(prefix+".busy_cycles", &p.BusyCycles)
	reg.CounterStat(prefix+".demand_ops", &p.DemandOps)
	reg.CounterStat(prefix+".background_ops", &p.BackgroundOps)
	reg.CounterStat(prefix+".queue_delay", &p.QueueDelay)
	reg.Gauge(prefix+".queue_len", func() float64 { return float64(p.QueueLen()) })
}

// MSHR tracks outstanding misses so that requests to the same block merge
// instead of issuing duplicate fills.
//
// The file is hardware-shaped rather than map-backed: a fixed slab of
// capacity entries threaded on an intrusive free list, indexed by an
// open-addressed, linear-probed table sized to at most 25% load. The
// probe plane is two parallel dense columns — the occupancy/index word
// and the block key — so a probe compares contiguous uint64 keys
// without dereferencing into the entry slab; the slab holds only cold
// payload (free-list links, waiter slices). Waiter slices are recycled
// through a small pool, so the steady state neither allocates nor
// hashes through the Go runtime.
type MSHR struct {
	capacity int
	n        int         // live entries
	entries  []mshrEntry // fixed slab, len == capacity
	freeHead int32       // head of the free list through entries, -1 = none
	table    []int32     // probe array: 0 = empty, else entry index + 1
	keys     []uint64    // block key per occupied slot, parallel to table
	mask     uint64
	wsFree   [][]func() // recycled waiter slices (capacity retained)
}

type mshrEntry struct {
	next    int32 // free-list link
	waiters []func()
}

// mshrHashMul is the 64-bit Fibonacci-hashing multiplier (2^64/φ, odd).
const mshrHashMul = 0x9E3779B97F4A7C15

// NewMSHR returns an MSHR file with the given capacity.
func NewMSHR(capacity int) *MSHR {
	size := uint64(8)
	for size < 4*uint64(max(capacity, 1)) {
		size <<= 1
	}
	m := &MSHR{
		capacity: capacity,
		entries:  make([]mshrEntry, capacity),
		freeHead: -1,
		table:    make([]int32, size),
		keys:     make([]uint64, size),
		mask:     size - 1,
	}
	for i := range m.entries {
		m.entries[i].next = int32(i) + 1
	}
	if capacity > 0 {
		m.entries[capacity-1].next = -1
		m.freeHead = 0
	}
	return m
}

// findSlot probes for block. It returns the matching table slot and
// entry index, or (first empty slot, -1) when the block is absent. The
// probe loop reads only the two dense columns: occupancy from table,
// the key compare from keys — the entry slab is untouched.
func (m *MSHR) findSlot(block uint64) (slot uint64, idx int32) {
	i := (block * mshrHashMul) & m.mask
	for m.table[i] != 0 {
		if m.keys[i] == block {
			return i, m.table[i] - 1
		}
		i = (i + 1) & m.mask
	}
	return i, -1
}

// Len reports outstanding entries.
func (m *MSHR) Len() int { return m.n }

// Full reports whether a new (non-merging) allocation would exceed
// capacity.
func (m *MSHR) Full() bool { return m.n >= m.capacity }

// Register adds a waiter for a block. It reports whether this is the
// first (allocating) request, i.e. the caller must issue the fill.
// Registering a new block on a full MSHR panics; callers must check Full
// and stall instead.
func (m *MSHR) Register(block uint64, wake func()) (first bool) {
	slot, idx := m.findSlot(block)
	if idx >= 0 {
		e := &m.entries[idx]
		e.waiters = append(e.waiters, wake)
		return false
	}
	if m.Full() {
		panic("cache: MSHR overflow; caller must stall on Full()")
	}
	idx = m.freeHead
	e := &m.entries[idx]
	m.freeHead = e.next
	if n := len(m.wsFree); e.waiters == nil && n > 0 {
		e.waiters = m.wsFree[n-1]
		m.wsFree[n-1] = nil
		m.wsFree = m.wsFree[:n-1]
	}
	e.waiters = append(e.waiters, wake)
	m.table[slot] = idx + 1
	m.keys[slot] = block
	m.n++
	return true
}

// Outstanding reports whether the block has an MSHR entry.
func (m *MSHR) Outstanding(block uint64) bool {
	_, idx := m.findSlot(block)
	return idx >= 0
}

// Complete releases the entry for a block and runs all waiters in
// registration order. The entry is freed before the waiters run, so a
// waiter may re-register the same block (taking a fresh entry) without
// observing a phantom outstanding miss.
func (m *MSHR) Complete(block uint64) {
	slot, idx := m.findSlot(block)
	if idx < 0 {
		return
	}
	e := &m.entries[idx]
	ws := e.waiters
	e.waiters = nil
	e.next = m.freeHead
	m.freeHead = idx
	m.n--
	m.deleteSlot(slot)
	for _, w := range ws {
		if w != nil {
			w()
		}
	}
	m.wsFree = append(m.wsFree, ws[:0])
}

// deleteSlot removes table slot i with the backward-shift technique for
// linear probing: subsequent cluster members whose home slot lies at or
// before the vacated position are shifted back, so no tombstones are
// needed and probe chains never grow stale.
func (m *MSHR) deleteSlot(i uint64) {
	for {
		m.table[i] = 0
		m.keys[i] = 0
		j := i
		for {
			j = (j + 1) & m.mask
			if m.table[j] == 0 {
				return
			}
			home := (m.keys[j] * mshrHashMul) & m.mask
			if (j-home)&m.mask >= (j-i)&m.mask {
				m.table[i] = m.table[j]
				m.keys[i] = m.keys[j]
				i = j
				break
			}
		}
	}
}
