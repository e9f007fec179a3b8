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
