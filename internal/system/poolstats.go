package system

import (
	"sync/atomic"

	"dbisim/internal/telemetry"
)

// PoolCounters aggregates the sweeps' reuse decisions process-wide.
// A Memo lives only as long as its sweep, so the usable ops-plane
// signal is the sum over all of them: every Memo increments these
// shared atomics as it answers cells. Increments are one atomic add
// per cell — never on a simulated hot path — so they are always on:
// zero allocation, no measurable cost, and no effect on simulated
// Results.
type PoolCounters struct {
	// Rebuilds counts simulated cells: cells that built a fresh System
	// and ran it.
	Rebuilds atomic.Uint64
	// CkptHits counts reused cells: cells whose identity equalled an
	// earlier cell's of the same sweep and got a copy of its Results.
	// The name is kept for the benchmark harness and the ops plane that
	// read it.
	CkptHits atomic.Uint64
}

// PoolStat is the process-wide instance every Memo increments.
var PoolStat PoolCounters

// PoolSnapshot is a plain-value copy of PoolCounters, for before/after
// deltas (the dbibench per-sweep summary line) and for JSON serving
// (the ops plane's /sweep document).
type PoolSnapshot struct {
	Rebuilds uint64 `json:"rebuilds"`  // simulated cells
	CkptHits uint64 `json:"ckpt_hits"` // reused cells

	// Resets, ResetRefusals and the Refused* fields are always zero:
	// no machine is reset and nothing refuses a cell any more. They
	// stay, unserved, until the benchmark harness that reads them
	// changes.
	Resets          uint64 `json:"-"`
	ResetRefusals   uint64 `json:"-"`
	RefusedDisabled uint64 `json:"-"`
	RefusedRestore  uint64 `json:"-"`
	RefusedSnapshot uint64 `json:"-"`
	RefusedWarmup   uint64 `json:"-"`
	RefusedOverhang uint64 `json:"-"`
}

// Snapshot reads every counter once. Reads are individually atomic but
// not mutually consistent, which is fine for monitoring deltas.
func (c *PoolCounters) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Rebuilds: c.Rebuilds.Load(),
		CkptHits: c.CkptHits.Load(),
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s PoolSnapshot) Sub(prev PoolSnapshot) PoolSnapshot {
	return PoolSnapshot{
		Rebuilds: s.Rebuilds - prev.Rebuilds,
		CkptHits: s.CkptHits - prev.CkptHits,
	}
}

// CkptHitRate returns the share of the snapshot's cells that were
// reused, or 0 when none ran.
func (s PoolSnapshot) CkptHitRate() float64 {
	cells := s.CkptHits + s.Rebuilds
	if cells == 0 {
		return 0
	}
	return float64(s.CkptHits) / float64(cells)
}

// RegisterPoolMetrics adds the pool counters to a telemetry registry
// under the pool.* / fork.* names documented in DESIGN.md §10. All
// probes read atomics, so the registry is safe to serve live.
func RegisterPoolMetrics(reg *telemetry.Registry) {
	c := &PoolStat
	reg.Counter("pool.rebuilds", c.Rebuilds.Load)
	reg.Counter("fork.ckpt_hits", c.CkptHits.Load)
}

// poolHookFn receives one reuse decision: a worker lane (always -1,
// the control lane, since no sweep worker owns a Memo), a kind tag
// ("reuse" or "rebuild") and a detail string (always empty).
type poolHookFn func(worker int, kind, detail string)

var poolHook atomic.Pointer[poolHookFn]

// SetPoolEventHook installs (or, with nil, removes) the process-wide
// observer for pool decisions — the ops plane's flight recorder.
// When no hook is installed the emit path is one atomic pointer load,
// so the disabled cost is nil-check cheap and allocation-free.
func SetPoolEventHook(fn func(worker int, kind, detail string)) {
	if fn == nil {
		poolHook.Store(nil)
		return
	}
	h := poolHookFn(fn)
	poolHook.Store(&h)
}

// poolEvent emits one decision to the installed hook, if any.
func poolEvent(kind string) {
	if h := poolHook.Load(); h != nil {
		(*h)(-1, kind, "")
	}
}
