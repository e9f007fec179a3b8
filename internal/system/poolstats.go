package system

import (
	"sync/atomic"

	"dbisim/internal/telemetry"
)

// PoolCounters aggregates the fork scheduler's decisions process-wide.
// Pools are per-worker and short-lived, so the usable ops-plane signal
// is the sum over all of them: every ForkPool increments these shared
// atomics as it runs cells. Increments are one
// atomic add per cell-level decision — never on a simulated hot path —
// so they are always on: zero allocation, no measurable cost, and no
// effect on simulated Results.
//
// The counters make the previously invisible policy machinery
// observable: whether cells are being forked from checkpoints, reset in
// place, or rebuilt from scratch; whether the machine/checkpoint LRUs
// are thrashing (the +64% bytes/cell casestudy regression of PR 6 was
// exactly an eviction storm these would have shown live); and why the
// fork scheduler refuses cells when it does.
type PoolCounters struct {
	// Resets counts cells that reset a pooled machine to power-on in
	// place: to warm it for a checkpoint, to run an unforked cell, or
	// to rerun an overhang-refused cell.
	Resets atomic.Uint64
	// Rebuilds counts cells that constructed a fresh System because
	// the pool held no machine of the cell's geometry signature.
	Rebuilds atomic.Uint64
	// ResetRefusals is kept for its readers; nothing increments it any
	// more (a pooled machine's Reset only fails on a cell that New
	// would refuse too, and that error is returned).
	ResetRefusals atomic.Uint64

	// CkptHits counts cells measured from a restored warmup checkpoint
	// (the fork fast path: no warmup simulated at all).
	CkptHits atomic.Uint64
	// CkptMisses counts fork-eligible cells that found no usable
	// checkpoint and had to warm a machine themselves.
	CkptMisses atomic.Uint64
	// CkptTaken counts warmup checkpoints successfully captured.
	CkptTaken atomic.Uint64
	// CkptSkipped counts misses that took no checkpoint because none
	// would be forked: no later cell of the sweep shared the warmup key
	// and the machine had not run it before. Such a cell runs whole; it
	// is a miss, not a refusal.
	CkptSkipped atomic.Uint64
	// MachineEvictions counts ForkPool machine-LRU evictions; a high
	// rate relative to CkptHits means the machine cap is thrashing.
	MachineEvictions atomic.Uint64
	// CkptEvictions counts per-machine checkpoint-LRU evictions.
	CkptEvictions atomic.Uint64

	// Adopts / Releases count warmed machine sets moving across sweeps
	// through the process-wide stack; AdoptStackDepth tracks its
	// current occupancy (a gauge).
	Adopts          atomic.Uint64
	Releases        atomic.Uint64
	AdoptStackDepth atomic.Int64

	// Refusal reasons, by kind. Each counts cells the fork scheduler
	// could not serve from a checkpoint and why:
	//
	//   - Disabled: forking was off for the cell (DBISIM_NO_FORK set,
	//     or a zero warmup/measure budget); it ran whole on a reset
	//     pooled machine.
	//   - Restore: a retained checkpoint failed to restore or measure
	//     and was dropped.
	//   - Snapshot: the warmup boundary could not be captured.
	//   - Warmup: RunWarmup refused the phase split; the cell ran whole.
	//   - Overhang: a core issued its full measurement budget during the
	//     warmup overhang, so only a scratch run reproduces the cell.
	RefusedDisabled atomic.Uint64
	RefusedRestore  atomic.Uint64
	RefusedSnapshot atomic.Uint64
	RefusedWarmup   atomic.Uint64
	RefusedOverhang atomic.Uint64
}

// PoolStat is the process-wide instance every pool increments.
var PoolStat PoolCounters

// PoolSnapshot is a plain-value copy of PoolCounters, for before/after
// deltas (the dbibench per-sweep summary line) and for JSON serving
// (the ops plane's /sweep document).
type PoolSnapshot struct {
	Resets           uint64 `json:"resets"`
	Rebuilds         uint64 `json:"rebuilds"`
	ResetRefusals    uint64 `json:"reset_refusals"` // nothing increments it any more
	CkptHits         uint64 `json:"ckpt_hits"`
	CkptMisses       uint64 `json:"ckpt_misses"`
	CkptTaken        uint64 `json:"ckpts_taken"`
	CkptSkipped      uint64 `json:"ckpts_skipped"`
	MachineEvictions uint64 `json:"machine_evictions"`
	CkptEvictions    uint64 `json:"ckpt_evictions"`
	Adopts           uint64 `json:"adopts"`
	Releases         uint64 `json:"releases"`
	RefusedDisabled  uint64 `json:"refused_disabled"`
	RefusedRestore   uint64 `json:"refused_restore"`
	RefusedSnapshot  uint64 `json:"refused_snapshot"`
	RefusedWarmup    uint64 `json:"refused_warmup"`
	RefusedOverhang  uint64 `json:"refused_overhang"`
}

// Snapshot reads every counter once. Reads are individually atomic but
// not mutually consistent, which is fine for monitoring deltas.
func (c *PoolCounters) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Resets:           c.Resets.Load(),
		Rebuilds:         c.Rebuilds.Load(),
		ResetRefusals:    c.ResetRefusals.Load(),
		CkptHits:         c.CkptHits.Load(),
		CkptMisses:       c.CkptMisses.Load(),
		CkptTaken:        c.CkptTaken.Load(),
		CkptSkipped:      c.CkptSkipped.Load(),
		MachineEvictions: c.MachineEvictions.Load(),
		CkptEvictions:    c.CkptEvictions.Load(),
		Adopts:           c.Adopts.Load(),
		Releases:         c.Releases.Load(),
		RefusedDisabled:  c.RefusedDisabled.Load(),
		RefusedRestore:   c.RefusedRestore.Load(),
		RefusedSnapshot:  c.RefusedSnapshot.Load(),
		RefusedWarmup:    c.RefusedWarmup.Load(),
		RefusedOverhang:  c.RefusedOverhang.Load(),
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s PoolSnapshot) Sub(prev PoolSnapshot) PoolSnapshot {
	return PoolSnapshot{
		Resets:           s.Resets - prev.Resets,
		Rebuilds:         s.Rebuilds - prev.Rebuilds,
		ResetRefusals:    s.ResetRefusals - prev.ResetRefusals,
		CkptHits:         s.CkptHits - prev.CkptHits,
		CkptMisses:       s.CkptMisses - prev.CkptMisses,
		CkptTaken:        s.CkptTaken - prev.CkptTaken,
		CkptSkipped:      s.CkptSkipped - prev.CkptSkipped,
		MachineEvictions: s.MachineEvictions - prev.MachineEvictions,
		CkptEvictions:    s.CkptEvictions - prev.CkptEvictions,
		Adopts:           s.Adopts - prev.Adopts,
		Releases:         s.Releases - prev.Releases,
		RefusedDisabled:  s.RefusedDisabled - prev.RefusedDisabled,
		RefusedRestore:   s.RefusedRestore - prev.RefusedRestore,
		RefusedSnapshot:  s.RefusedSnapshot - prev.RefusedSnapshot,
		RefusedWarmup:    s.RefusedWarmup - prev.RefusedWarmup,
		RefusedOverhang:  s.RefusedOverhang - prev.RefusedOverhang,
	}
}

// CkptHitRate returns hits/(hits+misses) over the fork-eligible cells
// in the snapshot, or 0 when none ran.
func (s PoolSnapshot) CkptHitRate() float64 {
	if s.CkptHits+s.CkptMisses == 0 {
		return 0
	}
	return float64(s.CkptHits) / float64(s.CkptHits+s.CkptMisses)
}

// RegisterPoolMetrics adds the pool/fork counters to a telemetry
// registry under the pool.* / fork.* names documented in DESIGN.md §10.
// All probes read atomics, so the registry is safe to serve live.
func RegisterPoolMetrics(reg *telemetry.Registry) {
	c := &PoolStat
	reg.Counter("pool.resets", c.Resets.Load)
	reg.Counter("pool.rebuilds", c.Rebuilds.Load)
	reg.Counter("pool.reset_refusals", c.ResetRefusals.Load)
	reg.Counter("fork.ckpt_hits", c.CkptHits.Load)
	reg.Counter("fork.ckpt_misses", c.CkptMisses.Load)
	reg.Counter("fork.ckpts_taken", c.CkptTaken.Load)
	reg.Counter("fork.ckpts_skipped", c.CkptSkipped.Load)
	reg.Counter("fork.machine_evictions", c.MachineEvictions.Load)
	reg.Counter("fork.ckpt_evictions", c.CkptEvictions.Load)
	reg.Counter("fork.adopts", c.Adopts.Load)
	reg.Counter("fork.releases", c.Releases.Load)
	reg.Gauge("fork.adopt_stack_depth", func() float64 {
		return float64(c.AdoptStackDepth.Load())
	})
	reg.Counter("fork.refused_disabled", c.RefusedDisabled.Load)
	reg.Counter("fork.refused_restore", c.RefusedRestore.Load)
	reg.Counter("fork.refused_snapshot", c.RefusedSnapshot.Load)
	reg.Counter("fork.refused_warmup", c.RefusedWarmup.Load)
	reg.Counter("fork.refused_overhang", c.RefusedOverhang.Load)
}

// poolHookFn receives one pool/fork scheduler decision: which worker's
// pool made it (-1 when unknown), a short kind tag ("fork", "warm",
// "reset", "rebuild", "skip:ckpt", "refuse:restore", ...) and a human
// detail string.
type poolHookFn func(worker int, kind, detail string)

var poolHook atomic.Pointer[poolHookFn]

// SetPoolEventHook installs (or, with nil, removes) the process-wide
// observer for pool/fork decisions — the ops plane's flight recorder.
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
func poolEvent(worker int, kind, detail string) {
	if h := poolHook.Load(); h != nil {
		(*h)(worker, kind, detail)
	}
}
