package system

import (
	"maps"
	"slices"

	"dbisim/internal/config"
	"dbisim/internal/telemetry"
)

// Pool runs sweep cells. A cell whose full identity — config with both
// budgets, benchmarks and seed — equals the previous cell's gets a copy
// of that cell's Results: a cell's result is a function of its inputs,
// so simulating it again could only return the same values. Any other
// cell runs whole on a machine New builds for it, which the pool drops
// when the cell is done. Either way the result is bit-identical to
// New(cfg, benches, seed).Run().
//
// A Pool is NOT safe for concurrent use: each sweep worker owns its
// own, and it lives as long as that worker's sweep. The zero value is
// ready. The sweep scheduler runs cells with equal Group labels back
// to back on one worker, so a sweep that labels cells by identity has
// every repeat answered from the one remembered result.
//
// Every decision increments the process-wide PoolStat counters and
// (when the ops plane installed a hook) emits a flight-recorder event.
type Pool struct {
	// The previous cell: its identity, a private copy of its Results
	// and the measure-window attribution its run folded into
	// telemetry.AttrTotals, which a reuse folds in again.
	haveLast    bool
	lastCfg     config.SystemConfig
	lastBenches []string
	lastSeed    int64
	lastRes     Results
	lastAttr    telemetry.AttrValues

	// worker is the owning sweep worker's index, carried into the
	// ops-plane pool events.
	worker    int
	workerSet bool
}

// SetWorker labels the pool with its owning sweep worker's index, so
// ops-plane events attribute decisions to worker lanes. The sweep
// scheduler calls it once per worker state; it has no effect on
// simulation.
func (p *Pool) SetWorker(w int) { p.worker, p.workerSet = w, true }

func (p *Pool) workerID() int {
	if !p.workerSet {
		return -1
	}
	return p.worker
}

// Run executes one cell: a copy of the previous cell's Results when the
// identities match, otherwise a whole run on a new machine.
func (p *Pool) Run(cfg config.SystemConfig, benches []string, seed int64) (Results, error) {
	if p.haveLast && cfg == p.lastCfg && seed == p.lastSeed && slices.Equal(benches, p.lastBenches) {
		PoolStat.CkptHits.Add(1)
		poolEvent(p.workerID(), "reuse", "")
		if p.lastRes.Attr != nil {
			telemetry.AttrTotals.Add(p.lastAttr)
		}
		return p.lastRes.clone(), nil
	}
	sys, err := New(cfg, benches, seed)
	if err != nil {
		return Results{}, err
	}
	PoolStat.Rebuilds.Add(1)
	poolEvent(p.workerID(), "rebuild", "")
	res := sys.Run()
	p.haveLast, p.lastCfg, p.lastSeed = true, cfg, seed
	p.lastBenches = append(p.lastBenches[:0], benches...)
	p.lastRes = res.clone()
	p.lastAttr = sys.attr.Values().Sub(sys.snap.attr)
	return res, nil
}

// clone returns a copy of r that shares no memory with it.
func (r Results) clone() Results {
	r.PerCore = slices.Clone(r.PerCore)
	if r.Attr != nil {
		a := *r.Attr
		for _, w := range []*telemetry.AttrWindow{&a.Warmup, &a.Measure} {
			w.Categories = maps.Clone(w.Categories)
			w.Domains = maps.Clone(w.Domains)
		}
		r.Attr = &a
	}
	return r
}
