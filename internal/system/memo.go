package system

import (
	"maps"
	"slices"
	"sync"

	"dbisim/internal/config"
	"dbisim/internal/telemetry"
)

// Memo runs one sweep cell at most once. A cell's result is a function
// of its identity — config with both budgets, benchmarks and seed — so
// a sweep hands every cell of one identity the same Memo. The first
// call builds the machine with New, runs it and keeps a private copy of
// its Results, never the machine; every later call gets a fresh copy of
// that. Either way the result is bit-identical to
// New(cfg, benches, seed, opts...).Run().
//
// A Memo is safe for concurrent use: a call that arrives while the
// first is still running waits for it.
//
// Every call increments the process-wide PoolStat counters and (when
// the ops plane installed a hook) emits a flight-recorder event on the
// control lane (worker -1), since no sweep worker owns a Memo.
type Memo struct {
	cfg     config.SystemConfig
	benches []string
	seed    int64
	opts    []Option

	once sync.Once
	err  error
	// res is a private copy of the first run's Results; attr is the
	// measure-window attribution that run folded into
	// telemetry.AttrTotals, which every reuse folds in again.
	res  Results
	attr telemetry.AttrValues
}

// NewMemo returns the Memo of one cell identity. opts reach the one
// machine it builds; they are not part of the identity, so a sweep
// passes the same options to every cell.
func NewMemo(cfg config.SystemConfig, benches []string, seed int64, opts ...Option) *Memo {
	return &Memo{cfg: cfg, benches: benches, seed: seed, opts: opts}
}

// Run returns the cell's Results: the first call simulates the cell,
// every later call gets a copy of its result.
func (m *Memo) Run() (Results, error) {
	var res Results
	first := false
	m.once.Do(func() {
		first = true
		sys, err := New(m.cfg, m.benches, m.seed, m.opts...)
		if err != nil {
			m.err = err
			return
		}
		PoolStat.Rebuilds.Add(1)
		poolEvent("rebuild")
		res = sys.Run()
		m.res = res.clone()
		m.attr = sys.attr.Values().Sub(sys.snap.attr)
	})
	if m.err != nil {
		return Results{}, m.err
	}
	if first {
		return res, nil
	}
	PoolStat.CkptHits.Add(1)
	poolEvent("reuse")
	if m.res.Attr != nil {
		telemetry.AttrTotals.Add(m.attr)
	}
	return m.res.clone(), nil
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
