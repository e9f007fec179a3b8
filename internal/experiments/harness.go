package experiments

import (
	"fmt"
	"runtime"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
	"dbisim/internal/workloads"
)

// simCell is one simulation the worker pool can run: a complete system
// configuration plus the benchmark on each of its cores.
type simCell struct {
	key     sweep.Key
	cfg     config.SystemConfig
	benches []string
}

// workers resolves the Parallel option: 0 means one worker per
// available CPU, 1 reproduces the old sequential path.
func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// singleCell builds a 1-core cell with the experiment's single-core
// instruction budgets.
func (o Options) singleCell(exp string, mech config.Mechanism, bench string) simCell {
	cfg := config.Scaled(1, mech)
	cfg.WarmupInstructions, cfg.MeasureInstructions = o.singleBudgets()
	return simCell{
		key:     sweep.Key{Experiment: exp, Benchmark: bench, Mechanism: mech.String()},
		cfg:     cfg,
		benches: []string{bench},
	}
}

// multiCell builds a multi-core cell for a workload mix with the
// multi-core budgets.
func (o Options) multiCell(exp string, mech config.Mechanism, mixName string, benches []string) simCell {
	cfg := config.Scaled(len(benches), mech)
	cfg.WarmupInstructions, cfg.MeasureInstructions = o.multiBudgets()
	return simCell{
		key: sweep.Key{
			Experiment: exp, Benchmark: mixName,
			Mechanism: mech.String(), Cores: len(benches),
		},
		cfg:     cfg,
		benches: benches,
	}
}

// runCells executes the cells across the worker pool and returns their
// results in cell order. Every cell runs at the base seed, so the
// result set is identical for every worker count; each outcome is also
// pushed to the Recorder for the -json report. All cells of one
// identity share one system.Memo, so the call simulates each distinct
// cell once and answers its repeats with copies of that result; each
// experiment plans its cells into one call, so every repeat is
// reused. Cells are also grouped by identity, so a repeat completes
// right after the cell it repeats.
func (o Options) runCells(cells []simCell) ([]system.Results, error) {
	seed := o.seed()
	var opts []system.Option
	if o.Attr {
		opts = append(opts, system.WithAttribution())
	}
	memos := map[string]*system.Memo{}
	sc := make([]sweep.Cell[system.Results], len(cells))
	for i, c := range cells {
		id := fmt.Sprintf("%+v|%v|%d", c.cfg, c.benches, seed)
		m := memos[id]
		if m == nil {
			m = system.NewMemo(c.cfg, c.benches, seed, opts...)
			memos[id] = m
		}
		sc[i] = sweep.Cell[system.Results]{Key: c.key, Run: m.Run, Group: id}
	}
	outs, err := sweep.RunWithProgress(sc, o.workers(), o.Progress)
	if err != nil {
		return nil, err
	}
	res := make([]system.Results, len(outs))
	for i, out := range outs {
		res[i] = out.Value
		o.Recorder.Add(sweep.Record{
			Key:        out.Key.String(),
			Experiment: out.Key.Experiment,
			Benchmark:  out.Key.Benchmark,
			Mechanism:  out.Key.Mechanism,
			Cores:      out.Key.Cores,
			Param:      out.Key.Param,
			Seed:       seed,
			Metrics:    out.Value.Metrics(),
			Attr:       out.Value.Attr,
			ElapsedMS:  float64(out.Elapsed.Microseconds()) / 1000,
		})
	}
	return res, nil
}

// mixSweep is one sub-sweep of an experiment whose metrics divide by
// alone IPCs: the alone cells of its benchmarks (those of its workload
// mixes, for a multi-core experiment) and its own cells. runMixSweeps
// fills alone and rs.
type mixSweep struct {
	mixes      []workloads.Mix
	aloneCells []simCell
	cells      []simCell

	alone map[string]float64
	rs    []system.Results
}

// newMixSweep starts a sub-sweep over mixes; the caller appends its mix
// cells.
func (o Options) newMixSweep(exp string, mixes []workloads.Mix) *mixSweep {
	var benches []string
	for _, m := range mixes {
		benches = append(benches, m.Benches...)
	}
	return &mixSweep{mixes: mixes, aloneCells: o.aloneCells(exp, benches)}
}

// runMixSweeps runs the sub-sweeps as one sweep, in order, with each
// one's alone cells before its own cells. An alone cell that several
// sub-sweeps repeat is then simulated once and reused, where separate
// runs would simulate it again each time.
func (o Options) runMixSweeps(subs ...*mixSweep) error {
	var cells []simCell
	for _, s := range subs {
		cells = append(cells, s.aloneCells...)
		cells = append(cells, s.cells...)
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return err
	}
	for _, s := range subs {
		n, m := len(s.aloneCells), len(s.aloneCells)+len(s.cells)
		s.alone, s.rs, rs = aloneIPCs(s.aloneCells, rs[:n]), rs[n:m], rs[m:]
	}
	return nil
}
