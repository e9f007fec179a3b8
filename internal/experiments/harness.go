package experiments

import (
	"fmt"
	"runtime"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
	"dbisim/internal/workloads"
)

// simCell is one planned simulation: a complete system configuration
// plus the benchmark on each of its cores.
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

// plan is the cells of one run. Each runner's plan function adds the
// cells it needs and returns its finish, which reads their results
// once run has filled them in.
type plan struct {
	o     Options
	cells []simCell
	res   []*system.Results
}

// add plans one cell and returns where run will put its result.
func (p *plan) add(c simCell) *system.Results {
	r := new(system.Results)
	p.cells = append(p.cells, c)
	p.res = append(p.res, r)
	return r
}

// aloneRuns maps a benchmark to the result of its alone cell.
type aloneRuns map[string]*system.Results

// alone plans one baseline single-core cell per distinct benchmark of
// benches, in first-seen order: its IPC alone is the denominator of
// every speedup metric (Section 5).
func (p *plan) alone(exp string, benches []string) aloneRuns {
	a := aloneRuns{}
	for _, b := range benches {
		if a[b] == nil {
			a[b] = p.add(p.o.singleCell(exp+"/alone", config.Baseline, b))
		}
	}
	return a
}

// aloneMixes plans the alone cells of every benchmark of mixes.
func (p *plan) aloneMixes(exp string, mixes []workloads.Mix) aloneRuns {
	var benches []string
	for _, m := range mixes {
		benches = append(benches, m.Benches...)
	}
	return p.alone(exp, benches)
}

// ipc maps each benchmark to its IPC alone.
func (a aloneRuns) ipc() map[string]float64 {
	m := make(map[string]float64, len(a))
	for b, r := range a {
		m[b] = r.PerCore[0].IPC
	}
	return m
}

// run simulates the plan as one sweep labelled label, in plan order.
// Every cell runs at the base seed, so the results are identical for
// every worker count. All cells of one identity — config with both
// budgets, benchmarks and seed — share one system.Memo, so the run
// simulates each distinct cell once, whichever experiment planned it,
// and answers its repeats with copies of that result. Cells are also
// grouped by identity, so a repeat completes right after the cell it
// repeats. Each planned cell gets its result and one record for the
// -json report.
func (p *plan) run(label string) error {
	o := p.o
	seed := o.seed()
	var opts []system.Option
	if o.Attr {
		opts = append(opts, system.WithAttribution())
	}
	memos := map[string]*system.Memo{}
	sc := make([]sweep.Cell[system.Results], len(p.cells))
	for i, c := range p.cells {
		id := fmt.Sprintf("%+v|%v|%d", c.cfg, c.benches, seed)
		m := memos[id]
		if m == nil {
			m = system.NewMemo(c.cfg, c.benches, seed, opts...)
			memos[id] = m
		}
		sc[i] = sweep.Cell[system.Results]{Key: c.key, Run: m.Run, Group: id}
	}
	outs, err := sweep.RunWithProgress(label, sc, o.workers(), o.Progress)
	if err != nil {
		return err
	}
	for i, out := range outs {
		*p.res[i] = out.Value
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
	return nil
}

// runOne runs a plan that holds one experiment, labelled with its id,
// and finishes it.
func runOne[R any](o Options, id string, planFn func(*plan) func() (R, error)) (R, error) {
	p := &plan{o: o}
	finish := planFn(p)
	if err := p.run(id); err != nil {
		var zero R
		return zero, err
	}
	return finish()
}
