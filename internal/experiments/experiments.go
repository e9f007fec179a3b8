// Package experiments contains one runner per table and figure of the
// DBI paper's evaluation (Section 6). Every runner plans its cells
// (the machines and workloads it sweeps) into a run and returns its
// finish, which reduces their results to the rows/series the paper
// reports, renders them and returns them as structured results for the
// benchmark harness to assert on. Registry lists every runner; Run
// joins any of them into one run, which simulates each distinct cell
// once however many runners plan it.
//
// The runners use the laptop-scale configuration (config.Scaled); the
// per-experiment index and the paper-vs-measured record live in
// DESIGN.md and EXPERIMENTS.md at the repository root.
package experiments

import (
	"fmt"
	"io"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// Options controls sweep sizes, parallelism and output.
type Options struct {
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Quick shrinks instruction budgets and workload counts so the full
	// suite finishes in minutes (the default for `go test -bench`).
	Quick bool
	// Seed fixes all randomness.
	Seed int64
	// Parallel caps the worker goroutines each sweep fans out over:
	// 0 means one per CPU, 1 reproduces the old sequential path. Every
	// cell runs at Seed, so every worker count yields the identical
	// result set.
	Parallel int
	// Attr attaches an attribution ledger to every simulated machine
	// (dbibench -attr): each Results carries its Attr report, and the
	// measure windows fold into telemetry.AttrTotals. Results are
	// otherwise bit-identical with and without it.
	Attr bool
	// Recorder, when non-nil, receives one machine-readable record per
	// simulation cell for the -json report.
	Recorder *sweep.Recorder
	// Progress, when non-nil, fires after each simulation cell
	// completes with (done, total) for the current sweep. Callbacks
	// arrive from worker goroutines; the callee must be
	// concurrency-safe.
	Progress func(done, total int)
}

// Experiment is one entry of the Registry: the id dbibench selects it
// by, a one-line description, and the function that plans its cells
// and returns its finish.
type Experiment struct {
	ID   string
	Desc string
	plan func(*plan) func() (any, error)
}

// Registry lists every experiment, in dbibench's order.
var Registry = []Experiment{
	{"fig6", "Figure 6: single-core IPC, row hit rates, tag lookups, WPKI", untyped(planFig6)},
	{"fig7", "Figure 7: multi-core weighted speedup (2/4/8 cores)", untyped(planFig7)},
	{"fig8", "Figure 8: 4-core per-workload speedup S-curve", untyped(planFig8)},
	{"tab3", "Table 3: performance and fairness metrics", untyped(planTable3)},
	{"tab4", "Table 4: bit storage cost reduction", func(p *plan) func() (any, error) {
		return func() (any, error) { return Table4(p.o), nil }
	}},
	{"tab5", "Table 5: DBI power fraction", func(p *plan) func() (any, error) {
		return func() (any, error) { return Table5(p.o), nil }
	}},
	{"tab6", "Table 6: AWB sensitivity to DBI size and granularity", untyped(planTable6)},
	{"tab7", "Table 7: cache size sensitivity", untyped(planTable7)},
	{"casestudy", "Section 6.2: GemsFDTD+libquantum case study", untyped(planCaseStudy)},
	{"dbipolicy", "Section 4.3: DBI replacement policy comparison", untyped(planDBIPolicy)},
	{"clbsens", "Section 6.4: CLB miss-predictor threshold sensitivity", untyped(planCLBSensitivity)},
	{"drrip", "Section 6.5: DBI under DRRIP replacement", untyped(planDRRIP)},
	{"area", "Section 6.3: area and DRAM energy", untyped(planAreaPower)},
	// The flush walks are not machines: Flush runs its own two-cell
	// sweep when it finishes.
	{"flushlat", "Section 7: whole-cache flush latency", func(p *plan) func() (any, error) {
		return func() (any, error) { return Flush(p.o) }
	}},
	{"ablation", "Design-choice ablations (write buffer, drain, DBI assoc)", untyped(planAblation)},
}

// untyped adapts a runner's plan function to the Registry's.
func untyped[R any](planFn func(*plan) func() (R, error)) func(*plan) func() (any, error) {
	return func(p *plan) func() (any, error) {
		finish := planFn(p)
		return func() (any, error) { return finish() }
	}
}

// Run plans every experiment of exps into one run and simulates it as
// one sweep, named label on the live monitor (dbibench passes its
// -experiment value: an id, or "all"). It returns each experiment's
// finish, in exps' order: a call reduces that experiment's results,
// renders them to o.Out and returns its result (*Fig6Result for fig6,
// and so on).
func Run(o Options, label string, exps []Experiment) ([]func() (any, error), error) {
	p := &plan{o: o}
	finishes := make([]func() (any, error), len(exps))
	for i, e := range exps {
		finishes[i] = e.plan(p)
	}
	if err := p.run(label); err != nil {
		return nil, err
	}
	return finishes, nil
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// singleBudgets returns (warmup, measure) for single-core runs. Warmup
// must stream enough blocks to fill the LLC with steady-state dirty
// data; otherwise the baseline's deferred writebacks flatter it.
func (o Options) singleBudgets() (uint64, uint64) {
	if o.Quick {
		return 800_000, 1_000_000
	}
	return 1_500_000, 2_500_000
}

// multiBudgets returns per-core (warmup, measure) for multi-core runs.
// The shared LLC grows with the core count but so does the combined fill
// rate, so the per-core warmup stays roughly constant.
func (o Options) multiBudgets() (uint64, uint64) {
	if o.Quick {
		return 500_000, 700_000
	}
	return 800_000, 1_200_000
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// wsPerMix returns the weighted speedup of each mix's result over the
// alone IPCs.
func wsPerMix(rs []*system.Results, alone map[string]float64) []float64 {
	ws := make([]float64, len(rs))
	for i, r := range rs {
		ws[i] = system.WeightedSpeedup(r.PerCore, alone)
	}
	return ws
}

// fig6Mechanisms are the mechanisms Figure 6 plots.
func fig6Mechanisms() []config.Mechanism {
	return []config.Mechanism{
		config.TADIP, config.DAWB, config.VWQ,
		config.DBI, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
	}
}

// fig7Mechanisms are the mechanisms Figure 7 plots.
func fig7Mechanisms() []config.Mechanism {
	return []config.Mechanism{
		config.Baseline, config.TADIP, config.DAWB,
		config.DBI, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
	}
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
