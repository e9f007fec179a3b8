// Package experiments contains one runner per table and figure of the
// DBI paper's evaluation (Section 6). Every runner builds the workloads,
// sweeps the mechanisms, renders the same rows/series the paper reports
// and returns structured results for the benchmark harness to assert on.
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

// weightedSpeedup is a convenience wrapper over system.WeightedSpeedup.
func weightedSpeedup(r system.Results, alone map[string]float64) float64 {
	return system.WeightedSpeedup(r.PerCore, alone)
}

// aloneIPC measures each benchmark's single-core IPC on the baseline
// machine — the denominator of every speedup metric (Section 5). The
// runs are independent, so they go through the worker pool like any
// other sweep cells.
func (o Options) aloneIPC(exp string, benches []string) (map[string]float64, error) {
	cells := o.aloneCells(exp, benches)
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	return aloneIPCs(cells, rs), nil
}

// aloneCells builds one baseline single-core cell per distinct
// benchmark, for aloneIPC.
func (o Options) aloneCells(exp string, benches []string) []simCell {
	var cells []simCell
	seen := map[string]bool{}
	for _, b := range benches {
		if seen[b] {
			continue
		}
		seen[b] = true
		cells = append(cells, o.singleCell(exp+"/alone", config.Baseline, b))
	}
	return cells
}

// aloneIPCs maps each alone cell's benchmark to its measured IPC.
func aloneIPCs(cells []simCell, rs []system.Results) map[string]float64 {
	out := map[string]float64{}
	for i, c := range cells {
		out[c.key.Benchmark] = rs[i].PerCore[0].IPC
	}
	return out
}

// uniqueBenches flattens mixes into the set of distinct benchmarks.
func uniqueBenches(mixes [][]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range mixes {
		for _, b := range m {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
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
