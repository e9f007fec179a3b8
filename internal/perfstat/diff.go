package perfstat

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdict classifies one metric's old-vs-new delta.
type Verdict string

const (
	// VerdictOK: the delta is below the gating threshold (or exactly
	// zero) — within the band the project accepts without comment.
	VerdictOK Verdict = "ok"
	// VerdictNoise: the delta exceeds the threshold but Welch's test
	// cannot distinguish it from run-to-run variance. Warn, don't gate.
	VerdictNoise Verdict = "~noise"
	// VerdictImproved: statistically significant change in the good
	// direction.
	VerdictImproved Verdict = "improved"
	// VerdictRegressed: statistically significant change in the bad
	// direction beyond the threshold — the gate fails on these.
	VerdictRegressed Verdict = "REGRESSED"
)

// Delta is one benchmark×metric comparison between two recordings.
type Delta struct {
	Benchmark string
	Metric    string
	Old, New  Summary
	// Pct is the relative change of the mean, signed in value domain
	// (not goodness domain): +0.10 means the new mean is 10% larger.
	Pct float64
	// P is Welch's two-sided p-value; T its statistic.
	T, P float64
	// Significant is P < alpha.
	Significant bool
	Verdict     Verdict
}

// DiffOptions tunes the significance gate.
type DiffOptions struct {
	// Alpha is the significance level for Welch's test (default 0.05).
	Alpha float64
	// Threshold is the minimum relative mean change that can count as
	// a regression or improvement (default 0.10 = 10%); smaller
	// significant deltas report as ok.
	Threshold float64
}

func (o DiffOptions) alpha() float64 {
	if o.Alpha <= 0 {
		return 0.05
	}
	return o.Alpha
}

func (o DiffOptions) threshold() float64 {
	if o.Threshold <= 0 {
		return 0.10
	}
	return o.Threshold
}

// Diff compares every benchmark×metric present in both reports and
// returns the deltas sorted by benchmark then metric name. Benchmarks
// or metrics present on only one side are skipped: the gate judges
// common ground, and WriteUncompared reports what it left out.
func Diff(base, head *Report, opt DiffOptions) []Delta {
	var out []Delta
	for _, nb := range head.Benchmarks {
		ob := base.Benchmark(nb.Name)
		if ob == nil {
			continue
		}
		for metric, ns := range nb.Metrics {
			os, ok := ob.Metrics[metric]
			if !ok {
				continue
			}
			out = append(out, compare(nb.Name, metric, os, ns, opt))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

func compare(bench, metric string, o, n Summary, opt DiffOptions) Delta {
	d := Delta{Benchmark: bench, Metric: metric, Old: o, New: n}
	if o.Mean != 0 {
		d.Pct = (n.Mean - o.Mean) / math.Abs(o.Mean)
	} else if n.Mean != 0 {
		d.Pct = math.Inf(sign(n.Mean))
	}
	// Welch orders (new, old): a positive t means new > old.
	d.T, _, d.P = Welch(n, o)
	d.Significant = d.P < opt.alpha()
	switch {
	case math.Abs(d.Pct) < opt.threshold():
		d.Verdict = VerdictOK
	case !d.Significant:
		d.Verdict = VerdictNoise
	case float64(Direction(metric))*d.Pct > 0:
		d.Verdict = VerdictImproved
	default:
		d.Verdict = VerdictRegressed
	}
	return d
}

// Regressions filters the deltas down to gate failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Verdict == VerdictRegressed {
			out = append(out, d)
		}
	}
	return out
}

// WriteTable renders the deltas as an aligned significance-annotated
// table, benchstat-style.
func WriteTable(w io.Writer, deltas []Delta) {
	fmt.Fprintf(w, "%-26s %-16s %14s %14s %9s %8s  %s\n",
		"benchmark", "metric", "old", "new", "delta", "p", "verdict")
	for _, d := range deltas {
		fmt.Fprintf(w, "%-26s %-16s %14s %14s %+8.1f%% %8.3f  %s\n",
			d.Benchmark, d.Metric,
			formatMean(d.Old), formatMean(d.New),
			100*d.Pct, d.P, d.Verdict)
	}
}

// WriteUncompared prints one "not compared: <benchmark>/<metric> (only
// in old|new)" line, in sorted order, for each pair Diff skipped
// because only one of the two reports has it.
func WriteUncompared(w io.Writer, base, head *Report) {
	var lines []string
	only := func(a, b *Report, side string) {
		for _, ab := range a.Benchmarks {
			bb := b.Benchmark(ab.Name)
			for metric := range ab.Metrics {
				if bb != nil {
					if _, ok := bb.Metrics[metric]; ok {
						continue
					}
				}
				lines = append(lines, fmt.Sprintf("not compared: %s/%s (only in %s)", ab.Name, metric, side))
			}
		}
	}
	only(base, head, "old")
	only(head, base, "new")
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// formatMean renders mean±stddev with engineering-friendly precision.
func formatMean(s Summary) string {
	return fmt.Sprintf("%s±%s", siValue(s.Mean), siValue(s.Stddev))
}

// siValue compacts large magnitudes with SI suffixes so throughput
// columns stay readable.
func siValue(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
