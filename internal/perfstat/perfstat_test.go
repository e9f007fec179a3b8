package perfstat

import (
	"math"
	"strings"
	"testing"
)

// TestRunInterleavesRounds pins the round-robin execution order: every
// round visits all targets in list order before the next round starts,
// and the order is a pure function of the inputs (determinism).
func TestRunInterleavesRounds(t *testing.T) {
	var order []string
	mk := func(name string) Target {
		return Target{Name: name, Kind: KindMicro, Run: func() (Counts, error) {
			order = append(order, name)
			return Counts{Ops: 1}, nil
		}}
	}
	targets := []Target{mk("a"), mk("b"), mk("c")}
	benches, err := Run(targets, RunConfig{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("execution order %v, want interleaved %v", order, want)
	}
	if len(benches) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(benches))
	}
	for _, b := range benches {
		if s := b.Metrics["wall_ns"]; s.N != 3 {
			t.Errorf("%s wall_ns has n=%d, want 3", b.Name, s.N)
		}
		if s := b.Metrics["ops_per_sec"]; s.N != 3 {
			t.Errorf("%s ops_per_sec has n=%d, want 3", b.Name, s.N)
		}
	}

	// A second identical session must execute the identical schedule.
	first := append([]string(nil), order...)
	order = order[:0]
	if _, err := Run(targets, RunConfig{Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != strings.Join(first, ",") {
		t.Fatalf("rerun order %v differs from first run %v", order, first)
	}
}

func TestRunPropagatesTargetError(t *testing.T) {
	boom := Target{Name: "boom", Kind: KindMicro, Run: func() (Counts, error) {
		return Counts{}, errTest
	}}
	if _, err := Run([]Target{boom}, RunConfig{Rounds: 2}); err == nil {
		t.Fatal("Run swallowed the target error")
	}
}

var errTest = errorString("synthetic failure")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	if s.N != 3 || s.Mean != 12 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.Stddev)
	}
	// CI95 = t(df=2) * s/sqrt(n) = 4.303 * 2/sqrt(3).
	if want := 4.303 * 2 / math.Sqrt(3); math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", s.CI95, want)
	}

	one := Summarize([]float64{5})
	if one.N != 1 || one.Mean != 5 || one.Stddev != 0 || one.CI95 != 0 {
		t.Fatalf("n=1 summary = %+v, want zero spread", one)
	}
	if empty := Summarize(nil); empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

// TestWelchEdgeCases covers the degenerate inputs the ISSUE calls out:
// n=1 samples (no test possible) and zero-variance samples.
func TestWelchEdgeCases(t *testing.T) {
	if _, _, p := Welch(Summarize([]float64{1}), Summarize([]float64{2, 3})); p != 1 {
		t.Errorf("n=1 sample: p = %v, want 1 (untestable)", p)
	}
	if _, _, p := Welch(Summarize([]float64{4, 4, 4}), Summarize([]float64{4, 4, 4})); p != 1 {
		t.Errorf("identical point masses: p = %v, want 1", p)
	}
	if _, _, p := Welch(Summarize([]float64{4, 4, 4}), Summarize([]float64{9, 9, 9})); p != 0 {
		t.Errorf("distinct point masses: p = %v, want 0", p)
	}
	// One-sided zero variance still yields a finite test.
	_, _, p := Welch(Summarize([]float64{4, 4, 4}), Summarize([]float64{8.9, 9, 9.1}))
	if p >= 0.05 {
		t.Errorf("clearly separated samples: p = %v, want < 0.05", p)
	}
}

// TestWelchKnownValue checks the statistic and degrees of freedom
// against an independent hand computation of the Welch formulas.
func TestWelchKnownValue(t *testing.T) {
	a := Summarize([]float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4})
	b := Summarize([]float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 24.3})
	tt, df, p := Welch(a, b)
	if math.Abs(tt-(-2.84720445657712)) > 1e-9 {
		t.Errorf("t = %v, want -2.84720445657712", tt)
	}
	if math.Abs(df-27.8847494671033) > 1e-9 {
		t.Errorf("df = %v, want 27.8847494671033", df)
	}
	if p <= 0.005 || p >= 0.01 {
		t.Errorf("p = %v, want in (0.005, 0.01) for |t|=2.85 at df=27.9", p)
	}
}

// TestPValueMatchesTTable anchors the incomplete-beta p-value against
// the textbook two-sided 95% critical values: evaluating the test at
// exactly t = tCrit95(df) must give p ≈ 0.05 for every tabulated df.
func TestPValueMatchesTTable(t *testing.T) {
	for _, df := range []int{1, 2, 5, 10, 20, 30, 200} {
		crit := tCrit95(df)
		fdf := float64(df)
		p := betaInc(fdf/2, 0.5, fdf/(fdf+crit*crit))
		if math.Abs(p-0.05) > 2e-3 {
			t.Errorf("df=%d: p at critical value = %v, want ~0.05", df, p)
		}
	}
}

func TestDiffVerdicts(t *testing.T) {
	mk := func(name string, wall []float64) Benchmark {
		return Benchmark{Name: name, Kind: KindMicro, Metrics: map[string]Summary{
			"wall_ns": Summarize(wall),
		}}
	}
	base := &Report{Schema: Schema, Benchmarks: []Benchmark{
		mk("steady", []float64{100, 101, 99, 100, 100}),
		mk("regressed", []float64{100, 101, 99, 100, 100}),
		mk("improved", []float64{100, 101, 99, 100, 100}),
		mk("noisy", []float64{100, 101, 99, 100, 100}),
	}}
	head := &Report{Schema: Schema, Benchmarks: []Benchmark{
		mk("steady", []float64{100, 100, 101, 99, 100}),
		mk("regressed", []float64{150, 151, 149, 150, 150}), // +50%, tight
		mk("improved", []float64{50, 51, 49, 50, 50}),       // -50%, tight
		mk("noisy", []float64{40, 260, 90, 110, 100}),       // mean shift inside variance
		mk("new-only", []float64{1, 2, 3}),                  // skipped: no baseline
	}}
	deltas := Diff(base, head, DiffOptions{})
	got := map[string]Verdict{}
	for _, d := range deltas {
		got[d.Benchmark] = d.Verdict
	}
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4 (new-only skipped): %+v", len(deltas), got)
	}
	want := map[string]Verdict{
		"steady":    VerdictOK,
		"regressed": VerdictRegressed,
		"improved":  VerdictImproved,
		"noisy":     VerdictNoise,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: verdict %s, want %s", name, got[name], v)
		}
	}
	if regs := Regressions(deltas); len(regs) != 1 || regs[0].Benchmark != "regressed" {
		t.Errorf("Regressions = %+v, want exactly the regressed benchmark", regs)
	}

	var sb strings.Builder
	WriteTable(&sb, deltas)
	out := sb.String()
	for _, needle := range []string{"REGRESSED", "improved", "~noise", "wall_ns", "p"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table output missing %q:\n%s", needle, out)
		}
	}
}

// TestWriteUncompared pins the coverage report under the diff table:
// one line per benchmark×metric pair that only one side recorded,
// whether the whole benchmark or just the metric is missing.
func TestWriteUncompared(t *testing.T) {
	mk := func(name string, metrics ...string) Benchmark {
		b := Benchmark{Name: name, Kind: KindMicro, Metrics: map[string]Summary{}}
		for _, m := range metrics {
			b.Metrics[m] = Summarize([]float64{1, 2})
		}
		return b
	}
	base := &Report{Schema: Schema, Benchmarks: []Benchmark{
		mk("micro/cache.lookup", "ops_per_sec", "wall_ns"),
		mk("macro/gone", "wall_ns"),
	}}
	head := &Report{Schema: Schema, Benchmarks: []Benchmark{
		mk("micro/cache.lookup", "ops_per_sec", "allocs_per_op"),
		mk("micro/cache.ssv", "ops_per_sec"),
	}}
	var sb strings.Builder
	WriteUncompared(&sb, base, head)
	want := "not compared: macro/gone/wall_ns (only in old)\n" +
		"not compared: micro/cache.lookup/allocs_per_op (only in new)\n" +
		"not compared: micro/cache.lookup/wall_ns (only in old)\n" +
		"not compared: micro/cache.ssv/ops_per_sec (only in new)\n"
	if got := sb.String(); got != want {
		t.Fatalf("WriteUncompared:\n%s\nwant:\n%s", got, want)
	}
	sb.Reset()
	WriteUncompared(&sb, base, base)
	if sb.Len() != 0 {
		t.Fatalf("a report against itself left pairs uncompared:\n%s", sb.String())
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/BENCH_test.json"
	rep := NewReport(CaptureEnv(), 3, "micro", 42, []Benchmark{
		{Name: "x", Kind: KindMicro, Metrics: map[string]Summary{"wall_ns": Summarize([]float64{1, 2, 3})}},
	})
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Rounds != 3 || got.Suite != "micro" {
		t.Fatalf("round-trip header = %+v", got)
	}
	b := got.Benchmark("x")
	if b == nil || b.Metrics["wall_ns"].N != 3 {
		t.Fatalf("round-trip benchmark = %+v", b)
	}

	// Foreign schemas must be rejected, not misread.
	bad := dir + "/bad.json"
	rep.Schema = "othertool/v1"
	if err := rep.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bad); err == nil {
		t.Fatal("ReadReport accepted a foreign schema")
	}

	// Future dbistat schemas load — the version skew is surfaced by
	// SchemaMismatch at diff time instead of failing the read.
	future := dir + "/future.json"
	rep.Schema = "dbistat/v999"
	if err := rep.WriteFile(future); err != nil {
		t.Fatal(err)
	}
	fut, err := ReadReport(future)
	if err != nil {
		t.Fatalf("ReadReport rejected a future dbistat schema: %v", err)
	}
	if _, mismatch := SchemaMismatch(got, fut); !mismatch {
		t.Fatal("SchemaMismatch missed differing schema versions")
	}
	if why, mismatch := SchemaMismatch(got, got); mismatch {
		t.Fatalf("SchemaMismatch on identical schemas: %s", why)
	}
}

func TestDirection(t *testing.T) {
	for metric, want := range map[string]int{
		"cycles_per_sec":  +1,
		"events_per_sec":  +1,
		"cells_per_sec":   +1,
		"ops_per_sec":     +1,
		"wall_ns":         -1,
		"allocs_per_cell": -1,
		"bytes_per_cell":  -1,
		"anything_else":   -1,
	} {
		if got := Direction(metric); got != want {
			t.Errorf("Direction(%s) = %d, want %d", metric, got, want)
		}
	}
}

func TestCellCounter(t *testing.T) {
	before := CellCount()
	CellDone(3)
	if got := CellCount() - before; got != 3 {
		t.Fatalf("cell counter advanced by %d, want 3", got)
	}
}

func TestDirtyTrees(t *testing.T) {
	clean, dirty := Env{GitSHA: "a"}, Env{GitSHA: "b", GitDirty: true}
	for _, c := range []struct {
		old, new Env
		want     string
	}{
		{clean, clean, ""},
		{dirty, clean, "old"},
		{clean, dirty, "new"},
		{dirty, dirty, "old and new"},
	} {
		if got := DirtyTrees(c.old, c.new); got != c.want {
			t.Errorf("DirtyTrees(dirty=%v, dirty=%v) = %q, want %q", c.old.GitDirty, c.new.GitDirty, got, c.want)
		}
	}
}

func TestDefaultFileName(t *testing.T) {
	r := &Report{Env: Env{GitSHA: "0123456789abcdef0123"}}
	if got := r.DefaultFileName(); got != "BENCH_0123456789ab.json" {
		t.Fatalf("DefaultFileName = %q", got)
	}
	if got := (&Report{}).DefaultFileName(); got != "BENCH_unversioned.json" {
		t.Fatalf("no-git DefaultFileName = %q", got)
	}
}
