package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// tiny returns options with the smallest budgets that still exercise the
// mechanisms, for unit-testing the runners themselves.
func tiny() Options {
	return Options{Quick: true, Seed: 7}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.out() == nil {
		t.Fatal("nil writer not defaulted")
	}
	if o.seed() != 42 {
		t.Fatal("seed default wrong")
	}
	w, m := o.singleBudgets()
	if w == 0 || m == 0 {
		t.Fatal("zero budgets")
	}
	qw, _ := Options{Quick: true}.singleBudgets()
	if qw >= w {
		t.Fatal("quick budgets not smaller")
	}
}

func TestTable4And5Render(t *testing.T) {
	var buf bytes.Buffer
	rows := Table4(Options{Out: &buf})
	if len(rows) != 2 {
		t.Fatalf("Table4 rows = %d", len(rows))
	}
	if !strings.Contains(buf.String(), "Table 4") {
		t.Fatal("Table 4 not rendered")
	}
	buf.Reset()
	rows5 := Table5(Options{Out: &buf})
	if len(rows5) != 4 {
		t.Fatalf("Table5 rows = %d", len(rows5))
	}
	if !strings.Contains(buf.String(), "Table 5") {
		t.Fatal("Table 5 not rendered")
	}
}

func TestCaseStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	o := tiny()
	o.Out = &buf
	res, err := CaseStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WS) != 5 {
		t.Fatalf("WS entries = %d", len(res.WS))
	}
	for m, ws := range res.WS {
		if ws <= 0 {
			t.Fatalf("%v WS = %v", m, ws)
		}
	}
	// The paper's case-study ordering: every DBI variant beats baseline.
	if res.WS[config.DBIAWBCLB] <= res.WS[config.Baseline] {
		t.Fatal("DBI+AWB+CLB did not beat baseline on the case study")
	}
	if !strings.Contains(buf.String(), "case study") {
		t.Fatal("not rendered")
	}
}

func TestCLBSensitivityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := CLBSensitivity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 3 {
		t.Fatalf("thresholds = %d", len(res.IPC))
	}
	// Section 6.4: no significant difference across reasonable values.
	if res.Spread > 0.15 {
		t.Fatalf("CLB spread %v too large", res.Spread)
	}
}

func TestDBIPolicyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := DBIPolicy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GMeanIPC) != 5 {
		t.Fatalf("policies = %d", len(res.GMeanIPC))
	}
	lrw := res.GMeanIPC[config.DBILRW]
	if lrw <= 0 {
		t.Fatal("LRW IPC zero")
	}
	// Paper: LRW comparable to or better than the others. Allow 10%
	// slack for the scaled configuration.
	for pol, ipc := range res.GMeanIPC {
		if ipc > lrw*1.10 {
			t.Fatalf("%v (%.4f) clearly beats LRW (%.4f)", pol, ipc, lrw)
		}
	}
}

func TestAreaPowerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := AreaPower(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.AreaReductionQuarter < 0.05 || res.AreaReductionQuarter > 0.11 {
		t.Fatalf("area reduction α=1/4 = %v, want ≈0.08", res.AreaReductionQuarter)
	}
	if res.AreaReductionHalf >= res.AreaReductionQuarter {
		t.Fatal("α=1/2 must save less area")
	}
	// Row-hit gains must reduce DRAM energy on the write-heavy subset.
	if res.DRAMEnergyReduction <= 0 {
		t.Fatalf("DRAM energy reduction = %v, want positive", res.DRAMEnergyReduction)
	}
}

func TestMixesFor(t *testing.T) {
	o := tiny()
	mixes := o.mixesFor(4)
	if len(mixes) == 0 {
		t.Fatal("no mixes")
	}
	for _, m := range mixes {
		if len(m.Benches) != 4 {
			t.Fatalf("%s: %d benches", m.Name, len(m.Benches))
		}
	}
	full := Options{Seed: 7}
	if len(full.mixesFor(2)) < len(mixes) {
		t.Fatal("full mode has fewer mixes than quick")
	}
}

func TestFlushExperiment(t *testing.T) {
	var buf bytes.Buffer
	o := tiny()
	o.Out = &buf
	res, err := Flush(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1 {
		t.Fatalf("DBI flush speedup = %v, want > 1", res.Speedup)
	}
	if res.TagWalkLookups <= res.DBIWalkLookups {
		t.Fatal("tag walk should need more lookups than the DBI walk")
	}
	if !strings.Contains(buf.String(), "flush") {
		t.Fatal("not rendered")
	}
}

// heapEngineCLBGolden holds the results of a sequential
// CLBSensitivity(tiny()) on the math/rand/v2 PCG random sources.
// TestParallelMatchesSequential checks both sweep paths against these
// values, extending the parallel==sequential identity to an identity
// across changes: no scheduler or pool change may perturb
// a single bit of any experiment's results.
var heapEngineCLBGolden = struct {
	ipc    map[float64]float64
	spread float64
}{
	ipc: map[float64]float64{
		0.50: 0.3519080732599452,
		0.75: 0.3685359206310932,
		0.95: 0.36862736146563135,
	},
	spread: 0.04751038545607922,
}

// TestParallelMatchesSequential is the harness's core invariant: a
// sweep fanned out over many workers must produce bit-identical
// results to the sequential path, because per-cell seeds depend only
// on cell identity, never on scheduling. It also pins both paths to
// the golden above.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seq := tiny()
	seq.Parallel = 1
	par := tiny()
	par.Parallel = 4
	a, err := CLBSensitivity(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CLBSensitivity(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IPC) != len(b.IPC) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.IPC), len(b.IPC))
	}
	for th, ipc := range a.IPC {
		if b.IPC[th] != ipc {
			t.Fatalf("threshold %.2f: sequential IPC %v != parallel IPC %v", th, ipc, b.IPC[th])
		}
	}
	if a.Spread != b.Spread {
		t.Fatalf("spread differs: %v vs %v", a.Spread, b.Spread)
	}
	if len(a.IPC) != len(heapEngineCLBGolden.ipc) {
		t.Fatalf("cell count %d differs from golden %d",
			len(a.IPC), len(heapEngineCLBGolden.ipc))
	}
	for th, want := range heapEngineCLBGolden.ipc {
		if got := a.IPC[th]; got != want {
			t.Errorf("threshold %.2f: IPC %v differs from golden %v", th, got, want)
		}
	}
	if a.Spread != heapEngineCLBGolden.spread {
		t.Errorf("spread %v differs from golden %v", a.Spread, heapEngineCLBGolden.spread)
	}
}

// TestRecorderCapturesCells checks that every simulation cell of a
// sweep lands in the JSON recorder with its metrics and timing.
func TestRecorderCapturesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny()
	o.Parallel = 2
	o.Recorder = &sweep.Recorder{}
	if _, err := CLBSensitivity(o); err != nil {
		t.Fatal(err)
	}
	recs := o.Recorder.Records()
	if len(recs) != 9 { // 3 thresholds x 3 benchmarks
		t.Fatalf("recorded %d cells, want 9", len(recs))
	}
	for _, r := range recs {
		if r.Experiment != "clbsens" || r.Benchmark == "" || r.Param == "" {
			t.Fatalf("incomplete record %+v", r)
		}
		if r.Metrics["ipc_core0"] <= 0 {
			t.Fatalf("record %s missing ipc metric", r.Key)
		}
		if r.Seed != o.seed() {
			t.Fatalf("record %s seed %d, want base seed %d (run-0 cell)", r.Key, r.Seed, o.seed())
		}
	}
}

func TestFig6OrderingCheck(t *testing.T) {
	res := &Fig6Result{GMeanIPC: map[config.Mechanism]float64{
		config.DBIAWBCLB: 0.95, config.DBIAWB: 0.94, config.DAWB: 0.93,
		config.VWQ: 0.92, config.TADIP: 0.91,
	}}
	if err := res.CheckPaperOrdering(); err != nil {
		t.Fatalf("valid ordering rejected: %v", err)
	}
	res.GMeanIPC[config.VWQ] = 0.94
	if err := res.CheckPaperOrdering(); err == nil {
		t.Fatal("violated ordering accepted")
	}
	delete(res.GMeanIPC, config.TADIP)
	if err := res.CheckPaperOrdering(); err == nil {
		t.Fatal("incomplete sweep accepted")
	}
}

// TestAloneCellsOnePerBenchmark: an alone call plans one alone cell per
// distinct benchmark, in first-seen order, however often its mixes name
// it; this decides how many alone records a sweep writes.
func TestAloneCellsOnePerBenchmark(t *testing.T) {
	p := &plan{}
	alone := p.alone("t", []string{"a", "b", "b", "c", "a"})
	var got []string
	for _, c := range p.cells {
		got = append(got, c.key.String())
	}
	want := []string{"t/alone/a/Baseline", "t/alone/b/Baseline", "t/alone/c/Baseline"}
	if !slices.Equal(got, want) {
		t.Fatalf("alone cells = %v, want %v", got, want)
	}
	for i, b := range []string{"a", "b", "c"} {
		if alone[b] != p.res[i] {
			t.Errorf("alone[%q] is not the result of its cell %s", b, want[i])
		}
	}
}

// TestRunCellsReusesEveryRepeat pins reuse in a run: a plan gives every
// cell of one identity the same Memo, so within one run every repeat of
// a cell is answered from the first one's result — exactly the 3
// repeats here, whatever earlier runs simulated — and every cell, run
// or reused, equals a fresh machine's Run.
func TestRunCellsReusesEveryRepeat(t *testing.T) {
	o := Options{Seed: 977, Parallel: 2}
	p := &plan{o: o}
	var cells []simCell
	var rs []*system.Results
	for _, b := range []string{"stream", "mcf", "stream", "lbm", "mcf", "stream"} {
		c := o.singleCell("plan", config.Baseline, b)
		c.cfg.WarmupInstructions, c.cfg.MeasureInstructions = 20000, 20000
		cells = append(cells, c)
		rs = append(rs, p.add(c))
	}
	before := system.PoolStat.Snapshot()
	if err := p.run("plan"); err != nil {
		t.Fatal(err)
	}
	// Three repeats: stream twice, mcf once.
	if d := system.PoolStat.Snapshot().Sub(before); d.CkptHits != 3 {
		t.Errorf("run reused %d cells, want 3", d.CkptHits)
	}
	for i, c := range cells {
		fresh, err := system.New(c.cfg, c.benches, o.seed())
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.Run(); !reflect.DeepEqual(*rs[i], want) {
			t.Errorf("cell %d (%s): reused vs fresh diverge\nreused: %+v\nfresh:  %+v", i, c.key, *rs[i], want)
		}
	}
}

// registered returns the Registry's experiments with the given ids.
func registered(t *testing.T, ids ...string) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range ids {
		i := slices.IndexFunc(Registry, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("no experiment %q in the registry", id)
		}
		exps = append(exps, Registry[i])
	}
	return exps
}

// TestJoinedPlanMatchesStandalone: a run that joins tab6 and area
// answers each of them exactly as its own run does — result, rendered
// table and records — while it simulates area's 3 baseline cells, which
// are tab6's alone cells, once: 33 planned cells, 30 identities.
func TestJoinedPlanMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if raceEnabled {
		t.Skip("deterministic equality of results; -race only multiplies the runtime")
	}
	type finished struct {
		res any
		out string
	}
	// run runs exps as one plan, records into rec, and finishes each
	// experiment into its own output.
	run := func(exps []Experiment, rec *sweep.Recorder) ([]finished, system.PoolSnapshot) {
		var buf bytes.Buffer
		o := tiny()
		o.Out = &buf
		o.Recorder = rec
		before := system.PoolStat.Snapshot()
		finishes, err := Run(o, "t", exps)
		if err != nil {
			t.Fatal(err)
		}
		pool := system.PoolStat.Snapshot().Sub(before)
		fs := make([]finished, len(finishes))
		for i, finish := range finishes {
			buf.Reset()
			res, err := finish()
			if err != nil {
				t.Fatal(err)
			}
			fs[i] = finished{res: res, out: buf.String()}
		}
		return fs, pool
	}

	exps := registered(t, "tab6", "area")
	joinedRec := &sweep.Recorder{}
	joined, pool := run(exps, joinedRec)
	if pool.Rebuilds != 30 || pool.CkptHits != 3 {
		t.Errorf("joined run simulated %d cells and reused %d, want 30 and 3", pool.Rebuilds, pool.CkptHits)
	}
	aloneRec := &sweep.Recorder{}
	for i, e := range exps {
		want, _ := run(exps[i:i+1], aloneRec)
		if !reflect.DeepEqual(joined[i].res, want[0].res) {
			t.Errorf("%s: joined result %+v, standalone %+v", e.ID, joined[i].res, want[0].res)
		}
		if joined[i].out != want[0].out {
			t.Errorf("%s: joined table\n%s\nstandalone table\n%s", e.ID, joined[i].out, want[0].out)
		}
	}
	got, want := joinedRec.Records(), aloneRec.Records()
	if len(got) != 33 || len(want) != 33 {
		t.Fatalf("joined run recorded %d cells and the standalone runs %d, want 33 each", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Metrics, want[i].Metrics) {
			t.Errorf("record %d: joined %s %v, standalone %s %v", i, got[i].Key, got[i].Metrics, want[i].Key, want[i].Metrics)
		}
	}
}

// labelSink records the label of every sweep the live monitor starts.
type labelSink struct {
	mu     sync.Mutex
	labels []string
}

func (s *labelSink) SweepStart(label string, _, _ int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.labels = append(s.labels, label)
}
func (s *labelSink) SweepEnd(string, int)                      {}
func (s *labelSink) CellStart(int, string)                     {}
func (s *labelSink) CellEnd(int, string, time.Duration, error) {}
func (s *labelSink) WorkerPanic(int, string, any)              {}

// TestSweepLabelNamesTheRun: the live monitor's sink sees each run
// under the name its caller gives it — a runner's own run its id, a
// joined run "all" — not its first cell's experiment, and Flush's own
// sweep as flushlat.
func TestSweepLabelNamesTheRun(t *testing.T) {
	// planOne plans one short single-core cell.
	planOne := func(p *plan) func() (any, error) {
		c := p.o.singleCell("t", config.Baseline, "stream")
		c.cfg.WarmupInstructions, c.cfg.MeasureInstructions = 20000, 20000
		p.add(c)
		return func() (any, error) { return nil, nil }
	}
	sink := &labelSink{}
	sweep.Live.Enable(sink)
	defer sweep.Live.Disable()
	o := Options{Parallel: 1}
	if _, err := runOne(o, "fig6", planOne); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(o, "tab3", []Experiment{{ID: "tab3", plan: planOne}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(o, "all", []Experiment{{ID: "fig6", plan: planOne}, {ID: "tab3", plan: planOne}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Flush(o); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if want := []string{"fig6", "tab3", "all", "flushlat"}; !slices.Equal(sink.labels, want) {
		t.Errorf("sweep labels = %v, want %v", sink.labels, want)
	}
}
