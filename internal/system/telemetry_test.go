package system

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/telemetry"
)

// telemetryCfg is a small-but-real configuration that exercises the
// whole instrumented path: DBI entry churn, AWB harvests, CLB bypasses
// and write-drain episodes.
func telemetryCfg() (config.SystemConfig, []string) {
	cfg := config.Scaled(1, config.DBIAWBCLB)
	cfg.WarmupInstructions = 60_000
	cfg.MeasureInstructions = 120_000
	return cfg, []string{"stream"}
}

// TestTelemetryDoesNotPerturbResults is the determinism contract: a run
// with tracing and time-series sampling enabled must produce Results
// bit-identical to a run without them.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cfg, benches := telemetryCfg()

	plain, err := New(cfg, benches, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run()

	traced, err := New(cfg, benches, 42,
		WithTracer(telemetry.NewTracer(1<<16)), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	smp := traced.Sampler()
	got := traced.Run()

	if !reflect.DeepEqual(want, got) {
		t.Errorf("telemetry perturbed Results:\nwithout: %+v\nwith:    %+v", want, got)
	}
	if traced.Tracer().Emitted() == 0 {
		t.Error("tracer collected no events")
	}
	if len(smp.Series().Samples) == 0 {
		t.Error("sampler collected no samples")
	}
}

// TestTraceContainsLifecycleEvents asserts the acceptance criteria on
// the trace content: DRAM bank-service duration events and DBI drain
// instants from a DBI+AWB+CLB run, serializable as valid JSON.
func TestTraceContainsLifecycleEvents(t *testing.T) {
	cfg, benches := telemetryCfg()
	trc := telemetry.NewTracer(1 << 16)
	sys, err := New(cfg, benches, 42, WithTracer(trc))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()

	want := map[string]bool{
		"dram/X/read":  false, // bank service spans
		"dram/X/write": false,
		"cpu/X":        false, // llc_read lifecycle spans
		"dbi/i":        false, // entry/drain instants
	}
	for _, e := range trc.Events() {
		switch {
		case e.Cat == "dram" && e.Ph == telemetry.PhaseComplete && e.Name == "read":
			want["dram/X/read"] = true
		case e.Cat == "dram" && e.Ph == telemetry.PhaseComplete && e.Name == "write":
			want["dram/X/write"] = true
		case e.Cat == "cpu" && e.Ph == telemetry.PhaseComplete:
			want["cpu/X"] = true
		case e.Cat == "dbi" && e.Ph == telemetry.PhaseInstant:
			want["dbi/i"] = true
		}
	}
	for k, ok := range want {
		if !ok {
			t.Errorf("trace is missing %s events", k)
		}
	}

	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no traceEvents")
	}
}

// TestTimeSeriesCoversRun checks that sampling yields epoch-spaced
// samples across the run, with DBI and DRAM columns present and the
// dirty-at-eviction histogram tracked.
func TestTimeSeriesCoversRun(t *testing.T) {
	cfg, benches := telemetryCfg()
	sys, err := New(cfg, benches, 42, WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	smp := sys.Sampler()
	sys.Run()

	ts := smp.Series()
	if len(ts.Samples) < 3 {
		t.Fatalf("only %d samples; want several epochs", len(ts.Samples))
	}
	cols := make(map[string]bool, len(ts.Metrics))
	for _, n := range ts.Metrics {
		cols[n] = true
	}
	for _, need := range []string{
		"cpu0.instructions", "llc.writeback_reqs", "llc.port.busy_cycles",
		"dbi.evictions", "dbi.valid_entries", "dram.writes", "dram.write_queue",
		"self.sim_cycles_per_sec", "self.engine_events_per_sec",
		"self.cells_per_sec", "self.allocs_per_cell",
	} {
		if !cols[need] {
			t.Errorf("time series missing column %s", need)
		}
	}
	if _, ok := ts.Histograms["dbi.dirty_at_eviction"]; !ok {
		t.Error("time series missing dbi.dirty_at_eviction histogram track")
	}
	if _, ok := ts.Histograms["dram.drain_burst"]; !ok {
		t.Error("time series missing dram.drain_burst histogram track")
	}
	for i, s := range ts.Samples[:len(ts.Samples)-1] {
		if want := uint64(10_000 * (i + 1)); s.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
	}
	for _, hs := range ts.Histograms["dbi.dirty_at_eviction"] {
		if hs.Count > 0 && (hs.P95 < hs.P50 || hs.P99 < hs.P95) {
			t.Fatalf("histogram quantiles not monotone: %+v", hs)
		}
	}
}

// TestTelemetrySplitPhaseMatchesMonolithic pins telemetry across the
// RunWarmup/RunMeasure fork boundary: a split run with a tracer and an
// epoch sampler attached must produce the same Results, the same trace
// events, and the same epoch time series (histograms included) as a
// monolithic Run — the sampler arms once at warmup and keeps ticking
// through the measurement phase.
func TestTelemetrySplitPhaseMatchesMonolithic(t *testing.T) {
	cfg, benches := telemetryCfg()

	mono, err := New(cfg, benches, 42,
		WithTracer(telemetry.NewTracer(1<<16)), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	wantRes := mono.Run()
	wantTS := mono.Sampler().Series()

	split, err := New(cfg, benches, 42,
		WithTracer(telemetry.NewTracer(1<<16)), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := split.RunWarmup(); err != nil {
		t.Fatalf("RunWarmup with telemetry: %v", err)
	}
	gotRes, err := split.RunMeasure()
	if err != nil {
		t.Fatalf("RunMeasure with telemetry: %v", err)
	}
	gotTS := split.Sampler().Series()

	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("split-phase run perturbed Results:\nmono:  %+v\nsplit: %+v", wantRes, gotRes)
	}
	if !reflect.DeepEqual(mono.Tracer().Events(), split.Tracer().Events()) {
		t.Error("split-phase trace differs from monolithic trace")
	}
	if !reflect.DeepEqual(wantTS.Metrics, gotTS.Metrics) {
		t.Fatalf("metric columns differ:\nmono:  %v\nsplit: %v", wantTS.Metrics, gotTS.Metrics)
	}
	if len(wantTS.Samples) != len(gotTS.Samples) {
		t.Fatalf("sample count differs: mono %d, split %d", len(wantTS.Samples), len(gotTS.Samples))
	}
	// The self.* gauges read the host's wall clock, so their values
	// legitimately differ run to run; every simulation-domain column
	// must match exactly.
	for i, want := range wantTS.Samples {
		got := gotTS.Samples[i]
		if want.Cycle != got.Cycle {
			t.Fatalf("sample %d cycle: mono %d, split %d", i, want.Cycle, got.Cycle)
		}
		for c, name := range wantTS.Metrics {
			if len(name) >= 5 && name[:5] == "self." {
				continue
			}
			if want.Values[c] != got.Values[c] {
				t.Errorf("sample %d %s: mono %v, split %v", i, name, want.Values[c], got.Values[c])
			}
		}
	}
	if !reflect.DeepEqual(wantTS.Histograms, gotTS.Histograms) {
		t.Error("histogram tracks differ between monolithic and split runs")
	}
}

// TestForkPoolMatchesTelemetryRun closes the loop between the fork
// scheduler and the telemetry contract: cells run through a ForkPool
// (which warms once and forks the second cell from the checkpoint) must
// be bit-identical to fresh monolithic runs with telemetry attached —
// i.e. the two "observation must not perturb" invariants compose.
func TestForkPoolMatchesTelemetryRun(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	cfg, benches := telemetryCfg()
	var pool ForkPool
	before := PoolStat.Snapshot()

	// Two measure budgets sharing one warmup identity: the first cell
	// is planned to have a sibling, so the second restores its
	// checkpoint.
	for i, measure := range []uint64{cfg.MeasureInstructions, cfg.MeasureInstructions / 2} {
		c := cfg
		c.MeasureInstructions = measure
		got, err := pool.Run(c, benches, 42, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(c, benches, 42,
			WithTracer(telemetry.NewTracer(1<<16)), WithTimeSeries(10_000))
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Run()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("measure=%d: forked cell differs from telemetry-attached scratch run:\nscratch: %+v\nforked:  %+v",
				measure, want, got)
		}
	}
	if d := PoolStat.Snapshot().Sub(before); d.CkptHits != 1 {
		t.Errorf("pool forked %d cells, want 1", d.CkptHits)
	}
}

// TestSelfMetricsReportThroughput checks that the simulator's
// self-throughput gauges carry live values during a run: the simulated
// clock and the event counter advance, so by the last full epoch both
// rates must be positive.
func TestSelfMetricsReportThroughput(t *testing.T) {
	cfg, benches := telemetryCfg()
	sys, err := New(cfg, benches, 42, WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	smp := sys.Sampler()
	sys.Run()

	ts := smp.Series()
	col := map[string]int{}
	for i, n := range ts.Metrics {
		col[n] = i
	}
	last := ts.Samples[len(ts.Samples)-1]
	if v := last.Values[col["self.sim_cycles_per_sec"]]; v <= 0 {
		t.Errorf("self.sim_cycles_per_sec = %v, want > 0", v)
	}
	if v := last.Values[col["self.engine_events_per_sec"]]; v <= 0 {
		t.Errorf("self.engine_events_per_sec = %v, want > 0", v)
	}
	// No sweep cells complete inside a single standalone run, so the
	// per-cell gauges stay at their well-defined zero.
	if v := last.Values[col["self.allocs_per_cell"]]; v < 0 {
		t.Errorf("self.allocs_per_cell = %v, want >= 0", v)
	}
}
