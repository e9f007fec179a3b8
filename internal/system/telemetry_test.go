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

// TestReusedCellMatchesTelemetryRun closes the loop between sweep
// reuse and the telemetry contract: a cell run through a Memo, and its
// repeat answered from the remembered result, must both be
// bit-identical to a fresh monolithic run with telemetry attached —
// i.e. the two "observation must not perturb" invariants compose.
func TestReusedCellMatchesTelemetryRun(t *testing.T) {
	cfg, benches := telemetryCfg()
	fresh, err := New(cfg, benches, 42,
		WithTracer(telemetry.NewTracer(1<<16)), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()
	m := NewMemo(cfg, benches, 42)
	before := PoolStat.Snapshot()
	for run := 0; run < 2; run++ {
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %d: memo cell differs from telemetry-attached scratch run:\nscratch: %+v\nmemo:    %+v",
				run, want, got)
		}
	}
	if d := PoolStat.Snapshot().Sub(before); d.CkptHits != 1 {
		t.Errorf("memo reused %d cells, want 1", d.CkptHits)
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
}
