package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dbisim/internal/stats"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var trc *Tracer
	trc.Complete("cat", "name", 1, 10, 20, 0)
	trc.Instant("cat", "name", 1, 10, 0)
	trc.NameThread(1, "x")
	if trc.Len() != 0 || trc.Emitted() != 0 || trc.Dropped() != 0 {
		t.Fatalf("nil tracer accumulated state: len=%d emitted=%d", trc.Len(), trc.Emitted())
	}
	if evs := trc.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		trc.Complete("dram", "read", 3, 100, 200, 42)
		trc.Instant("dbi", "entry_evict", TIDDBI, 100, 7)
	})
	if allocs != 0 {
		t.Errorf("nil tracer emit allocates %.1f per run, want 0", allocs)
	}
}

func TestTracerEmitDoesNotAllocate(t *testing.T) {
	trc := NewTracer(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		trc.Complete("dram", "read", 3, 100, 200, 42)
		trc.Instant("dbi", "entry_evict", TIDDBI, 100, 7)
	})
	if allocs != 0 {
		t.Errorf("enabled tracer emit allocates %.1f per run, want 0", allocs)
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	trc := NewTracer(4)
	for i := 0; i < 10; i++ {
		trc.Instant("c", "e", 0, uint64(i), uint64(i))
	}
	if trc.Len() != 4 {
		t.Fatalf("Len = %d, want 4", trc.Len())
	}
	if trc.Emitted() != 10 || trc.Dropped() != 6 {
		t.Fatalf("emitted=%d dropped=%d, want 10/6", trc.Emitted(), trc.Dropped())
	}
	evs := trc.Events()
	for i, e := range evs {
		if want := uint64(6 + i); e.TS != want {
			t.Errorf("event %d TS = %d, want %d (oldest-first order)", i, e.TS, want)
		}
	}
}

func TestTracerJSONIsChromeTraceFormat(t *testing.T) {
	trc := NewTracer(16)
	trc.NameThread(TIDLLC, "llc")
	trc.Complete("dram", "write", TIDBank(2), 50, 80, 99)
	trc.Instant("dbi", "entry_evict", TIDDBI, 60, 3)
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // metadata + 2 events
		t.Fatalf("traceEvents len = %d, want 3", len(doc.TraceEvents))
	}
	var sawX, sawI, sawM bool
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			sawX = true
			if e["dur"].(float64) != 30 {
				t.Errorf("complete event dur = %v, want 30", e["dur"])
			}
		case "i":
			sawI = true
		case "M":
			sawM = true
		}
	}
	if !sawX || !sawI || !sawM {
		t.Fatalf("missing phases: X=%v i=%v M=%v", sawX, sawI, sawM)
	}
}

func TestRegistryAndSamplerDeltasAndGauges(t *testing.T) {
	var c stats.Counter
	depth := 0
	reg := NewRegistry()
	reg.CounterStat("reads", &c)
	reg.Gauge("queue", func() float64 { return float64(depth) })

	smp := NewSampler(reg, 100)
	c.Add(5)
	depth = 3
	smp.Tick(100)
	c.Add(7)
	depth = 1
	smp.Tick(200)
	smp.Finish(200) // no-op: already sampled at 200
	smp.Finish(250) // tail partial epoch

	ts := smp.Series()
	if len(ts.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(ts.Samples))
	}
	if got := ts.Samples[0].Values; got[0] != 5 || got[1] != 3 {
		t.Errorf("epoch 1 = %v, want [5 3]", got)
	}
	if got := ts.Samples[1].Values; got[0] != 7 || got[1] != 1 {
		t.Errorf("epoch 2 = %v, want [7 1] (counter must be a delta)", got)
	}
	if got := ts.Samples[2].Values; got[0] != 0 {
		t.Errorf("tail epoch counter delta = %v, want 0", got[0])
	}
	if ts.Samples[2].Cycle != 250 {
		t.Errorf("tail cycle = %d, want 250", ts.Samples[2].Cycle)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var reg *Registry
	var c stats.Counter
	reg.CounterStat("x", &c)
	reg.Gauge("y", func() float64 { return 0 })
	reg.Histogram("z", stats.NewHistogram(4))
	if n := reg.Names(); n != nil {
		t.Fatalf("nil registry has names %v", n)
	}
}

func TestSamplerHistogramSnapshots(t *testing.T) {
	h := stats.NewHistogram(4)
	reg := NewRegistry()
	reg.Histogram("dbi.dirty_at_eviction", h)
	smp := NewSampler(reg, 10)
	h.Observe(2)
	h.Observe(2)
	smp.Tick(10)
	h.Observe(4)
	smp.Tick(20)
	tracks := smp.Series().Histograms["dbi.dirty_at_eviction"]
	if len(tracks) != 2 {
		t.Fatalf("histogram snapshots = %d, want 2", len(tracks))
	}
	if tracks[0].Count != 2 || tracks[0].Buckets[2] != 2 {
		t.Errorf("snapshot 1 = %+v", tracks[0])
	}
	if tracks[1].Count != 3 || tracks[1].Buckets[4] != 1 {
		t.Errorf("snapshot 2 = %+v", tracks[1])
	}
	// Quantiles ride along precomputed: {2,2} → all quantiles at 2;
	// {2,2,4} → p50 stays 2, the tail quantiles move to 4.
	if tracks[0].P50 != 2 || tracks[0].P95 != 2 || tracks[0].P99 != 2 {
		t.Errorf("snapshot 1 quantiles = %+v, want p50=p95=p99=2", tracks[0])
	}
	if tracks[1].P50 != 2 || tracks[1].P95 != 4 || tracks[1].P99 != 4 {
		t.Errorf("snapshot 2 quantiles = %+v, want p50=2 p95=p99=4", tracks[1])
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	var c stats.Counter
	reg := NewRegistry()
	reg.CounterStat("a.b", &c)
	smp := NewSampler(reg, 10)
	c.Add(2)
	smp.Tick(10)
	c.Add(3)
	smp.Tick(20)
	var buf bytes.Buffer
	if err := smp.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cycle,a.b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != "20,3" {
		t.Errorf("row 2 = %q, want \"20,3\"", lines[2])
	}
}

func TestTimeSeriesJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var c stats.Counter
	reg.CounterStat("m", &c)
	smp := NewSampler(reg, 1000)
	c.Inc()
	smp.Tick(1000)
	var buf bytes.Buffer
	if err := smp.Series().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got TimeSeries
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.EpochCycles != 1000 || len(got.Metrics) != 1 || len(got.Samples) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
