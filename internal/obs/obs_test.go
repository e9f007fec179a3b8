package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dbisim/internal/stats"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
	"dbisim/internal/telemetry"
)

// TestPrometheusExposition pins the text format: counters carry _total,
// gauges do not, histograms export cumulative le buckets ending at +Inf
// with _sum and _count, and names are mangled into the dbi_ namespace.
func TestPrometheusExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pool.rebuilds", func() uint64 { return 7 })
	reg.Gauge("proc.goroutines", func() float64 { return 3 })
	h := stats.NewHistogram(2) // values 0,1 plus overflow
	h.Observe(0)
	h.Observe(1)
	h.Observe(1)
	h.Observe(9) // clamps into overflow
	reg.Histogram("dbi.dirty_at_eviction", h)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dbi_pool_rebuilds_total counter\n",
		"dbi_pool_rebuilds_total 7\n",
		"# TYPE dbi_proc_goroutines gauge\n",
		"dbi_proc_goroutines 3\n",
		"# TYPE dbi_dbi_dirty_at_eviction histogram\n",
		"dbi_dbi_dirty_at_eviction_bucket{le=\"0\"} 1\n",
		"dbi_dbi_dirty_at_eviction_bucket{le=\"1\"} 3\n",
		"dbi_dbi_dirty_at_eviction_bucket{le=\"+Inf\"} 4\n",
		"dbi_dbi_dirty_at_eviction_sum 11\n",
		"dbi_dbi_dirty_at_eviction_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFlightRecorderRing pins ring semantics: a lane overwrites its
// oldest events, snapshots come back oldest-first, and the trace JSON
// is valid Chrome trace-event format with named lanes.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.PoolEvent(0, fmt.Sprintf("k%d", i), "")
	}
	f.SweepStart("fig6", 2, 10)

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("flight record is not valid JSON: %v", err)
	}
	var names []string
	laneNames := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			laneNames[e.TID] = e.Args["name"].(string)
			continue
		}
		if e.TID == 1 {
			names = append(names, e.Name)
		}
	}
	// Capacity 4: k0/k1 were overwritten, k2..k5 remain, oldest first.
	want := []string{"pool:k2", "pool:k3", "pool:k4", "pool:k5"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("worker lane events = %v, want %v", names, want)
	}
	if laneNames[0] != "control" || laneNames[1] != "worker 0" {
		t.Errorf("lane names = %v, want control / worker 0", laneNames)
	}
}

// TestTermLogInterleaving pins the satellite-3 fix: a log write through
// the TermLog erases the dangling progress line first and redraws it
// after, so the log line is never spliced into the progress text.
func TestTermLogInterleaving(t *testing.T) {
	var buf bytes.Buffer
	tl := NewTermLog(&buf)
	tl.SetProgress("[fig6] 3/10 cells")
	fmt.Fprintf(tl, "dbibench: note\n")
	out := buf.String()
	want := clearSeq + "[fig6] 3/10 cells" + clearSeq + "dbibench: note\n" + clearSeq + "[fig6] 3/10 cells"
	if out != want {
		t.Errorf("interleaving:\n got %q\nwant %q", out, want)
	}
	if !tl.dirty {
		t.Error("progress line not redrawn after the log write")
	}

	buf.Reset()
	tl.EndProgress("[fig6] 10/10 cells")
	if got := buf.String(); got != clearSeq+"[fig6] 10/10 cells\n" {
		t.Errorf("EndProgress wrote %q", got)
	}
	if tl.dirty {
		t.Error("EndProgress left the terminal dirty")
	}

	// With no progress line pending, Write is a plain passthrough.
	buf.Reset()
	fmt.Fprintf(tl, "plain\n")
	if got := buf.String(); got != "plain\n" {
		t.Errorf("passthrough wrote %q", got)
	}
	tl.ClearProgress() // idempotent on a clean terminal
	if buf.String() != "plain\n" {
		t.Error("ClearProgress wrote despite a clean terminal")
	}
}

// TestServerEndpoints boots a real server on an ephemeral port and
// walks the surface: /metrics serves the pool counters in exposition
// format, /sweep serves JSON (and reflects a live monitor snapshot),
// /debug/flightrecord serves a valid trace, and expvar answers.
func TestServerEndpoints(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		sweep.Live.Disable()
		system.SetPoolEventHook(nil)
	}()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, name := range []string{
		"dbi_pool_rebuilds_total", "dbi_fork_ckpt_hits_total",
		"dbi_proc_cells_done_total", "dbi_proc_goroutines",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// Run a tiny monitored sweep so /sweep has something to show.
	cells := []sweep.Cell[int]{{
		Key: Key{},
		Run: func() (int, error) { return 1, nil },
	}}
	cells[0].Key.Experiment = "obs-test"
	if _, err := sweep.RunWithProgress("obs-test", cells, 1, nil); err != nil {
		t.Fatal(err)
	}
	body, ctype := get("/sweep")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/sweep content type = %q", ctype)
	}
	var doc sweepDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/sweep is not valid JSON: %v\n%s", err, body)
	}
	if doc.Label != "obs-test" || doc.Done != 1 || doc.Total != 1 || doc.Active {
		t.Errorf("/sweep status = %+v, want obs-test 1/1 inactive", doc.Status)
	}

	flightBody, _ := get("/debug/flightrecord")
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(flightBody), &trace); err != nil {
		t.Fatalf("/debug/flightrecord is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("/debug/flightrecord has no events after a monitored sweep")
	}
	if !strings.Contains(flightBody, "sweep:obs-test") {
		t.Error("flight record missing the sweep-start instant")
	}

	if vars, _ := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Error("/debug/vars missing memstats")
	}
	if idx, _ := get("/"); !strings.Contains(idx, "/metrics") {
		t.Error("index page does not link /metrics")
	}
}

// Key aliases sweep.Key for test brevity.
type Key = sweep.Key

// TestSweepStreamSSE checks one server-sent event frame arrives and is
// valid JSON.
func TestSweepStreamSSE(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		sweep.Live.Disable()
		system.SetPoolEventHook(nil)
	}()

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/sweep?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	line := make([]byte, 64<<10)
	n, err := resp.Body.Read(line)
	if err != nil && n == 0 {
		t.Fatal(err)
	}
	frame := string(line[:n])
	if !strings.HasPrefix(frame, "data: ") {
		t.Fatalf("first SSE frame = %q", frame)
	}
	payload := strings.TrimPrefix(strings.Split(frame, "\n")[0], "data: ")
	var doc sweepDoc
	if err := json.Unmarshal([]byte(payload), &doc); err != nil {
		t.Fatalf("SSE payload is not valid JSON: %v\n%s", err, payload)
	}
}

// TestPrometheusHelpLines pins the metadata contract satellite: every
// exported family carries a # HELP line naming the owning subsystem,
// immediately preceding its # TYPE line, and family prefixes resolve
// to curated text rather than the generic fallback.
func TestPrometheusHelpLines(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pool.rebuilds", func() uint64 { return 1 })
	reg.Counter("llc.reads", func() uint64 { return 2 })
	reg.Gauge("proc.goroutines", func() float64 { return 3 })
	telemetry.AttrTotals.RegisterMetrics(reg)
	h := stats.NewHistogram(2)
	h.Observe(1)
	reg.Histogram("dram.drain_burst", h)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	types := 0
	for i, l := range lines {
		if !strings.HasPrefix(l, "# TYPE ") {
			continue
		}
		types++
		name := strings.Fields(l)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s: # TYPE not preceded by its # HELP line", name)
		}
	}
	if types == 0 {
		t.Fatal("no # TYPE lines in exposition")
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dbi_pool_rebuilds_total Simulator machine pool activity",
		"# HELP dbi_llc_reads_total Shared last-level cache activity",
		"# HELP dbi_proc_goroutines Host process runtime state",
		"# HELP dbi_dram_drain_burst DRAM controller command and queue activity",
		"# HELP dbi_attr_cpu_issue_total Attribution category charge",
		"# HELP dbi_attr_domain_dram_bus_total Attribution domain total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing curated help %q", want)
		}
	}
	if got := helpFor("unheard.of"); got != "Simulator metric unheard.of" {
		t.Errorf("generic fallback = %q", got)
	}
}

// TestSweepPoolDelta pins the per-sweep pool summary satellite: /sweep
// reports the pool counters' movement since the current sweep began
// (pool_sweep), not just the cumulative process totals, and the delta
// rebaselines at each new sweep.
func TestSweepPoolDelta(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		sweep.Live.Disable()
		system.SetPoolEventHook(nil)
	}()
	getDoc := func() sweepDoc {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/sweep")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc sweepDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	// Before any sweep: cumulative pool numbers only, no per-sweep block.
	if doc := getDoc(); doc.PoolSweep != nil {
		t.Errorf("pool_sweep present before any sweep: %+v", doc.PoolSweep)
	}

	// Each monitored sweep moves the process-wide pool counters as the
	// pools would; the per-sweep delta must cover exactly one sweep's
	// worth no matter how much history preceded it.
	runSweep := func(label string, hits, rebuilds uint64) {
		t.Helper()
		cells := []sweep.Cell[int]{{
			Key: Key{Experiment: label},
			Run: func() (int, error) {
				system.PoolStat.CkptHits.Add(hits)
				system.PoolStat.Rebuilds.Add(rebuilds)
				return 1, nil
			},
		}}
		if _, err := sweep.RunWithProgress(label, cells, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	runSweep("first", 9, 1)
	doc := getDoc()
	if doc.PoolSweep == nil {
		t.Fatal("pool_sweep absent after a monitored sweep")
	}
	if doc.PoolSweep.CkptHits != 9 || doc.PoolSweep.Rebuilds != 1 {
		t.Errorf("first sweep delta = %+v, want hits=9 rebuilds=1", doc.PoolSweep.PoolSnapshot)
	}
	if doc.PoolSweep.CkptHitRate != 0.9 {
		t.Errorf("ckpt_hit_rate = %v, want 0.9", doc.PoolSweep.CkptHitRate)
	}

	runSweep("second", 1, 3)
	doc = getDoc()
	if doc.PoolSweep.CkptHits != 1 || doc.PoolSweep.Rebuilds != 3 {
		t.Errorf("second sweep delta = %+v, want rebaselined hits=1 rebuilds=3", doc.PoolSweep.PoolSnapshot)
	}
	if doc.PoolSweep.CkptHitRate != 0.25 {
		t.Errorf("ckpt_hit_rate = %v, want 0.25", doc.PoolSweep.CkptHitRate)
	}
	// Cumulative totals keep growing across sweeps.
	if doc.Pool.CkptHits < 10 {
		t.Errorf("cumulative ckpt_hits = %d, want >= 10", doc.Pool.CkptHits)
	}
}
