package sweep

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingSink collects every monitor event under a lock; callbacks
// arrive from worker goroutines concurrently.
type recordingSink struct {
	mu     sync.Mutex
	starts []string
	ends   []string
	sweeps []string
	panics []string
}

func (r *recordingSink) SweepStart(label string, workers, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweeps = append(r.sweeps, "start:"+label)
}

func (r *recordingSink) SweepEnd(label string, done int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweeps = append(r.sweeps, "end:"+label)
}

func (r *recordingSink) CellStart(worker int, key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, key)
}

func (r *recordingSink) CellEnd(worker int, key string, elapsed time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, key)
}

func (r *recordingSink) WorkerPanic(worker int, key string, recovered any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.panics = append(r.panics, key)
}

// TestMonitorPublishesSweep pins the live-status plumbing: an enabled
// monitor sees every cell start and end, the final snapshot reports the
// sweep complete and every lane idle, and results are untouched.
func TestMonitorPublishesSweep(t *testing.T) {
	const n = 12
	sink := &recordingSink{}
	Live.Enable(sink)
	defer Live.Disable()

	cells := make([]Cell[int], n)
	for i := range cells {
		cells[i] = busyCell(i)
	}
	outs, err := RunWithProgress("t", cells, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Value != i*i {
			t.Fatalf("cell %d: got %d, want %d", i, o.Value, i*i)
		}
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.starts) != n || len(sink.ends) != n {
		t.Errorf("sink saw %d starts / %d ends, want %d each", len(sink.starts), len(sink.ends), n)
	}
	for _, k := range sink.ends {
		if !strings.HasPrefix(k, "t/b") {
			t.Errorf("cell-end key %q does not carry the cell identity", k)
		}
	}
	if len(sink.sweeps) != 2 || sink.sweeps[0] != "start:t" || sink.sweeps[1] != "end:t" {
		t.Errorf("sweep events = %v, want [start:t end:t]", sink.sweeps)
	}
	if len(sink.panics) != 0 {
		t.Errorf("unexpected panic events: %v", sink.panics)
	}

	st, ok := Live.Snapshot()
	if !ok {
		t.Fatal("no status published")
	}
	if st.Label != "t" || st.Total != n || st.Done != n || st.Active {
		t.Errorf("final status = %+v, want label t, %d/%d done, inactive", st, n, n)
	}
	var laneDone int64
	for _, w := range st.Workers {
		if w.Cell != "" {
			t.Errorf("worker %d still shows cell %q after the sweep", w.Worker, w.Cell)
		}
		laneDone += w.Done
	}
	if laneDone != n {
		t.Errorf("lane counters sum to %d, want %d", laneDone, n)
	}
}

// TestMonitorDisabledIsInert checks the default path: with the monitor
// off, sweeps publish nothing and no status is ever visible beyond what
// an earlier enabled sweep left behind.
func TestMonitorDisabledIsInert(t *testing.T) {
	var m Monitor // fresh, never enabled
	if m.begin("x", 1, 1) {
		t.Fatal("disabled monitor accepted a sweep")
	}
	if _, ok := m.Snapshot(); ok {
		t.Fatal("disabled monitor published a status")
	}
}

// TestMonitorSeesWorkerPanic pins the crash path at the monitor level:
// a worker that dies mid-cell reports the in-flight cell's identity to
// the sink (the flight recorder's flush hook). The end-to-end re-panic
// in RunWithProgress cannot run under `go test` — an unrecovered worker
// panic is rightly fatal to the process — so the test drives the same
// calls the worker's deferred recover makes.
func TestMonitorSeesWorkerPanic(t *testing.T) {
	sink := &recordingSink{}
	var m Monitor
	m.Enable(sink)
	if !m.begin("boom", 1, 1) {
		t.Fatal("enabled monitor refused a sweep")
	}
	m.cellStart(0, Key{Experiment: "boom", Benchmark: "b"})
	m.workerPanic(0, "cell exploded")

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.panics) != 1 || sink.panics[0] != "boom/b" {
		t.Errorf("panic events = %v, want [boom/b]", sink.panics)
	}
}
