package sweep

import (
	"fmt"
	"os"
	"os/exec"
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
	ended  int // SweepEnd's count
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
	r.ended = done
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

// calls counts every sink event received.
func (r *recordingSink) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.starts) + len(r.ends) + len(r.sweeps) + len(r.panics)
}

// TestMonitorPublishesSweep pins the forwarding: an installed sink sees
// the sweep start, every cell start and end with the cell's key, and the
// sweep end with the count of cells that ended, and results are
// untouched.
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
	if sink.ended != n {
		t.Errorf("SweepEnd reported %d cells ended, want %d", sink.ended, n)
	}
	if len(sink.panics) != 0 {
		t.Errorf("unexpected panic events: %v", sink.panics)
	}
}

// TestMonitorDisabledIsInert checks the default path: a sweep with no
// sink installed, after Disable or Enable(nil), makes no sink call.
func TestMonitorDisabledIsInert(t *testing.T) {
	sink := &recordingSink{}
	cells := []Cell[int]{busyCell(1), busyCell(2)}
	for _, off := range []func(){Live.Disable, func() { Live.Enable(nil) }} {
		Live.Enable(sink)
		off()
		if _, err := RunWithProgress("x", cells, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := sink.calls(); n != 0 {
		t.Errorf("a sweep with no sink installed made %d sink calls", n)
	}
}

// panicChildEnv marks the child process of TestMonitorSeesWorkerPanic.
const panicChildEnv = "SWEEP_TEST_PANIC_CHILD"

// panicReporter prints the key WorkerPanic receives, for the parent
// process to read after the child dies.
type panicReporter struct{ recordingSink }

func (*panicReporter) WorkerPanic(worker int, key string, recovered any) {
	fmt.Fprintf(os.Stderr, "worker-panic key=%q recovered=%v\n", key, recovered)
}

// TestMonitorSeesWorkerPanic pins the crash path end to end: a cell that
// panics reaches RunWithProgress's deferred recover, which reports the
// in-flight cell's key to the sink and re-raises. An unrecovered worker
// panic is rightly fatal to the process, so the test re-runs its own
// binary as a child that runs the panicking sweep and reads what the
// child's sink printed before it died.
func TestMonitorSeesWorkerPanic(t *testing.T) {
	if os.Getenv(panicChildEnv) != "" {
		Live.Enable(&panicReporter{})
		ok := func() (int, error) { return 1, nil }
		boom := func() (int, error) { panic("cell exploded") }
		RunWithProgress("boom", []Cell[int]{
			{Key: Key{Experiment: "boom", Benchmark: "a"}, Run: ok},
			{Key: Key{Experiment: "boom", Benchmark: "b"}, Run: boom},
			{Key: Key{Experiment: "boom", Benchmark: "c"}, Run: ok},
		}, 1, nil)
		t.Fatal("the sweep returned after a cell panicked")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMonitorSeesWorkerPanic$")
	cmd.Env = append(os.Environ(), panicChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child survived a cell panic:\n%s", out)
	}
	if !strings.Contains(string(out), `worker-panic key="boom/b" recovered=cell exploded`) {
		t.Errorf("the sink did not receive the panicked cell's key:\n%s", out)
	}
}
