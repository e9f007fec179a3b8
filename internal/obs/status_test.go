package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// startOps starts an ops server on an ephemeral port and undoes its
// process-wide hooks when the test ends.
func startOps(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		sweep.Live.Disable()
		system.SetPoolEventHook(nil)
	})
	return srv
}

// getSweep fetches /sweep twice over: decoded, and as its raw objects
// (the document and each worker lane) for checking the served names.
func getSweep(t *testing.T, srv *Server) (sweepDoc, map[string]json.RawMessage, []map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var doc sweepDoc
	var fields map[string]json.RawMessage
	var lanes struct {
		Workers []map[string]json.RawMessage `json:"workers"`
	}
	for _, into := range []any{&doc, &fields, &lanes} {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("/sweep: %v\n%s", err, raw)
		}
	}
	return doc, fields, lanes.Workers
}

func keysOf[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// procCellsDone scrapes proc.cells_done from /metrics.
func procCellsDone(t *testing.T, srv *Server) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "dbi_proc_cells_done_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("/metrics has no dbi_proc_cells_done_total")
	return 0
}

// TestSweepStatusFollowsCells drives /sweep through a sweep whose first
// cell blocks until released: before the first sweep it serves the
// status fields zeroed; while the cell blocks, its worker's lane shows
// the cell and its start time; once the sweep ends, every lane is idle
// and the lanes' cells_done sum to cells_done. The served field names
// are the ones /sweep has always had.
func TestSweepStatusFollowsCells(t *testing.T) {
	srv := startOps(t, Config{})

	doc, fields, _ := getSweep(t, srv)
	if want := []string{"active", "cells_done", "cells_total", "elapsed_sec", "label", "pool", "seq", "start_ns"}; !slices.Equal(keysOf(fields), want) {
		t.Errorf("/sweep fields before any sweep = %v, want %v", keysOf(fields), want)
	}
	if doc.Seq != 0 || doc.Done != 0 || doc.ElapsedSec != 0 || doc.PoolSweep != nil {
		t.Errorf("/sweep before any sweep = %+v, want zero status", doc)
	}

	const quick = 5
	blockKey := sweep.Key{Experiment: "obs-block", Benchmark: "held"}
	started, release := make(chan struct{}), make(chan struct{})
	cells := []sweep.Cell[int]{{Key: blockKey, Run: func() (int, error) {
		close(started)
		<-release
		return 0, nil
	}}}
	for i := 0; i < quick; i++ {
		cells = append(cells, sweep.Cell[int]{
			Key: sweep.Key{Experiment: "obs-block", Param: strconv.Itoa(i)},
			Run: func() (int, error) { return i, nil },
		})
	}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := sweep.RunWithProgress("obs-block", cells, 2, nil)
		sweepDone <- err
	}()
	<-started

	// The other worker runs every quick cell while the first one blocks.
	deadline := time.Now().Add(10 * time.Second)
	for doc, _, _ = getSweep(t, srv); doc.Done < quick; doc, _, _ = getSweep(t, srv) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("quick cells never finished: %+v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
	doc, fields, lanes := getSweep(t, srv)
	if want := []string{"active", "cells_done", "cells_total", "elapsed_sec", "eta_sec", "label", "pool", "pool_sweep", "seq", "start_ns", "workers"}; !slices.Equal(keysOf(fields), want) {
		t.Errorf("/sweep fields mid-sweep = %v, want %v", keysOf(fields), want)
	}
	if doc.Seq < 1 || doc.Label != "obs-block" || doc.Total != quick+1 || doc.Done != quick || !doc.Active {
		t.Errorf("/sweep mid-sweep = %+v, want obs-block %d/%d active", doc.sweepStatus, quick, quick+1)
	}
	held := 0
	for i, w := range doc.Workers {
		if w.Cell == "" {
			continue
		}
		held++
		if w.Cell != blockKey.String() || w.StartNS < doc.StartNS {
			t.Errorf("lane %d shows cell %q started at %d, want %q at or after %d", w.Worker, w.Cell, w.StartNS, blockKey, doc.StartNS)
		}
		if want := []string{"cell", "cell_start_ns", "cells_done", "worker"}; !slices.Equal(keysOf(lanes[i]), want) {
			t.Errorf("busy lane fields = %v, want %v", keysOf(lanes[i]), want)
		}
	}
	if held != 1 {
		t.Errorf("%d lanes show a cell mid-sweep, want 1: %+v", held, doc.Workers)
	}

	close(release)
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
	doc, _, _ = getSweep(t, srv)
	if doc.Active || doc.Done != quick+1 || len(doc.Workers) != 2 {
		t.Errorf("/sweep after the sweep = %+v, want %d cells done on 2 lanes, inactive", doc.sweepStatus, quick+1)
	}
	laneDone := 0
	for _, w := range doc.Workers {
		if w.Cell != "" || w.StartNS != 0 {
			t.Errorf("lane %d still shows cell %q after the sweep", w.Worker, w.Cell)
		}
		laneDone += w.Done
	}
	if laneDone != doc.Done {
		t.Errorf("lanes' cells_done sum to %d, cells_done is %d", laneDone, doc.Done)
	}
}

// TestProcCellsDoneCountsCompletedCells: proc.cells_done is the count
// of cells the ops plane saw complete without error — a failed cell
// ends but does not count, and cells the failure skipped never start.
func TestProcCellsDoneCountsCompletedCells(t *testing.T) {
	srv := startOps(t, Config{})
	ok := func() (int, error) { return 1, nil }
	fail := func() (int, error) { return 0, errors.New("cell failed") }
	cells := []sweep.Cell[int]{
		{Key: Key{Experiment: "obs-count", Param: "0"}, Run: ok},
		{Key: Key{Experiment: "obs-count", Param: "1"}, Run: ok},
		{Key: Key{Experiment: "obs-count", Param: "2"}, Run: ok},
	}
	if _, err := sweep.RunWithProgress("obs-count", cells, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := procCellsDone(t, srv); got != 3 {
		t.Errorf("proc.cells_done after a 3-cell sweep = %d, want 3", got)
	}

	failed := sweep.Cell[int]{Key: Key{Experiment: "obs-count", Param: "fail"}, Run: fail}
	cells = []sweep.Cell[int]{cells[0], cells[1], failed, cells[2]}
	if _, err := sweep.RunWithProgress("obs-count", cells, 1, nil); err == nil {
		t.Fatal("a sweep with a failing cell returned no error")
	}
	if got := procCellsDone(t, srv); got != 5 {
		t.Errorf("proc.cells_done after 2 more completed cells = %d, want 5", got)
	}
	if doc, _, _ := getSweep(t, srv); doc.Done != 3 {
		t.Errorf("/sweep cells_done = %d, want the 3 cells that ended", doc.Done)
	}
}

// crashChildEnv carries the flight-record path to the child process of
// TestFlightRecordDumpOnCellPanic.
const crashChildEnv = "OBS_TEST_CRASH_FLIGHT_PATH"

// TestFlightRecordDumpOnCellPanic pins the crash path end to end: with
// the ops plane on, a cell that panics makes RunWithProgress's recover
// report the cell's key to the flight recorder, which dumps its record
// before the panic kills the process. The dump holds the panic instant
// named for the cell and the cell's span, opened and never closed. The
// test re-runs its own binary as the child that crashes.
func TestFlightRecordDumpOnCellPanic(t *testing.T) {
	if path := os.Getenv(crashChildEnv); path != "" {
		startOps(t, Config{FlightPath: path})
		ok := func() (int, error) { return 1, nil }
		boom := func() (int, error) { panic("cell exploded") }
		sweep.RunWithProgress("obs-crash", []sweep.Cell[int]{
			{Key: Key{Experiment: "obs-crash", Benchmark: "a"}, Run: ok},
			{Key: Key{Experiment: "obs-crash", Benchmark: "b"}, Run: boom},
		}, 1, nil)
		t.Fatal("the sweep returned after a cell panicked")
	}
	path := t.TempDir() + "/flight.json"
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlightRecordDumpOnCellPanic$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child survived a cell panic:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no flight record dumped: %v\nchild output:\n%s", err, out)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("dumped flight record is not valid JSON: %v", err)
	}
	phases := map[string]string{} // event name -> its phases, in order
	for _, e := range doc.TraceEvents {
		phases[e.Name] += e.Ph
	}
	if phases["panic:obs-crash/b"] != "i" {
		t.Errorf("dump has no panic:obs-crash/b instant; events %v", phases)
	}
	if phases["obs-crash/b"] != "B" {
		t.Errorf("panicked cell's span phases = %q, want one open B", phases["obs-crash/b"])
	}
	if phases["obs-crash/a"] != "BE" {
		t.Errorf("completed cell's span phases = %q, want BE", phases["obs-crash/a"])
	}
}
