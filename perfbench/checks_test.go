package main

import (
	"math"
	"os"
	"testing"

	"dbisim/pkg/dbiproto"
)

func TestBadMetric(t *testing.T) {
	for _, c := range []struct {
		m   map[string]float64
		bad bool
	}{
		{map[string]float64{"write_row_hit_rate": 0.4, "ipc_core0": 1.2}, false},
		{map[string]float64{"write_row_hit_rate": 1.01}, true},
		{map[string]float64{"read_row_hit_rate": -0.1}, true},
		{map[string]float64{"ipc_core1": 0}, true},
		{map[string]float64{"llc_mpki": math.NaN()}, true},
		{map[string]float64{}, true},
	} {
		if got := badMetric(c.m) != ""; got != c.bad {
			t.Errorf("badMetric(%v) flagged %v, want %v", c.m, got, c.bad)
		}
	}
}

// TestReturnedKeys: a returned key must be one some connection's plan
// sets; anything else is a wrong answer that fails the request.
func TestReturnedKeys(t *testing.T) {
	sets := []*bitset{{}, {}}
	sets[0].set(5)
	sets[1].set(7)
	c := &conn{sets: sets}
	if !c.checkReturned([]uint64{5, connBase(1) + 7}) {
		t.Errorf("planned keys rejected: %s", c.firstWrong)
	}
	for _, k := range []uint64{6, connBase(1) + 5, connBase(2) + 5} {
		if c.checkReturned([]uint64{k}) {
			t.Errorf("key %#x accepted", k)
		}
	}
	if c.wrong != 3 {
		t.Errorf("%d wrong answers counted, want 3", c.wrong)
	}
	read := &conn{sets: []*bitset{nil, nil}}
	if read.checkReturned([]uint64{5}) {
		t.Error("a read workload accepted an evicted key")
	}
}

// TestFailedCheckExitsNonZero: any failed check makes the run exit 1 with
// correct=false.
func TestFailedCheckExitsNonZero(t *testing.T) {
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = stdout; devnull.Close() }()

	ok := &result{attempted: 1, metrics: map[string]float64{"wall_s": 1, "setup_s": 1, "peak_rss_mb": 1,
		"max_rps": 1, "p50_us_lo": 1, "p99_us_lo": 1, "p50_us_hi": 1, "p99_us_hi": 1}}
	if code := report(args{}, ok); code != 0 {
		t.Errorf("clean run exited %d", code)
	}
	bad := &result{attempted: 1, metrics: ok.metrics}
	bad.problem("answer mismatch")
	if code := report(args{}, bad); code != 1 {
		t.Errorf("failed check exited %d, want 1", code)
	}
	missing := &result{attempted: 1, metrics: map[string]float64{"wall_s": 1}}
	if code := report(args{}, missing); code != 1 {
		t.Errorf("run without every end-to-end metric exited %d, want 1", code)
	}
}

// TestPlanMix pins the request mixes: serve_write is the repository
// loadtest's (full store batches, and every flushEvery-th request a
// FlushRows of the first key of each of the first flushRows batches
// since the previous flush); serve_read's SetDirty share is the mcf
// trace's own share of stores, about 22%.
func TestPlanMix(t *testing.T) {
	w, err := writePlan(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.pool {
		if i%flushEvery != flushEvery-1 {
			if q.op != dbiproto.OpSet || len(q.keys) != batchKeys {
				t.Fatalf("request %d: op %#x with %d keys, want a %d-key SetDirty", i, q.op, len(q.keys), batchKeys)
			}
			for _, k := range q.keys {
				if k>>32 != 1 || !w.set.test(k-w.base) {
					t.Fatalf("request %d: key %#x outside connection 1's planned set", i, k)
				}
			}
			continue
		}
		first := i - flushEvery + 1
		if q.op != dbiproto.OpFlush || len(q.keys) != flushRows {
			t.Fatalf("request %d: op %#x with %d keys, want a FlushRows of %d", i, q.op, len(q.keys), flushRows)
		}
		for j, k := range q.keys {
			if want := w.pool[first+j].keys[0]; k != want {
				t.Fatalf("request %d flushes %#x, want the head %#x of request %d", i, k, want, first+j)
			}
		}
	}

	r, err := readPlan(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := 0
	for i, q := range r.pool {
		if len(q.keys) != batchKeys || (q.op != dbiproto.OpSet && q.op != dbiproto.OpIsDirty) {
			t.Fatalf("request %d: op %#x with %d keys", i, q.op, len(q.keys))
		}
		if q.op == dbiproto.OpSet {
			sets++
		}
	}
	if share := float64(sets) / float64(len(r.pool)); share < 0.18 || share > 0.26 {
		t.Errorf("SetDirty share %.3f, want the mcf trace's store share near 0.22", share)
	}
	if len(r.prefill) == 0 {
		t.Error("serve_read has nothing to pre-dirty")
	}
}
