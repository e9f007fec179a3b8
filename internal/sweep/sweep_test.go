package sweep

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// busyCell returns a cell whose result depends only on its index, with
// a tiny index-dependent delay so parallel completion order scrambles.
func busyCell(i int) Cell[int] {
	return Cell[int]{
		Key: Key{Experiment: "t", Benchmark: fmt.Sprintf("b%02d", i)},
		Run: func() (int, error) {
			time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
			return i * i, nil
		},
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 20
	cells := make([]Cell[int], n)
	for i := range cells {
		cells[i] = busyCell(i)
	}
	var want []int
	for _, workers := range []int{1, 2, 4, 8, 0} {
		outs, err := RunWithProgress(cells, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]int, n)
		for i, o := range outs {
			got[i] = o.Value
			if o.Key != cells[i].Key {
				t.Fatalf("workers=%d: outcome %d has key %v, want %v", workers, i, o.Key, cells[i].Key)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d]=%d differs from sequential %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 3, 8} {
		cells := make([]Cell[int], 10)
		var ran atomic.Int32
		for i := range cells {
			i := i
			cells[i] = Cell[int]{
				Key: Key{Experiment: "t", Benchmark: fmt.Sprintf("b%d", i)},
				Run: func() (int, error) {
					ran.Add(1)
					if i == 4 {
						return 0, boom
					}
					return i, nil
				},
			}
		}
		_, err := RunWithProgress(cells, workers, nil)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "t/b4") {
			t.Fatalf("workers=%d: error %q does not name the failing cell", workers, err)
		}
		if workers == 1 && ran.Load() != 5 {
			t.Fatalf("sequential run executed %d cells after a failure at index 4", ran.Load())
		}
	}
}

func TestRunEmptyAndFewerCellsThanWorkers(t *testing.T) {
	if outs, err := RunWithProgress[int](nil, 8, nil); err != nil || len(outs) != 0 {
		t.Fatalf("empty run: %v %v", outs, err)
	}
	outs, err := RunWithProgress([]Cell[string]{{Key: Key{Experiment: "t"}, Run: func() (string, error) { return "x", nil }}}, 64, nil)
	if err != nil || len(outs) != 1 || outs[0].Value != "x" {
		t.Fatalf("single cell: %v %v", outs, err)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Experiment: "tab6", Benchmark: "lbm", Mechanism: "DBI+AWB", Param: "gran=16"}
	want := "tab6/lbm/DBI+AWB/gran=16"
	if k.String() != want {
		t.Fatalf("Key.String() = %q, want %q", k, want)
	}
	if got := (Key{Experiment: "fig7", Benchmark: "mix0", Mechanism: "DBI", Cores: 4}).String(); got != "fig7/mix0/DBI/4core" {
		t.Fatalf("Key.String() = %q", got)
	}
}

func TestRecorderReportStableAndSpeedup(t *testing.T) {
	rec := &Recorder{}
	for i := 9; i >= 0; i-- {
		rec.Add(Record{
			Key:        fmt.Sprintf("t/b%d", i),
			Experiment: "t",
			ElapsedMS:  100,
		})
	}
	rep := rec.Report(42, 4, true, []string{"t"}, 250*time.Millisecond)
	if rep.CellCount != 10 {
		t.Fatalf("cell count %d", rep.CellCount)
	}
	for i := 1; i < len(rep.Cells); i++ {
		if rep.Cells[i-1].Key > rep.Cells[i].Key {
			t.Fatalf("cells not sorted: %q > %q", rep.Cells[i-1].Key, rep.Cells[i].Key)
		}
	}
	if rep.BusySeconds < 0.99 || rep.BusySeconds > 1.01 {
		t.Fatalf("busy seconds %v", rep.BusySeconds)
	}
	if rep.Speedup < 3.9 || rep.Speedup > 4.1 {
		t.Fatalf("speedup %v, want ~4", rep.Speedup)
	}
	var nilRec *Recorder
	nilRec.Add(Record{}) // must not panic
	if nilRec.Records() != nil {
		t.Fatal("nil recorder returned records")
	}
}

func TestRunWithProgressReportsEveryCell(t *testing.T) {
	cells := make([]Cell[int], 7)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: Key{Experiment: "p"}, Run: func() (int, error) { return i, nil }}
	}
	var mu sync.Mutex
	var dones []int
	outs, err := RunWithProgress(cells, 3, func(done, total int) {
		if total != len(cells) {
			t.Errorf("total = %d, want %d", total, len(cells))
		}
		mu.Lock()
		dones = append(dones, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cells) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(cells))
	}
	if len(dones) != len(cells) {
		t.Fatalf("progress calls = %d, want %d", len(dones), len(cells))
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done values %v, want 1..%d each exactly once", dones, len(cells))
		}
	}
}
