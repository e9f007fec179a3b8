package system

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// TestGoldenReplayReusesRepeats replays the whole golden grid through
// one Memo per cell, each called twice, and asserts every Results —
// run or reused — equals the pinned golden values. The first call of a
// Memo builds a machine; the second is reused, so the grid's 11 cells
// reuse exactly 11 results.
func TestGoldenReplayReusesRepeats(t *testing.T) {
	cells := loadGoldenCells(t)
	before := PoolStat.Snapshot()
	for _, c := range cells {
		m := NewMemo(goldenConfig(t, c), c.Benches, c.Seed)
		for run := 0; run < 2; run++ {
			got, err := m.Run()
			if err != nil {
				t.Fatalf("run %d %s/%v: %v", run, c.Mech, c.Benches, err)
			}
			if !reflect.DeepEqual(got, c.Results) {
				t.Errorf("run %d %s/%v: memo Results diverge from golden\n got: %+v\nwant: %+v",
					run, c.Mech, c.Benches, got, c.Results)
			}
		}
	}
	d := PoolStat.Snapshot().Sub(before)
	if want := uint64(len(cells)); d.CkptHits != want || d.Rebuilds != want {
		t.Errorf("memos reused %d cells and ran %d (want %d and %d)",
			d.CkptHits, d.Rebuilds, want, want)
	}
}

// TestPoolKeepsNoMachine: a Memo keeps only its cell's result, so five
// live Memos of several geometries, each run, have grown the live heap
// by less than one 1-core machine.
func TestPoolKeepsNoMachine(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	cell := func(cores int, mech config.Mechanism) config.SystemConfig {
		cfg := config.Scaled(cores, mech)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
		return cfg
	}
	one := cell(1, config.Baseline)
	// A first machine initializes whatever the runtime builds lazily,
	// so neither measurement below is charged for it.
	warm, err := New(one, []string{"stream"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm.Run()

	base := liveHeap()
	sys, err := New(one, []string{"stream"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine := liveHeap() - base
	runtime.KeepAlive(sys)

	base = liveHeap()
	var memos []*Memo
	for _, c := range []struct {
		cfg     config.SystemConfig
		benches []string
	}{
		{one, []string{"stream"}},
		{cell(1, config.DBIAWBCLB), []string{"mcf"}},
		{cell(2, config.VWQ), []string{"lbm", "mcf"}},
		{cell(4, config.DAWB), []string{"stream", "mcf", "lbm", "milc"}},
		{cell(1, config.TADIP), []string{"milc"}},
	} {
		m := NewMemo(c.cfg, c.benches, 3)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		memos = append(memos, m)
	}
	grown := liveHeap() - base
	runtime.KeepAlive(memos)
	t.Logf("one 1-core machine: %d KB; five run memos' live heap growth: %d KB", machine>>10, grown>>10)
	if grown >= machine {
		t.Errorf("live heap grew %d KB over five memos; one 1-core machine is %d KB", grown>>10, machine>>10)
	}
}

// TestReusedResultsArePrivate: a reused cell gets its own copy of the
// remembered Results, so mutating it changes neither the first cell's
// result nor a later reuse.
func TestReusedResultsArePrivate(t *testing.T) {
	cfg := smallCfg(2, config.DBIAWB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, 8000
	m := NewMemo(cfg, []string{"stream", "mcf"}, 9, WithAttribution())
	first, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := first.clone()
	reused, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	mutate(&reused)
	if !reflect.DeepEqual(first, want) {
		t.Errorf("mutating a reused result changed the first cell's\n got: %+v\nwant: %+v", first, want)
	}
	again, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("mutating a reused result changed a later reuse\n got: %+v\nwant: %+v", again, want)
	}
}

// mutate writes through every reference a Results holds.
func mutate(r *Results) {
	r.PerCore[0].IPC = -1
	r.PerCore = append(r.PerCore, CoreResult{Bench: "x"})
	for k := range r.Attr.Measure.Categories {
		r.Attr.Measure.Categories[k]++
	}
}

// TestMemoConcurrentCallers: two callers that reach one Memo at once
// get equal, private copies of one simulation: the second waits for the
// first's run instead of starting its own. Under -race it also proves
// the Memo's result is published safely.
func TestMemoConcurrentCallers(t *testing.T) {
	cfg := smallCfg(2, config.DBIAWBCLB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, 8000
	benches := []string{"stream", "mcf"}
	fresh, err := New(cfg, benches, 5, WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()

	m := NewMemo(cfg, benches, 5, WithAttribution())
	before := PoolStat.Snapshot()
	var got [2]Results
	var errs [2]error
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = m.Run()
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("caller %d: memo result differs from a fresh run", i)
		}
	}
	mutate(&got[0])
	if !reflect.DeepEqual(got[1], want) {
		t.Error("the two callers' results share memory")
	}
	if d := PoolStat.Snapshot().Sub(before); d.Rebuilds != 1 || d.CkptHits != 1 {
		t.Errorf("two concurrent callers counted %d rebuilds and %d reuses, want 1 and 1", d.Rebuilds, d.CkptHits)
	}
}

// TestReusedSweepParallelMatchesSequential runs a grid with repeated
// cells, one Memo per identity, through sweep.RunWithProgress on one
// and four workers grouped by identity, and on four workers with no
// groups at all, so repeats of one cell may run at once. Every variant
// must reuse exactly the repeats and return every cell equal to a fresh
// machine's Run: reuse rests on the Memos, not on the scheduler. Under
// -race it also proves concurrent cells share no mutable state.
func TestReusedSweepParallelMatchesSequential(t *testing.T) {
	type run struct {
		cfg  config.SystemConfig
		seed int64
	}
	var runs []run
	for _, m := range []config.Mechanism{config.Baseline, config.DBIAWBCLB} {
		for _, measure := range []uint64{2000, 4000, 4000, 6000, 4000} {
			cfg := config.Scaled(1, m)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, measure
			runs = append(runs, run{cfg, 31})
		}
	}
	sweepOnce := func(workers int, grouped bool) []sweep.Outcome[Results] {
		memos := map[string]*Memo{}
		cells := make([]sweep.Cell[Results], len(runs))
		for i, r := range runs {
			id := fmt.Sprintf("%v/%d", r.cfg.Mechanism, r.cfg.MeasureInstructions)
			if memos[id] == nil {
				memos[id] = NewMemo(r.cfg, []string{"stream"}, r.seed)
			}
			cells[i] = sweep.Cell[Results]{
				Key: sweep.Key{Experiment: "t", Benchmark: "stream", Mechanism: r.cfg.Mechanism.String(), Param: strconv.Itoa(i)},
				Run: memos[id].Run,
			}
			if grouped {
				cells[i].Group = id
			}
		}
		before := PoolStat.Snapshot()
		outs, err := sweep.RunWithProgress("t", cells, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each mechanism repeats its 4000-instruction cell twice.
		if d := PoolStat.Snapshot().Sub(before); d.CkptHits != 4 || d.Rebuilds != 6 {
			t.Errorf("workers=%d grouped=%v: reused %d cells and ran %d, want 4 and 6",
				workers, grouped, d.CkptHits, d.Rebuilds)
		}
		return outs
	}
	seq := sweepOnce(1, true)
	par := sweepOnce(4, true)
	loose := sweepOnce(4, false)
	for i, r := range runs {
		fresh, err := New(r.cfg, []string{"stream"}, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Run()
		for _, v := range []struct {
			name string
			outs []sweep.Outcome[Results]
		}{{"sequential", seq}, {"4-worker grouped", par}, {"4-worker ungrouped", loose}} {
			if !reflect.DeepEqual(v.outs[i].Value, want) {
				t.Errorf("cell %d: %s memo results diverge from a fresh run", i, v.name)
			}
		}
	}
}
