package system

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// TestForkedGoldenReplay replays the whole golden grid through a single
// Pool, each cell twice in a row, and asserts every Results — run or
// reused — equals the pinned golden values. The first run of a cell
// builds a machine; its repeat is reused, so the grid's 11 cells reuse
// exactly 11 results.
func TestForkedGoldenReplay(t *testing.T) {
	cells := loadGoldenCells(t)
	var pool Pool
	before := PoolStat.Snapshot()
	for _, c := range cells {
		cfg := goldenConfig(t, c)
		for run := 0; run < 2; run++ {
			got, err := pool.Run(cfg, c.Benches, c.Seed)
			if err != nil {
				t.Fatalf("run %d %s/%v: %v", run, c.Mech, c.Benches, err)
			}
			if !reflect.DeepEqual(got, c.Results) {
				t.Errorf("run %d %s/%v: pooled Results diverge from golden\n got: %+v\nwant: %+v",
					run, c.Mech, c.Benches, got, c.Results)
			}
		}
	}
	d := PoolStat.Snapshot().Sub(before)
	if want := uint64(len(cells)); d.CkptHits != want || d.Rebuilds != want {
		t.Errorf("pool reused %d cells and ran %d (want %d and %d)",
			d.CkptHits, d.Rebuilds, want, want)
	}
}

// TestPoolKeepsNoMachine: a Pool remembers only the previous cell's
// identity and result, so after cells of several geometries the live
// heap has grown by less than one 1-core machine.
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

	var pool Pool
	base = liveHeap()
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
		if _, err := pool.Run(c.cfg, c.benches, 3); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - base
	runtime.KeepAlive(&pool)
	t.Logf("one 1-core machine: %d KB; the pool's live heap growth: %d KB", machine>>10, grown>>10)
	if grown >= machine {
		t.Errorf("live heap grew %d KB over five cells; one 1-core machine is %d KB", grown>>10, machine>>10)
	}
}

// TestReusedResultsArePrivate: a reused cell gets its own copy of the
// remembered Results, so mutating it changes neither the first cell's
// result nor a later reuse.
func TestReusedResultsArePrivate(t *testing.T) {
	SetAttributionEnabled(true)
	defer SetAttributionEnabled(false)
	cfg := smallCfg(2, config.DBIAWB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, 8000
	benches := []string{"stream", "mcf"}
	var pool Pool
	first, err := pool.Run(cfg, benches, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := first.clone()
	reused, err := pool.Run(cfg, benches, 9)
	if err != nil {
		t.Fatal(err)
	}
	reused.PerCore[0].IPC = -1
	reused.PerCore = append(reused.PerCore, CoreResult{Bench: "x"})
	for k := range reused.Attr.Measure.Categories {
		reused.Attr.Measure.Categories[k]++
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("mutating a reused result changed the first cell's\n got: %+v\nwant: %+v", first, want)
	}
	again, err := pool.Run(cfg, benches, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("mutating a reused result changed a later reuse\n got: %+v\nwant: %+v", again, want)
	}
}

// TestForkedParallelSweep runs an identity-grouped grid with repeated
// cells through sweep.RunState on one and four workers with Pool states
// and requires bit-identical outcome sets, every cell equal to a fresh
// machine's Run; under -race it also proves the workers' pools share no
// mutable state.
func TestForkedParallelSweep(t *testing.T) {
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
	cells := make([]sweep.StateCell[Results, Pool], len(runs))
	for i, r := range runs {
		cells[i] = sweep.StateCell[Results, Pool]{
			Key: sweep.Key{Experiment: "t", Benchmark: "stream", Mechanism: r.cfg.Mechanism.String(), Run: i},
			Run: func(p *Pool) (Results, error) {
				return p.Run(r.cfg, []string{"stream"}, r.seed)
			},
			Group: fmt.Sprintf("%v/%d", r.cfg.Mechanism, r.cfg.MeasureInstructions),
		}
	}
	before := PoolStat.Snapshot()
	seq, err := sweep.RunState(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.RunState(cells, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each mechanism repeats its 4000-instruction cell twice, in both
	// sweeps.
	if d := PoolStat.Snapshot().Sub(before); d.CkptHits != 8 {
		t.Errorf("sweeps reused %d cells, want 8", d.CkptHits)
	}
	for i, r := range runs {
		fresh, err := New(r.cfg, []string{"stream"}, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Run()
		if !reflect.DeepEqual(seq[i].Value, want) || !reflect.DeepEqual(par[i].Value, want) {
			t.Errorf("cell %d: sequential or 4-worker pooled results diverge from a fresh run", i)
		}
	}
}

// TestGroupedCellsShareWorkerChains pins the scheduler contract reuse
// relies on: same-Group cells run consecutively on one worker state
// even when scattered through the input.
func TestGroupedCellsShareWorkerChains(t *testing.T) {
	type w struct{ seen []int }
	cells := make([]sweep.StateCell[int, w], 6)
	groups := []string{"a", "b", "a", "", "b", "a"}
	for i := range cells {
		i := i
		cells[i] = sweep.StateCell[int, w]{
			Key:   sweep.Key{Experiment: "g", Run: i},
			Group: groups[i],
			Run: func(st *w) (int, error) {
				st.seen = append(st.seen, i)
				return len(st.seen), nil
			},
		}
	}
	outs, err := sweep.RunState(cells, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Within a group, the per-state counter must increase in input
	// order: 1, 2, 3 for group "a" (cells 0, 2, 5), 1, 2 for "b".
	if outs[0].Value >= outs[2].Value || outs[2].Value >= outs[5].Value {
		t.Errorf("group a cells did not run in order on one state: %d %d %d",
			outs[0].Value, outs[2].Value, outs[5].Value)
	}
	if outs[1].Value >= outs[4].Value {
		t.Errorf("group b cells did not run in order on one state: %d %d",
			outs[1].Value, outs[4].Value)
	}
}
