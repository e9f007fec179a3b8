package system

import (
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// TestForkedGoldenReplay replays the whole golden grid through a single
// ForkPool three times with no sweep plan, and asserts each cell's
// Results remain bit-identical to the pinned golden values every time.
// This is the tentpole guarantee: fork-then-measure ≡ run-from-scratch.
// The passes also pin the checkpoint admission rule: the first runs
// every cell whole (no later cell shares its key), the second
// checkpoints every key the machines have run before, and the third
// forks every cell.
func TestForkedGoldenReplay(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	cells := loadGoldenCells(t)
	var pool ForkPool
	n := uint64(len(cells)) // 11 distinct warmup keys
	want := []struct{ taken, hits uint64 }{{0, 0}, {n, 0}, {0, n}}
	for pass, w := range want {
		before := PoolStat.Snapshot()
		for _, c := range cells {
			cfg := goldenConfig(t, c)
			got, err := pool.Run(cfg, c.Benches, c.Seed, false)
			if err != nil {
				t.Fatalf("pass %d %s/%v: %v", pass, c.Mech, c.Benches, err)
			}
			if !reflect.DeepEqual(got, c.Results) {
				t.Errorf("pass %d %s/%v: forked Results diverge from golden\n got: %+v\nwant: %+v",
					pass, c.Mech, c.Benches, got, c.Results)
			}
		}
		d := PoolStat.Snapshot().Sub(before)
		if d.CkptTaken != w.taken || d.CkptHits != w.hits || d.RefusedOverhang != 0 {
			t.Errorf("pass %d: took %d checkpoints and forked %d cells (want %d/%d), refused %d for overhang (want 0)",
				pass, d.CkptTaken, d.CkptHits, w.taken, w.hits, d.RefusedOverhang)
		}
	}
}

// forkMeasures are the measurement budgets the fork ≡ scratch
// differentials give each config after a 4000-instruction warmup. They
// exceed what the stream core issues while mcf is still warming, so
// no cell is refused for overhang and every cell after a config's
// first forks from its checkpoint.
var forkMeasures = []uint64{20000, 30000, 40000}

// wantForked fails t unless, since before, the pool forked every cell
// but the first of each config and refused none for overhang: a
// differential whose cells fall back to scratch runs compares scratch
// with scratch.
func wantForked(t *testing.T, before PoolSnapshot, configs int) {
	t.Helper()
	d := PoolStat.Snapshot().Sub(before)
	want := uint64(configs * (len(forkMeasures) - 1))
	if d.CkptHits != want || d.RefusedOverhang != 0 {
		t.Errorf("pool forked %d cells (want %d) and refused %d for overhang (want 0)",
			d.CkptHits, want, d.RefusedOverhang)
	}
}

// llcRNGConfigs are the 2-core configs whose LLC draws random numbers
// mid-run: a DAWB machine with a DRRIP L3 and a DBI+AWB+CLB machine
// with an LRW-BIP DBI. The DRRIP L3 is shrunk to 512 KiB: at full size
// it never evicts in short windows, and its insertion draws could not
// change a result.
func llcRNGConfigs() []config.SystemConfig {
	drrip := config.Scaled(2, config.DAWB)
	drrip.L3.Replacement = config.ReplDRRIP
	drrip.L3.SizeBytes = 512 << 10
	bip := config.Scaled(2, config.DBIAWBCLB)
	bip.DBI.Replacement = config.DBILRWBIP
	return []config.SystemConfig{drrip, bip}
}

// TestForkMatchesScratchDifferential exercises the restore path
// directly: for every mechanism, several cells share one warmup
// identity (same config but for the measurement budget, same benches,
// same seed) so every cell after the first forks from the group's
// checkpoint — and each must equal a fresh scratch machine's Run
// bit for bit. The llcRNGConfigs pin that the checkpoint carries the
// DRRIP and LRW-BIP RNG state.
func TestForkMatchesScratchDifferential(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	var cfgs []config.SystemConfig
	for _, mech := range []config.Mechanism{
		config.Baseline, config.TADIP, config.DAWB, config.VWQ,
		config.SkipCache, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
	} {
		cfgs = append(cfgs, config.Scaled(2, mech))
	}
	cfgs = append(cfgs, llcRNGConfigs()...)

	var pool ForkPool
	before := PoolStat.Snapshot()
	for _, cfg := range cfgs {
		for i, measure := range forkMeasures {
			cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, measure
			benches := []string{"stream", "mcf"}
			forked, err := pool.Run(cfg, benches, 11, i < len(forkMeasures)-1)
			if err != nil {
				t.Fatalf("%v/%v/%v measure=%d: forked: %v",
					cfg.Mechanism, cfg.L3.Replacement, cfg.DBI.Replacement, measure, err)
			}
			fresh, err := New(cfg, benches, 11)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh.Run(); !reflect.DeepEqual(forked, want) {
				t.Errorf("%v/%v/%v measure=%d: forked vs scratch diverge\nforked:  %+v\nscratch: %+v",
					cfg.Mechanism, cfg.L3.Replacement, cfg.DBI.Replacement, measure, forked, want)
			}
		}
	}
	wantForked(t, before, len(cfgs))
}

// TestNoForkEnvDisablesForking verifies the DBISIM_NO_FORK escape
// hatch: with it set the pool takes no checkpoint (it still keeps its
// machine, reset per cell), returns correct results, and matches the
// forked path bit for bit.
func TestNoForkEnvDisablesForking(t *testing.T) {
	cfg := config.Scaled(1, config.DBIAWBCLB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 3000, 5000
	benches := []string{"milc"}

	t.Setenv(NoForkEnv, "1")
	var plain ForkPool
	before := PoolStat.Snapshot()
	first, err := plain.Run(cfg, benches, 21, true)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := plain.Run(cfg, benches, 21, false); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(first, again) {
		t.Error("NO_FORK run on a reset machine diverges from the first")
	}
	if d := PoolStat.Snapshot().Sub(before); d.CkptTaken != 0 {
		t.Errorf("pool took %d checkpoints with DBISIM_NO_FORK set, want 0", d.CkptTaken)
	}

	t.Setenv(NoForkEnv, "")
	var forking ForkPool
	for i := 0; i < 2; i++ {
		got, err := forking.Run(cfg, benches, 21, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, got) {
			t.Errorf("run %d: NO_FORK vs forked results diverge", i)
		}
	}
}

// TestForkedParallelSweep runs a warmup-grouped grid through
// sweep.RunState on one and four workers with ForkPool states and
// requires bit-identical outcome sets; under -race it also proves the
// Release/adopt handoff shares no mutable state between live workers.
func TestForkedParallelSweep(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	mechs := []config.Mechanism{config.Baseline, config.DBIAWBCLB}
	var cells []sweep.StateCell[Results, ForkPool]
	for _, m := range mechs {
		for _, measure := range []uint64{2000, 4000, 6000} {
			cfg := config.Scaled(1, m)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, measure
			seed := int64(31)
			sibling := measure < 6000
			cells = append(cells, sweep.StateCell[Results, ForkPool]{
				Key: sweep.Key{Experiment: "t", Benchmark: "stream", Mechanism: m.String(),
					Param: WarmupKey(cfg, []string{"stream"}, seed)[:8]},
				Run: func(p *ForkPool) (Results, error) {
					return p.Run(cfg, []string{"stream"}, seed, sibling)
				},
				Group: WarmupKey(cfg, []string{"stream"}, seed),
			})
		}
	}
	seq, err := sweep.RunState(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.RunState(cells, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Value, par[i].Value) {
			t.Errorf("cell %d: sequential vs 4-worker forked results diverge", i)
		}
	}
}

// TestDistinctKeySweepTakesNoCheckpoint runs a Figure-6-shaped sweep —
// every cell its own warmup key — on two workers through
// sweep.RunState and ForkPool with the sweep plan. No later cell shares
// a key, so the pool must take no checkpoint and run every cell whole,
// and every cell must equal a fresh machine's Run.
func TestDistinctKeySweepTakesNoCheckpoint(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	// Machines released by earlier tests could remember these keys.
	sharedPoolsMu.Lock()
	PoolStat.AdoptStackDepth.Add(-int64(len(sharedPools)))
	sharedPools = nil
	sharedPoolsMu.Unlock()

	type run struct {
		cfg     config.SystemConfig
		benches []string
		seed    int64
	}
	var runs []run
	for _, mech := range []config.Mechanism{
		config.TADIP, config.DAWB, config.VWQ, config.DBI,
		config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
	} {
		for i, b := range []string{"stream", "mcf"} {
			cfg := config.Scaled(1, mech)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 3000, 5000
			runs = append(runs, run{cfg, []string{b}, int64(61 + i)})
		}
	}
	cells := make([]sweep.StateCell[Results, ForkPool], len(runs))
	later := map[string]bool{}
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		key := WarmupKey(r.cfg, r.benches, r.seed)
		sibling := later[key]
		later[key] = true
		cells[i] = sweep.StateCell[Results, ForkPool]{
			Key: sweep.Key{Experiment: "fig6", Benchmark: r.benches[0],
				Mechanism: r.cfg.Mechanism.String()},
			Run: func(p *ForkPool) (Results, error) {
				return p.Run(r.cfg, r.benches, r.seed, sibling)
			},
			Group: key,
		}
	}

	before := PoolStat.Snapshot()
	outs, err := sweep.RunState(cells, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := PoolStat.Snapshot().Sub(before)
	if d.CkptTaken != 0 || d.CkptHits != 0 || d.CkptSkipped != uint64(len(runs)) {
		t.Errorf("pool took %d checkpoints, forked %d and skipped %d cells (want 0, 0, %d)",
			d.CkptTaken, d.CkptHits, d.CkptSkipped, len(runs))
	}
	for i, r := range runs {
		fresh, err := New(r.cfg, r.benches, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.Run(); !reflect.DeepEqual(outs[i].Value, want) {
			t.Errorf("%s: pooled vs scratch diverge\npooled:  %+v\nscratch: %+v",
				outs[i].Key, outs[i].Value, want)
		}
	}
}

// TestGroupedCellsShareWorkerChains pins the scheduler contract the
// fork pool relies on: same-Group cells run consecutively on one
// worker state even when scattered through the input.
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
