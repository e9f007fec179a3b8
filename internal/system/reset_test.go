package system

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// goldenCells loads the committed golden grid (shared with
// TestGoldenResults).
type goldenCell struct {
	Mech    string   `json:"mech"`
	Benches []string `json:"benches"`
	Seed    int64    `json:"seed"`
	Warmup  uint64   `json:"warmup"`
	Measure uint64   `json:"measure"`
	Results Results  `json:"results"`
}

func loadGoldenCells(t *testing.T) []goldenCell {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("golden file holds no cells")
	}
	return cells
}

func goldenConfig(t *testing.T, c goldenCell) config.SystemConfig {
	t.Helper()
	mechByName := map[string]config.Mechanism{}
	for _, m := range config.AllMechanisms() {
		mechByName[m.String()] = m
	}
	mech, ok := mechByName[c.Mech]
	if !ok {
		t.Fatalf("unknown mechanism %q in golden file", c.Mech)
	}
	cfg := config.Scaled(len(c.Benches), mech)
	cfg.WarmupInstructions = c.Warmup
	cfg.MeasureInstructions = c.Measure
	return cfg
}

// TestPooledGoldenReplay replays the whole golden grid through a single
// Pool — so most cells execute on a machine dirtied by a previous cell
// (reset path), and every mechanism/core-count transition exercises the
// rebuild path — and asserts each cell's Results remain bit-identical to
// the pinned golden values. This is the tentpole guarantee:
// reset-then-run ≡ fresh-construction-then-run.
func TestPooledGoldenReplay(t *testing.T) {
	t.Setenv(NoPoolEnv, "")
	cells := loadGoldenCells(t)
	var pool Pool
	for _, c := range cells {
		cfg := goldenConfig(t, c)
		got, err := pool.Run(cfg, c.Benches, c.Seed)
		if err != nil {
			t.Fatalf("%s/%v: %v", c.Mech, c.Benches, err)
		}
		if !reflect.DeepEqual(got, c.Results) {
			t.Errorf("%s/%v: pooled Results diverge from golden\n got: %+v\nwant: %+v",
				c.Mech, c.Benches, got, c.Results)
		}
	}
}

// TestResetMatchesFreshRandomized interleaves cells in a shuffled order
// through one Pool and checks every cell against a fresh System built
// from scratch, with varied seeds and budgets layered on top of the
// golden grid's geometries. Unlike the golden replay this also covers
// (cfg, seed) points the pinned file never saw.
func TestResetMatchesFreshRandomized(t *testing.T) {
	t.Setenv(NoPoolEnv, "")
	cells := loadGoldenCells(t)
	rng := rand.New(rand.NewSource(7))
	// Sample a manageable subset: full golden replay is covered above.
	type point struct {
		cfg     config.SystemConfig
		benches []string
		seed    int64
	}
	var pts []point
	for i := 0; i < 24; i++ {
		c := cells[rng.Intn(len(cells))]
		cfg := goldenConfig(t, c)
		// Perturb what Reset must honor: seed and budgets (budget
		// changes keep the signature; Reset must still apply them).
		seed := c.Seed + int64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			cfg.WarmupInstructions += uint64(rng.Intn(3)) * 1000
		}
		pts = append(pts, point{cfg, c.Benches, seed})
	}
	var pool Pool
	for i, p := range pts {
		pooled, err := pool.Run(p.cfg, p.benches, p.seed)
		if err != nil {
			t.Fatalf("point %d: pooled: %v", i, err)
		}
		fresh, err := New(p.cfg, p.benches, p.seed)
		if err != nil {
			t.Fatalf("point %d: fresh: %v", i, err)
		}
		if got := fresh.Run(); !reflect.DeepEqual(pooled, got) {
			t.Errorf("point %d (%s/%v seed %d): pooled vs fresh diverge\npooled: %+v\n fresh: %+v",
				i, p.cfg.Mechanism, p.benches, p.seed, pooled, got)
		}
	}
}

// TestPoolGeometryMismatchRebuilds drives a Pool across a geometry
// change (core count, then mechanism) and verifies it silently falls
// back to fresh construction with correct results, then resumes
// resetting once geometries match again.
func TestPoolGeometryMismatchRebuilds(t *testing.T) {
	t.Setenv(NoPoolEnv, "")
	var pool Pool
	run := func(cores int, mech config.Mechanism, seed int64) Results {
		t.Helper()
		cfg := config.Scaled(cores, mech)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
		benches := make([]string, cores)
		for i := range benches {
			benches[i] = "stream"
		}
		got, err := pool.Run(cfg, benches, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg, benches, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cores %v seed %d: pooled vs fresh diverge", cores, mech, seed)
		}
		return got
	}
	run(1, config.Baseline, 1)  // build
	run(1, config.Baseline, 2)  // reset (same signature)
	run(2, config.Baseline, 3)  // rebuild: core count changed
	run(2, config.DBIAWBCLB, 4) // rebuild: mechanism changed
	run(2, config.DBIAWBCLB, 5) // reset again
}

// TestResetRefusals pins the error paths: telemetry-armed systems and
// geometry mismatches refuse to reset, leaving the system usable.
func TestResetRefusals(t *testing.T) {
	cfg := config.Scaled(1, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 1000
	benches := []string{"stream"}

	sys, err := New(cfg, benches, 1, WithTimeSeries(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(cfg, benches, 2); err == nil {
		t.Error("Reset succeeded on a system with a sampler attached")
	}

	plain, err := New(cfg, benches, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Mechanism = config.DBIAWBCLB
	if err := plain.Reset(other, benches, 2); err == nil {
		t.Error("Reset succeeded across a mechanism change")
	}
	if err := plain.Reset(cfg, []string{"stream", "mcf"}, 2); err == nil {
		t.Error("Reset succeeded with a bench/core mismatch")
	}
	// Still usable after refusals.
	if err := plain.Reset(cfg, []string{"mcf"}, 2); err != nil {
		t.Fatalf("legitimate Reset failed after refusals: %v", err)
	}
	plain.Run()
}

// TestPooledParallelSweep runs a mixed-mechanism cell grid through
// sweep.RunState with per-worker Pools, sequentially and on four
// workers, and requires bit-identical outcome sets. Under -race this is
// also the proof that pooled workers share no mutable state.
func TestPooledParallelSweep(t *testing.T) {
	t.Setenv(NoPoolEnv, "")
	mechs := []config.Mechanism{config.Baseline, config.DAWB, config.DBIAWBCLB}
	benches := []string{"stream", "mcf", "lbm", "milc"}
	var cells []sweep.StateCell[Results, Pool]
	for _, m := range mechs {
		for i, b := range benches {
			cfg := config.Scaled(1, m)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
			bench, seed := b, int64(100+i)
			cells = append(cells, sweep.StateCell[Results, Pool]{
				Key: sweep.Key{Experiment: "t", Benchmark: b, Mechanism: m.String()},
				Run: func(p *Pool) (Results, error) { return p.Run(cfg, []string{bench}, seed) },
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
			t.Errorf("cell %s: sequential vs 4-worker pooled results diverge", seq[i].Key)
		}
	}
}

// TestNoPoolEnvDisablesReuse verifies the DBISIM_NO_POOL escape hatch:
// with it set, the pool builds fresh machines (and still returns
// correct results).
func TestNoPoolEnvDisablesReuse(t *testing.T) {
	t.Setenv(NoPoolEnv, "1")
	cfg := config.Scaled(1, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 2000
	var pool Pool
	first, err := pool.Run(cfg, []string{"stream"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pool.sys != nil {
		t.Error("pool retained a System with DBISIM_NO_POOL set")
	}
	second, err := pool.Run(cfg, []string{"stream"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("same-seed runs diverge under DBISIM_NO_POOL")
	}
}
