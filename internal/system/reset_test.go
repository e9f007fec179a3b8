package system

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dbisim/internal/config"
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

// machines keeps one System per geometry signature, as Pool does:
// the first cell of a signature builds its machine, every later cell
// resets it.
type machines map[config.SystemConfig]*System

// run executes one cell on the signature's machine.
func (ms machines) run(t *testing.T, cfg config.SystemConfig, benches []string, seed int64) Results {
	t.Helper()
	sys := ms[Signature(cfg)]
	if sys == nil {
		var err error
		if sys, err = New(cfg, benches, seed); err != nil {
			t.Fatalf("%v/%v: %v", cfg.Mechanism, benches, err)
		}
		ms[Signature(cfg)] = sys
	} else if err := sys.Reset(cfg, benches, seed); err != nil {
		t.Fatalf("%v/%v: %v", cfg.Mechanism, benches, err)
	}
	return sys.Run()
}

// TestResetGoldenReplay replays the whole golden grid twice on one
// machine per signature — the first pass resets every cell after its
// signature's first, the second resets every cell onto a machine
// dirtied by a previous one — and asserts each cell's Results remain
// bit-identical to the pinned golden values. This is Reset's guarantee:
// reset-then-run ≡ fresh-construction-then-run.
func TestResetGoldenReplay(t *testing.T) {
	cells := loadGoldenCells(t)
	ms := machines{}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			got := ms.run(t, goldenConfig(t, c), c.Benches, c.Seed)
			if !reflect.DeepEqual(got, c.Results) {
				t.Errorf("pass %d %s/%v: reset Results diverge from golden\n got: %+v\nwant: %+v",
					pass, c.Mech, c.Benches, got, c.Results)
			}
		}
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

// TestResetMatchesFreshRandomized interleaves cells in a shuffled order
// on one machine per signature and checks every cell against a fresh
// System built from scratch, with varied seeds and budgets layered on
// top of the golden grid's geometries. Unlike the golden replay this
// also covers (cfg, seed) points the pinned file never saw.
//
// Three more configs pin that Reset restarts every random stream: the
// llcRNGConfigs (a DRRIP L3 and an LRW-BIP DBI) and TA-DIP in both
// private levels, which no shipped config uses. Each runs seeds 11–13
// on one machine, with budgets long enough that each of those streams
// changes a result.
func TestResetMatchesFreshRandomized(t *testing.T) {
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
	private := config.Scaled(2, config.Baseline)
	private.L1.Replacement = config.ReplTADIP
	private.L2.Replacement = config.ReplTADIP
	for _, cfg := range append(llcRNGConfigs(), private) {
		cfg.WarmupInstructions, cfg.MeasureInstructions = 20000, 100000
		for seed := int64(11); seed <= 13; seed++ {
			pts = append(pts, point{cfg, []string{"stream", "mcf"}, seed})
		}
	}
	ms := machines{}
	for i, p := range pts {
		reset := ms.run(t, p.cfg, p.benches, p.seed)
		fresh, err := New(p.cfg, p.benches, p.seed)
		if err != nil {
			t.Fatalf("point %d: fresh: %v", i, err)
		}
		if got := fresh.Run(); !reflect.DeepEqual(reset, got) {
			t.Errorf("point %d (%s L1 %v L3 %v DBI %v, %v seed %d): reset vs fresh diverge\nreset: %+v\nfresh: %+v",
				i, p.cfg.Mechanism, p.cfg.L1.Replacement, p.cfg.L3.Replacement, p.cfg.DBI.Replacement,
				p.benches, p.seed, reset, got)
		}
	}
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

// TestResetLeavesCallerBenchesAlone: a pooled machine is reset onto
// other cells' benchmarks, so it must not write them into the slice it
// was built from. A sweep shares one mix's slice among that mix's
// cells, which would otherwise run on another mix.
func TestResetLeavesCallerBenchesAlone(t *testing.T) {
	cfg := config.Scaled(2, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 1000
	built := []string{"mcf", "lbm"}
	sys, err := New(cfg, built, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(cfg, []string{"stream", "milc"}, 2); err != nil {
		t.Fatal(err)
	}
	if want := []string{"mcf", "lbm"}; !reflect.DeepEqual(built, want) {
		t.Errorf("Reset rewrote the slice New was given: %v, want %v", built, want)
	}
}

// TestResetAllocations pins Reset's zero-rebuild property: on a machine
// that has already run both mixes, alternating Reset between them
// allocates only the profile slice Reset resolves benches into. The
// machine is built on the mix with the smaller footprint (sphinx3), so
// a Reset that restored the generators' construction-time tables would
// reallocate them on every switch.
func TestResetAllocations(t *testing.T) {
	mixes := [][]string{{"lbm", "sphinx3"}, {"stream", "mcf"}}
	for _, mech := range []config.Mechanism{config.Baseline, config.VWQ, config.DBIAWBCLB} {
		cfg := config.Scaled(2, mech)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
		sys, err := New(cfg, mixes[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if err := sys.Reset(cfg, mixes[1], 2); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		i := 0
		n := testing.AllocsPerRun(20, func() {
			if err := sys.Reset(cfg, mixes[i%2], int64(i)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if n > 1 {
			t.Errorf("%v: Reset allocates %.1f objects, want at most 1", mech, n)
		}
	}
}
