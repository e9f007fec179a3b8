package system

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dbisim/internal/config"
)

// goldenCell is one cell of the committed golden grid.
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

// TestGoldenResults replays the committed golden grid —
// testdata/golden_results.json: 11 cells across every mechanism and
// 1/2/4-core mixes, each the Results of a fresh New(cfg, benches,
// seed).Run() on the math/rand/v2 PCG random sources — and asserts the
// simulator reproduces every cell bit-identically. Any change that
// perturbs event order, timing or a random stream fails here first;
// the pooled replay holds the reuse path to the same values.
func TestGoldenResults(t *testing.T) {
	for _, c := range loadGoldenCells(t) {
		sys, err := New(goldenConfig(t, c), c.Benches, c.Seed)
		if err != nil {
			t.Fatalf("%s/%v: %v", c.Mech, c.Benches, err)
		}
		got := sys.Run()
		if !reflect.DeepEqual(got, c.Results) {
			t.Errorf("%s/%v: Results diverge from the golden grid\n got: %+v\nwant: %+v",
				c.Mech, c.Benches, got, c.Results)
		}
	}
}
