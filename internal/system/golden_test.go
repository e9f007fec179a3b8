package system

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dbisim/internal/config"
)

// TestGoldenResults replays the committed golden grid —
// testdata/golden_results.json: 11 cells across every mechanism and
// 1/2/4-core mixes, each the Results of a fresh New(cfg, benches,
// seed).Run() on the math/rand/v2 PCG random sources — and asserts the
// simulator reproduces every cell bit-identically. Any change that
// perturbs event order, timing or a random stream fails here first;
// the pooled and forked replays hold the other paths to the same
// values.
func TestGoldenResults(t *testing.T) {
	type cell struct {
		Mech    string   `json:"mech"`
		Benches []string `json:"benches"`
		Seed    int64    `json:"seed"`
		Warmup  uint64   `json:"warmup"`
		Measure uint64   `json:"measure"`
		Results Results  `json:"results"`
	}
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("golden file holds no cells")
	}
	mechByName := map[string]config.Mechanism{}
	for _, m := range config.AllMechanisms() {
		mechByName[m.String()] = m
	}
	for _, c := range cells {
		mech, ok := mechByName[c.Mech]
		if !ok {
			t.Fatalf("unknown mechanism %q in golden file", c.Mech)
		}
		cfg := config.Scaled(len(c.Benches), mech)
		cfg.WarmupInstructions = c.Warmup
		cfg.MeasureInstructions = c.Measure
		sys, err := New(cfg, c.Benches, c.Seed)
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
