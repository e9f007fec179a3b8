package system

import (
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/telemetry"
)

func testCfg() config.SystemConfig {
	cfg := config.Scaled(1, config.DBIAWBCLB)
	cfg.WarmupInstructions = 20_000
	cfg.MeasureInstructions = 40_000
	return cfg
}

// TestOptionsWireTelemetry holds the construction-time options to their
// contract: WithTracer/WithTimeSeries attach live instrumentation, and a
// telemetry-equipped run produces Results bit-identical to a bare one
// (the mutator shims these options replaced are gone).
func TestOptionsWireTelemetry(t *testing.T) {
	bare, err := New(testCfg(), []string{"stream"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	r1 := bare.Run()

	tr := telemetry.NewTracer(1024)
	viaOpts, err := New(testCfg(), []string{"stream"}, 42,
		WithTracer(tr), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	r2 := viaOpts.Run()

	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("telemetry options perturbed Results:\n%+v\nvs\n%+v", r1, r2)
	}
	if viaOpts.Tracer() != tr {
		t.Fatal("WithTracer did not attach the tracer")
	}
	if viaOpts.Sampler() == nil {
		t.Fatal("WithTimeSeries did not arm a sampler")
	}
	if tr.Len() == 0 {
		t.Fatal("tracer attached via option captured no events")
	}
	if s := viaOpts.Sampler().Series(); len(s.Samples) == 0 {
		t.Fatal("sampler via option took no samples")
	}
}

// TestRegisterMetrics: RegisterMetrics adds the component probes to the
// caller's registry and no self.* gauges (they need Run's sampler
// arming to be meaningful), and arms no sampler.
func TestRegisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := New(testCfg(), []string{"stream"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterMetrics(reg)
	if sys.Sampler() != nil {
		t.Fatal("RegisterMetrics armed a sampler")
	}
	found := map[string]bool{}
	for _, n := range reg.Names() {
		found[n] = true
	}
	for _, want := range []string{"llc.reads", "dram.reads", "cpu0.instructions"} {
		if !found[want] {
			t.Fatalf("registry missing %q (got %d names)", want, len(found))
		}
	}
	if found["self.sim_cycles_per_sec"] {
		t.Fatal("self.* gauges registered without a sampler")
	}
}

// TestOptionOrderIrrelevant: options apply in a fixed internal order.
func TestOptionOrderIrrelevant(t *testing.T) {
	a, err := New(testCfg(), []string{"stream"}, 42,
		WithTimeSeries(10_000), WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testCfg(), []string{"stream"}, 42,
		WithAttribution(), WithTimeSeries(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Run(), b.Run()) {
		t.Fatal("option order changed Results")
	}
	if !reflect.DeepEqual(a.Sampler().Series().Metrics, b.Sampler().Series().Metrics) {
		t.Fatal("option order changed the sampled metric layout")
	}
}

// TestNilOptionTolerated: a nil Option is skipped, keeping variadic
// call sites that conditionally build option slices simple.
func TestNilOptionTolerated(t *testing.T) {
	sys, err := New(testCfg(), []string{"stream"}, 42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer() != nil || sys.Sampler() != nil {
		t.Fatal("nil options configured something")
	}
}
