package system

import (
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/telemetry"
)

// attrMechs is the mechanism spread the attribution tests sweep: every
// writeback path (demand, proactive, AWB harvest, DBI drain, skip-cache
// write-through) is exercised by at least one of them.
var attrMechs = []config.Mechanism{
	config.Baseline, config.TADIP, config.DAWB, config.VWQ,
	config.SkipCache, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
}

// TestAttributionBitIdentity is the headline guarantee: attaching an
// attribution ledger never changes simulated behavior. For every
// mechanism, a plain run and an attributed run must produce Results
// that are bit-identical once the Attr report itself is set aside.
func TestAttributionBitIdentity(t *testing.T) {
	for _, mech := range attrMechs {
		cfg := smallCfg(2, mech)
		benches := []string{"stream", "mcf"}
		plain, err := New(cfg, benches, 42)
		if err != nil {
			t.Fatal(err)
		}
		attributed, err := New(cfg, benches, 42, WithAttribution())
		if err != nil {
			t.Fatal(err)
		}
		want := plain.Run()
		got := attributed.Run()
		if got.Attr == nil {
			t.Fatalf("%v: attributed run produced no Attr report", mech)
		}
		if want.Attr != nil {
			t.Fatalf("%v: plain run produced an Attr report", mech)
		}
		got.Attr = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: attribution perturbed Results\nattr: %+v\nplain: %+v", mech, got, want)
		}
	}
}

// TestAttributionReconciles checks the ledger's accounting equation on
// real runs: for every mechanism, both windows of the report reconcile
// (closed domains sum exactly) and the domains the workload must have
// touched are non-zero.
func TestAttributionReconciles(t *testing.T) {
	for _, mech := range attrMechs {
		sys, err := New(smallCfg(2, mech), []string{"stream", "mcf"}, 7, WithAttribution())
		if err != nil {
			t.Fatal(err)
		}
		r := sys.Run()
		if r.Attr == nil {
			t.Fatalf("%v: no Attr report", mech)
		}
		for _, w := range []struct {
			name string
			win  telemetry.AttrWindow
		}{{"warmup", r.Attr.Warmup}, {"measure", r.Attr.Measure}} {
			if err := w.win.Reconcile(); err != nil {
				t.Errorf("%v %s window: %v", mech, w.name, err)
			}
			if w.win.Cycles == 0 {
				t.Errorf("%v %s window: zero cycles", mech, w.name)
			}
			for _, dom := range []string{"llc_port", "dram_bank", "dram_bus"} {
				if w.win.Domains[dom] == 0 {
					t.Errorf("%v %s window: domain %q untouched", mech, w.name, dom)
				}
			}
			for _, cat := range []string{"cpu.issue", "llc.tag_probe", "dram.bank_service"} {
				if w.win.Categories[cat] == 0 {
					t.Errorf("%v %s window: category %q untouched", mech, w.name, cat)
				}
			}
		}
	}
}

// TestAttributionReuseMatchesScratch: a reused cell must look exactly
// like a simulated one to attribution — the same Attr report as a
// scratch run, and its measure window folded into AttrTotals once per
// cell, as a run would. WithAttribution reaches the machine a Memo
// builds through NewMemo's options.
func TestAttributionReuseMatchesScratch(t *testing.T) {
	cfg := config.Scaled(2, config.DBIAWBCLB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, 20000
	benches := []string{"stream", "mcf"}

	t0 := attrTotals()
	fresh, err := New(cfg, benches, 11, WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()
	t1 := attrTotals()
	m := NewMemo(cfg, benches, 11, WithAttribution())
	for run := 0; run < 2; run++ {
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want.Attr == nil || got.Attr == nil {
			t.Fatalf("run %d: missing Attr report (option not honored)", run)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: memo vs scratch diverge\nmemo:    %+v\nscratch: %+v", run, got, want)
		}
	}
	t2 := attrTotals()
	for name, v := range t2 {
		if one := t1[name] - t0[name]; v-t1[name] != 2*one {
			t.Errorf("%s: two memo cells added %d to AttrTotals, want 2 × %d", name, v-t1[name], one)
		}
	}
}

// attrTotals reads telemetry.AttrTotals by metric name.
func attrTotals() map[string]uint64 {
	reg := telemetry.NewRegistry()
	telemetry.AttrTotals.RegisterMetrics(reg)
	m := map[string]uint64{}
	reg.EachScalar(func(name, _ string, v float64) { m[name] = uint64(v) })
	return m
}
