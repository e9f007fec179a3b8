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

// TestAttributionSurvivesReset: Reset returns the ledger to power-on
// zero, so a reset machine's report must equal a fresh machine's bit
// for bit — the reuse path cannot leak the previous cell's charges.
func TestAttributionSurvivesReset(t *testing.T) {
	cfg := smallCfg(1, config.DBIAWB)
	sys, err := New(cfg, []string{"stream"}, 3, WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	first := sys.Run()
	if err := sys.Reset(cfg, []string{"stream"}, 3); err != nil {
		t.Fatal(err)
	}
	second := sys.Run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reset run diverges from first\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestAttributionForkMatchesScratch: attribution is checkpoint-carried
// state, so a forked measure window must report exactly what a scratch
// run reports — including the Attr report, compared bit for bit. The
// process-wide toggle routes the ledger into the pool's internally
// constructed machines.
func TestAttributionForkMatchesScratch(t *testing.T) {
	t.Setenv(NoForkEnv, "")
	SetAttributionEnabled(true)
	defer SetAttributionEnabled(false)
	var pool ForkPool
	mechs := []config.Mechanism{config.Baseline, config.DBIAWBCLB}
	before := PoolStat.Snapshot()
	for _, mech := range mechs {
		for i, measure := range forkMeasures {
			cfg := config.Scaled(2, mech)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, measure
			benches := []string{"stream", "mcf"}
			forked, err := pool.Run(cfg, benches, 11, i < len(forkMeasures)-1)
			if err != nil {
				t.Fatalf("%v measure=%d: %v", mech, measure, err)
			}
			fresh, err := New(cfg, benches, 11)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Run()
			if want.Attr == nil || forked.Attr == nil {
				t.Fatalf("%v measure=%d: missing Attr report (toggle not honored)", mech, measure)
			}
			if !reflect.DeepEqual(forked, want) {
				t.Errorf("%v measure=%d: forked vs scratch diverge\nforked:  %+v\nscratch: %+v",
					mech, measure, forked, want)
			}
		}
	}
	wantForked(t, before, len(mechs))
}

// TestAttributionSnapshotAllowed: unlike tracers and samplers, an
// attached ledger must not make Snapshot/Restore refuse.
func TestAttributionSnapshotAllowed(t *testing.T) {
	cfg := smallCfg(1, config.TADIP)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, 4000
	sys, err := New(cfg, []string{"stream"}, 5, WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := sys.Snapshot(&ck); err != nil {
		t.Fatalf("snapshot refused with attribution attached: %v", err)
	}
	first, err := sys.RunMeasure()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(cfg, &ck); err != nil {
		t.Fatalf("restore refused with attribution attached: %v", err)
	}
	second, err := sys.RunMeasure()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("restored measure diverges\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
