package system

import (
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/event"
)

// driveUntil starts every core with an effectively unbounded budget and
// advances the engine in small slices until cond holds, failing if it
// never does. The machine is left mid-flight — precisely the state the
// edge-case snapshots want to catch.
func driveUntil(t *testing.T, s *System, cond func() bool) {
	t.Helper()
	for _, c := range s.Cores {
		c.Start(1<<62, nil)
	}
	limit := event.Cycle(0)
	for i := 0; i < 4000; i++ {
		if cond() {
			return
		}
		limit += 256
		s.Eng.RunUntil(limit)
	}
	t.Fatal("condition never reached while driving the machine")
}

// fingerprint flattens the counters a divergence would perturb first:
// engine clocks, per-core issue state, LLC and memory statistics.
func fingerprint(s *System) []uint64 {
	fp := []uint64{uint64(s.Eng.Now()), s.Eng.Fired()}
	for _, c := range s.Cores {
		fp = append(fp, c.Issued(),
			c.Stat.Instructions.Value(), c.Stat.Loads.Value(), c.Stat.Stores.Value(),
			c.Stat.L1Hits.Value(), c.Stat.L2Hits.Value(),
			c.Stat.LLCAccesses.Value(), c.Stat.WindowStalls.Value())
	}
	ls := &s.LLC.Stat
	fp = append(fp, ls.Reads.Value(), ls.ReadHits.Value(), ls.ReadMisses.Value(),
		ls.Bypasses.Value(), ls.WritebackReqs.Value(), ls.FillerLookups.Value(),
		ls.ProactiveWBs.Value(), ls.DBIEvictionWBs.Value(), ls.VictimWBs.Value(),
		ls.ScanDrops.Value(), s.LLC.TagLookups(),
		uint64(s.LLC.MSHRLen()), uint64(s.LLC.ScanQueueLen()))
	ms := &s.Mem.Stat
	fp = append(fp, ms.Reads.Value(), ms.Writes.Value(), ms.Activates.Value(),
		ms.ReadRowHits.Value(), ms.WriteRowHits.Value(),
		ms.DrainsStarted.Value(), ms.ReadLatencySum.Value())
	return fp
}

// snapshotReplayCheck snapshots the machine in its current state, runs
// it 30k cycles further to record the reference trajectory, restores,
// replays, and requires a bit-identical fingerprint.
func snapshotReplayCheck(t *testing.T, s *System) {
	t.Helper()
	var ck Checkpoint
	if err := s.Snapshot(&ck); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	target := s.Eng.Now() + 30000
	s.Eng.RunUntil(target)
	want := fingerprint(s)
	if err := s.Restore(s.Cfg, &ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	s.Eng.RunUntil(target)
	if got := fingerprint(s); !reflect.DeepEqual(got, want) {
		t.Errorf("replay after mid-flight restore diverges\n got: %v\nwant: %v", got, want)
	}
}

// TestSnapshotMidDrain catches a DBI+AWB machine with harvest work
// queued in the scan state machine (the evict-buffer/AWB drain in
// flight) and proves a snapshot/restore replays the drain identically.
func TestSnapshotMidDrain(t *testing.T) {
	cfg := config.Scaled(1, config.DBIAWB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 1000
	s, err := New(cfg, []string{"stream"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, s, func() bool { return s.LLC.ScanQueueLen() > 0 })
	snapshotReplayCheck(t, s)
}

// TestSnapshotWithOccupiedMSHR catches the machine with outstanding
// merged misses (MSHR waiters parked on in-flight fills) and proves the
// waiter callbacks survive the round trip.
func TestSnapshotWithOccupiedMSHR(t *testing.T) {
	cfg := config.Scaled(2, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 1000
	s, err := New(cfg, []string{"mcf", "milc"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, s, func() bool { return s.LLC.MSHRLen() > 0 })
	snapshotReplayCheck(t, s)
}

// TestRestoreRefusals pins the error paths and their
// error-before-mutation contract (same as Reset): a refused restore
// leaves the machine untouched and still usable.
func TestRestoreRefusals(t *testing.T) {
	cfg := config.Scaled(1, config.DBIAWBCLB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 3000
	benches := []string{"stream"}
	s, err := New(cfg, benches, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := s.Snapshot(&ck); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(s)

	// Mismatched geometry: a different mechanism describes a different
	// machine; the checkpoint must be refused before any mutation.
	other := cfg
	other.Mechanism = config.Baseline
	if err := s.Restore(other, &ck); err == nil {
		t.Error("Restore succeeded across a mechanism change")
	}
	// Mismatched warmup identity within the same geometry.
	other = cfg
	other.WarmupInstructions += 1000
	if err := s.Restore(other, &ck); err == nil {
		t.Error("Restore succeeded across a warmup-budget change")
	}
	if got := fingerprint(s); !reflect.DeepEqual(got, before) {
		t.Error("refused Restore mutated the machine")
	}

	// A foreign machine must refuse the checkpoint outright.
	foreign, err := New(cfg, benches, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Restore(cfg, &ck); err == nil {
		t.Error("Restore accepted a checkpoint from a different machine")
	}

	// A measure-budget-only change is the designed use: accepted, and
	// the machine measures with the new budget.
	rebud := cfg
	rebud.MeasureInstructions = 4000
	if err := s.Restore(rebud, &ck); err != nil {
		t.Fatalf("Restore refused a measure-budget-only change: %v", err)
	}
	res, err := s.RunMeasure()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := New(rebud, benches, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := scratch.Run(); !reflect.DeepEqual(res, want) {
		t.Errorf("restored measure diverges from scratch\n got: %+v\nwant: %+v", res, want)
	}
}

// TestPhaseSplitRefusals pins RunWarmup/RunMeasure/Snapshot guards:
// zero budgets and attached telemetry refuse loudly.
func TestPhaseSplitRefusals(t *testing.T) {
	cfg := config.Scaled(1, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 0, 1000
	s, err := New(cfg, []string{"stream"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(); err == nil {
		t.Error("RunWarmup accepted a zero warmup budget")
	}

	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 0
	s2, err := New(cfg, []string{"stream"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunMeasure(); err == nil {
		t.Error("RunMeasure accepted a zero measurement budget")
	}

	cfg.MeasureInstructions = 1000
	traced, err := New(cfg, []string{"stream"}, 8, WithTimeSeries(100))
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := traced.Snapshot(&ck); err == nil {
		t.Error("Snapshot accepted a telemetry-armed system")
	}
	// Phase splitting itself tolerates telemetry (the sampler arms
	// across the boundary; TestTelemetrySplitPhaseMatchesMonolithic
	// pins the series), but the machine still cannot be checkpointed.
	if err := traced.RunWarmup(); err != nil {
		t.Errorf("RunWarmup refused a telemetry-armed system: %v", err)
	}
	if err := traced.Snapshot(&ck); err == nil {
		t.Error("Snapshot accepted a telemetry-armed system at the boundary")
	}
	if _, err := traced.RunMeasure(); err != nil {
		t.Errorf("RunMeasure after telemetry-armed warmup: %v", err)
	}
}
