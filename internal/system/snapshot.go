package system

import (
	"fmt"

	"dbisim/internal/config"
	"dbisim/internal/cpu"
	"dbisim/internal/dram"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/telemetry"
	"dbisim/internal/trace"
)

// Checkpoint is a deep copy of a warmed machine, taken at the
// warmup→measure boundary. It is bound to the System that produced it:
// the event queue it carries holds that machine's prebound callbacks,
// so restoring into any other System would fire closures against the
// wrong components. Restore enforces the binding.
//
// A checkpoint is allocation-bounded: component states reuse their
// buffers capture after capture (the PR 5 arena layout), so snapshotting
// in a loop settles into zero steady-state allocation.
type Checkpoint struct {
	owner   *System
	cfg     config.SystemConfig
	benches []string

	eng   event.EngineState
	cores []cpu.State
	gens  []trace.GenState
	llc   llc.State
	mem   dram.State
	snap  snapshot

	// attr is the ledger's value at capture time. The warmup baseline
	// (snap.attr) rides along in the snapshot struct copy; this field
	// additionally carries any charges landed between that baseline and
	// the engine halt, so a restored machine resumes with the exact
	// ledger the scratch run had.
	attr telemetry.AttrValues
}

// Owner returns the System the checkpoint was taken from (nil for a
// zero checkpoint).
func (ck *Checkpoint) Owner() *System { return ck.owner }

// WarmupSignature returns the part of a config that determines the
// machine state at the warmup→measure boundary: everything except the
// measurement budget. Two cells whose WarmupSignatures, benchmarks and
// seeds agree reach bit-identical warmed machines, so one checkpoint
// serves them all.
func WarmupSignature(cfg config.SystemConfig) config.SystemConfig {
	cfg.MeasureInstructions = 0
	return cfg
}

// WarmupKey renders the full warmup identity — config warmup signature,
// benchmark mix, seed — as a string, usable as a map key and as the
// sweep scheduler's grouping label.
func WarmupKey(cfg config.SystemConfig, benches []string, seed int64) string {
	return fmt.Sprintf("%+v|%v|%d", WarmupSignature(cfg), benches, seed)
}

// RunWarmup executes only the warmup phase and parks the machine at the
// warmup→measure boundary, leaving it in exactly the state a scratch
// Run would pass through at that instant: each core's measurement
// window markers are pinned at its own warmup completion (via a
// zero-budget Rebudget, which is behaviorally inert), the global stats
// baseline is captured when the last core finishes, and the engine is
// stopped with all in-flight events still queued. A subsequent
// RunMeasure — immediately or after Restore — continues the run
// bit-identically.
//
// Telemetry survives the split: an attached tracer keeps emitting, and
// an attached epoch sampler arms here and keeps ticking through
// RunMeasure, so a split run's time series equals a monolithic Run's
// (TestTelemetrySplitPhaseMatchesMonolithic). Such a machine still
// cannot be snapshotted, restored, or reset — those refusals stand —
// so the fork scheduler only ever forks telemetry-free machines.
func (s *System) RunWarmup() error {
	if s.Cfg.WarmupInstructions == 0 {
		return fmt.Errorf("system: RunWarmup requires a warmup budget")
	}
	s.armSampler()
	warming := len(s.Cores)
	for _, c := range s.Cores {
		c := c
		c.Start(s.Cfg.WarmupInstructions, func() {
			warming--
			if warming == 0 {
				s.snap = s.takeSnapshot()
			}
			// Pin this core's measurement markers now, at the same
			// instant the scratch Run's Rebudget(measure, ...) would.
			c.Rebudget(0, nil)
			if warming == 0 {
				s.Eng.Stop()
			}
		})
	}
	s.Eng.Run()
	return nil
}

// RunMeasure resumes a machine parked at the warmup→measure boundary
// (by RunWarmup or Restore) and executes the measurement phase,
// returning the same Results a scratch Run would have.
//
// It refuses — before touching anything — when a core already issued
// its whole measurement budget during the warmup overhang (cores that
// finish warmup early keep executing to preserve contention): a scratch
// run would have completed that core's window mid-warmup, which a
// forked run cannot reproduce. The caller falls back to a scratch run;
// refusal is loud, not wrong.
func (s *System) RunMeasure() (Results, error) {
	if s.Cfg.MeasureInstructions == 0 {
		return Results{}, fmt.Errorf("system: RunMeasure requires a measurement budget")
	}
	for i, c := range s.Cores {
		if c.MeasuredSince() >= s.Cfg.MeasureInstructions {
			return Results{}, fmt.Errorf(
				"system: core %d issued %d ≥ budget %d during warmup overhang; not forkable",
				i, c.MeasuredSince(), s.Cfg.MeasureInstructions)
		}
	}
	remaining := len(s.Cores)
	for _, c := range s.Cores {
		c.ResumeMeasure(s.Cfg.MeasureInstructions, func() {
			remaining--
			if remaining == 0 {
				s.Eng.Stop()
			}
		})
	}
	s.Eng.Run()
	s.finishSampler()
	return s.harvest(), nil
}

// Snapshot deep-copies the machine into ck. It is legal at any
// quiescent point (the engine must not be mid-Run); the fork scheduler
// always takes it at the warmup→measure boundary. Systems with
// telemetry attached refuse: tracers and samplers accumulate host-side
// state a restore cannot unwind. On error ck is unchanged.
func (s *System) Snapshot(ck *Checkpoint) error {
	if s.tracer != nil || s.sampler != nil {
		return fmt.Errorf("system: cannot snapshot with telemetry attached")
	}
	ck.owner = s
	ck.cfg = s.Cfg
	ck.benches = append(ck.benches[:0], s.benchNames...)
	s.Eng.Snapshot(&ck.eng)
	if len(ck.cores) != len(s.Cores) {
		ck.cores = make([]cpu.State, len(s.Cores))
		ck.gens = make([]trace.GenState, len(s.Cores))
	}
	for i, c := range s.Cores {
		c.Snapshot(&ck.cores[i])
		s.gens[i].Snapshot(&ck.gens[i])
	}
	s.LLC.Snapshot(&ck.llc)
	s.Mem.Snapshot(&ck.mem)
	issued := ck.snap.coreIssued
	ck.snap = s.snap
	ck.snap.coreIssued = append(issued[:0], s.snap.coreIssued...)
	ck.attr = s.attr.Values()
	return nil
}

// Restore writes ck back into the machine that produced it, rebinding
// the run to cfg — which may differ from the captured config only in
// its measurement budget (the warmup signatures must match, or the
// checkpoint would describe a different warmed machine). All
// validation happens before any mutation, the same contract as Reset:
// on error the system is untouched.
func (s *System) Restore(cfg config.SystemConfig, ck *Checkpoint) error {
	if ck.owner != s {
		return fmt.Errorf("system: checkpoint belongs to a different machine")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if WarmupSignature(cfg) != WarmupSignature(ck.cfg) {
		return fmt.Errorf("system: restore requires matching warmup signatures")
	}
	if s.tracer != nil || s.sampler != nil {
		return fmt.Errorf("system: cannot restore with telemetry attached")
	}
	s.restore(cfg, ck, true)
	return nil
}

// restore is the body Restore and Reset share: it writes ck into the
// machine under cfg, the trace generators only when gens is set.
func (s *System) restore(cfg config.SystemConfig, ck *Checkpoint, gens bool) {
	s.Cfg = cfg
	s.Eng.Restore(&ck.eng)
	for i, c := range s.Cores {
		c.Restore(&ck.cores[i])
		if gens {
			s.gens[i].Restore(&ck.gens[i])
		}
	}
	s.LLC.Restore(&ck.llc)
	s.Mem.Restore(&ck.mem)
	s.benchNames = append(s.benchNames[:0], ck.benches...)
	issued := s.snap.coreIssued
	s.snap = ck.snap
	s.snap.coreIssued = append(issued[:0], ck.snap.coreIssued...)
	s.attr.SetValues(ck.attr)
}
