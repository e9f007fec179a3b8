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

// Checkpoint is a deep copy of a machine. New takes one at power-on,
// and Reset restores it. It is bound to the System that produced it:
// the event queue it carries holds that machine's prebound callbacks,
// so restoring into any other System would fire closures against the
// wrong components. restore enforces the binding.
//
// A checkpoint is allocation-bounded: component states reuse their
// buffers capture after capture, so snapshotting in a loop settles
// into zero steady-state allocation.
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

	// attr is the ledger's value at capture time.
	attr telemetry.AttrValues
}

// Snapshot deep-copies the machine into ck. It is legal at any
// quiescent point (the engine must not be mid-Run). Systems with
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

// restore writes ck back into the machine that produced it and rebinds
// the run to cfg, which may differ from the captured config only in
// its budgets (Signature must match); the trace generators are written
// only when gens is set. It refuses a foreign checkpoint, another
// geometry and a machine with telemetry attached, all before any
// mutation: on error the system is untouched.
func (s *System) restore(cfg config.SystemConfig, ck *Checkpoint, gens bool) error {
	if ck.owner != s {
		return fmt.Errorf("system: checkpoint belongs to a different machine")
	}
	if Signature(cfg) != Signature(ck.cfg) {
		return fmt.Errorf("system: restore requires matching geometry signatures")
	}
	if s.tracer != nil || s.sampler != nil {
		return fmt.Errorf("system: cannot restore with telemetry attached")
	}
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
	return nil
}
