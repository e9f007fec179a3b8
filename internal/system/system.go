// Package system assembles a complete simulated machine — N trace-driven
// cores with private L1/L2, one shared LLC in the configured mechanism,
// and the DDR3 memory controller — and runs the two-phase (warmup,
// measure) experiment protocol of Section 5 of the DBI paper.
package system

import (
	"fmt"
	"time"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/cpu"
	"dbisim/internal/dram"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
	"dbisim/internal/trace"
)

// System is one assembled machine.
type System struct {
	Eng   event.Engine
	Cfg   config.SystemConfig
	Geo   addr.Geometry
	Mem   *dram.Controller
	LLC   *llc.LLC
	Cores []*cpu.Core

	benchNames []string
	snap       snapshot

	// attr is the machine's attribution ledger (nil when attribution
	// is off).
	attr *telemetry.Attribution

	tracer  *telemetry.Tracer
	sampler *telemetry.Sampler

	// perfStart is the host wall clock at Run entry when time series
	// are armed: the self.* gauges report how fast the simulator itself
	// is running without touching simulated state.
	perfStart time.Time
}

// CoreResult is one core's measured performance.
type CoreResult struct {
	Bench        string
	IPC          float64
	Instructions uint64
	Cycles       uint64
	MPKI         float64 // LLC demand reads per kilo instruction that missed
	L1HitRate    float64
}

// Results aggregates everything the paper's figures report.
type Results struct {
	Mechanism config.Mechanism
	PerCore   []CoreResult

	// Figure 6 series (whole-run rates; the synthetic workloads are
	// stationary, so whole-run and post-warmup rates agree closely).
	WriteRowHitRate float64
	ReadRowHitRate  float64
	TagLookupsPKI   float64
	MemWritesPKI    float64
	MemReadsPKI     float64
	LLCMPKI         float64

	TotalInstructions uint64
	// Measured-window DRAM command counts (for the energy model).
	MemReads, MemWrites, MemActivates uint64
	Bypasses                          uint64
	FillerLookups                     uint64
	DBIEvictions                      uint64
	AvgReadLatency                    float64
	PortQueueDelay                    uint64
	DrainsStarted                     uint64

	// Attr is the run's attribution report (nil when attribution is
	// off): where simulated cycles and DRAM bytes went, split at the
	// warmup→measure boundary. It is carried separately from Metrics()
	// so existing golden grids and -check flows are untouched.
	Attr *telemetry.AttrReport
}

// New builds a system running the named benchmark on every core
// (len(benches) must equal cfg.NumCores). Each core's footprint is
// offset so address streams never overlap, exactly like distinct
// processes in the paper's multiprogrammed workloads.
//
// Optional observability is configured at construction with functional
// options — WithTracer, WithTimeSeries, WithAttribution — so the returned
// System is fully wired before its first cycle.
func New(cfg config.SystemConfig, benches []string, seed int64, opts ...Option) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(benches) != cfg.NumCores {
		return nil, fmt.Errorf("system: %d benchmarks for %d cores", len(benches), cfg.NumCores)
	}
	// benchNames is the machine's own copy, so the caller may reuse
	// its slice once New returns.
	s := &System{Cfg: cfg, Geo: addr.Default(), benchNames: append([]string(nil), benches...)}
	mem, err := dram.New(&s.Eng, s.Geo, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s.Mem = mem
	l3, err := llc.New(&s.Eng, s.Geo, llc.Config{
		Cores: cfg.NumCores, Sys: cfg, Mem: mem, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s.LLC = l3
	for i := 0; i < cfg.NumCores; i++ {
		p, err := trace.ByName(benches[i])
		if err != nil {
			return nil, err
		}
		gen := trace.New(p, addr.Addr(uint64(i+1)<<36), seed+int64(i)*131)
		core, err := cpu.New(&s.Eng, i, cfg, gen, l3, seed+int64(i)*977)
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, core)
	}
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	s.apply(&o)
	return s, nil
}

// attachAttr wires one attribution ledger into every component that
// charges it.
func (s *System) attachAttr(a *telemetry.Attribution) {
	s.attr = a
	s.Mem.Attr = a
	s.LLC.Attr = a
	s.LLC.Port.Attr = a
	for _, c := range s.Cores {
		c.Attr = a
	}
}

// attachTracer is the tracer wiring behind WithTracer. Tracing must
// never change simulated behavior — TestTelemetryDoesNotPerturbResults
// holds Run's Results bit-identical with and without it.
func (s *System) attachTracer(t *telemetry.Tracer) {
	s.tracer = t
	s.Mem.Trc = t
	s.LLC.Trc = t
	for i, c := range s.Cores {
		c.Trc = t
		t.NameThread(i, fmt.Sprintf("core %d", i))
	}
	t.NameThread(telemetry.TIDLLC, "llc")
	t.NameThread(telemetry.TIDDBI, "dbi")
	t.NameThread(telemetry.TIDDRAM, "dram ctrl")
	for b := 0; b < int(s.Geo.NumBanks); b++ {
		t.NameThread(telemetry.TIDBank(b), fmt.Sprintf("dram bank %d", b))
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (s *System) Tracer() *telemetry.Tracer { return s.tracer }

// RegisterMetrics adds every component's probes to the caller's
// registry — the hook cmd/dbisim uses to expose a live single-run
// registry on the ops-plane /metrics endpoint, and the set the epoch
// sampler snapshots. Component counters are plain (non-atomic) uint64s,
// so values scraped mid-run are monitoring approximations; they are
// exact whenever the engine is quiescent.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	for _, c := range s.Cores {
		c.RegisterMetrics(reg)
	}
	s.LLC.RegisterMetrics(reg)
	s.Mem.RegisterMetrics(reg)
}

// registerSelfMetrics adds the simulator-throughput gauges — how fast
// the simulation itself executes on the host — so they ride the same
// time-series export path as the workload metrics. Both only read
// host-domain state (wall clock, engine counters), so they preserve the
// bit-identical-Results guarantee like every other probe.
func (s *System) registerSelfMetrics(reg *telemetry.Registry) {
	elapsed := func() float64 { return time.Since(s.perfStart).Seconds() }
	reg.Gauge("self.sim_cycles_per_sec", func() float64 {
		if el := elapsed(); el > 0 {
			return float64(s.Eng.Now()) / el
		}
		return 0
	})
	reg.Gauge("self.engine_events_per_sec", func() float64 {
		if el := elapsed(); el > 0 {
			return float64(s.Eng.Fired()) / el
		}
		return 0
	})
}

// Sampler returns the armed epoch sampler (nil when time series are
// off).
func (s *System) Sampler() *telemetry.Sampler { return s.sampler }

// snapshot captures the global counters at the start of the measurement
// window so harvest can report measured-window rates. Without it, the
// warmup transient (an LLC filling with dirty blocks writes nothing to
// memory) would distort every writeback-related comparison.
type snapshot struct {
	reads, writes             uint64
	readRowHits, writeRowHits uint64
	tagLookups, readMisses    uint64
	bypasses, fillerLookups   uint64
	dbiEvictions              uint64
	readLatencySum            uint64
	portQueueDelay, drains    uint64
	activates                 uint64
	coreIssued                []uint64

	// attr/atCycle baseline the attribution ledger at the same instant
	// as the counters above, so harvest can split warmup from measure.
	attr    telemetry.AttrValues
	atCycle uint64
}

func (s *System) takeSnapshot() snapshot {
	ms := &s.Mem.Stat
	sn := snapshot{
		reads:          ms.Reads.Value(),
		writes:         ms.Writes.Value(),
		readRowHits:    ms.ReadRowHits.Value(),
		writeRowHits:   ms.WriteRowHits.Value(),
		tagLookups:     s.LLC.TagLookups(),
		readMisses:     s.LLC.Stat.ReadMisses.Value(),
		bypasses:       s.LLC.Stat.Bypasses.Value(),
		fillerLookups:  s.LLC.Stat.FillerLookups.Value(),
		readLatencySum: ms.ReadLatencySum.Value(),
		portQueueDelay: s.LLC.Port.QueueDelay.Value(),
		drains:         ms.DrainsStarted.Value(),
		activates:      ms.Activates.Value(),
		attr:           s.attr.Values(),
		atCycle:        uint64(s.Eng.Now()),
	}
	if s.LLC.DBI != nil {
		sn.dbiEvictions = s.LLC.DBI.Stat.Evictions.Value()
	}
	for _, c := range s.Cores {
		sn.coreIssued = append(sn.coreIssued, c.Issued())
	}
	return sn
}

// armSampler arms the epoch sampler's engine event, captures the
// host-domain baseline for the self.* gauges and returns the function
// that cancels the event and records the final partial-epoch sample.
// Without a sampler it does nothing.
func (s *System) armSampler() (finish func()) {
	if s.sampler == nil {
		return func() {}
	}
	s.perfStart = time.Now()
	smp := s.sampler
	cancel := s.Eng.Every(event.Cycle(smp.Epoch()), func() {
		smp.Tick(uint64(s.Eng.Now()))
	})
	return func() {
		cancel()
		smp.Finish(uint64(s.Eng.Now()))
	}
}

// Run executes warmup then measurement on every core and returns the
// harvested results. Cores that finish early keep executing (preserving
// contention) until the last core completes its measured budget. Global
// rates are measured from the moment the last core finishes warmup.
func (s *System) Run() Results {
	defer s.armSampler()()
	remaining := len(s.Cores)
	warming := len(s.Cores)
	for _, c := range s.Cores {
		c := c
		c.Start(s.Cfg.WarmupInstructions, func() {
			warming--
			if warming == 0 {
				s.snap = s.takeSnapshot()
			}
			// Warmup done: immediately begin this core's measure window.
			c.Rebudget(s.Cfg.MeasureInstructions, func() {
				remaining--
				if remaining == 0 {
					s.Eng.Stop()
				}
			})
		})
	}
	s.Eng.Run()
	return s.harvest()
}

func (s *System) harvest() Results {
	r := Results{Mechanism: s.Cfg.Mechanism}
	sn := &s.snap
	var insts uint64
	for i, c := range s.Cores {
		measured := c.Issued()
		if i < len(sn.coreIssued) {
			measured -= sn.coreIssued[i]
		}
		ci := CoreResult{
			Bench:        s.benchNames[i],
			IPC:          c.IPC(),
			Instructions: measured,
			Cycles:       c.Cycles(),
		}
		ci.MPKI = stats.PerKilo(c.Stat.LLCAccesses.Value(), c.Stat.Instructions.Value())
		ci.L1HitRate = stats.Ratio(c.Stat.L1Hits.Value(), c.Stat.Loads.Value()+c.Stat.Stores.Value())
		insts += measured
		r.PerCore = append(r.PerCore, ci)
	}
	r.TotalInstructions = insts
	ms := &s.Mem.Stat
	reads := ms.Reads.Value() - sn.reads
	writes := ms.Writes.Value() - sn.writes
	r.WriteRowHitRate = stats.Ratio(ms.WriteRowHits.Value()-sn.writeRowHits, writes)
	r.ReadRowHitRate = stats.Ratio(ms.ReadRowHits.Value()-sn.readRowHits, reads)
	r.TagLookupsPKI = stats.PerKilo(s.LLC.TagLookups()-sn.tagLookups, insts)
	r.MemWritesPKI = stats.PerKilo(writes, insts)
	r.MemReadsPKI = stats.PerKilo(reads, insts)
	r.MemReads, r.MemWrites = reads, writes
	r.MemActivates = ms.Activates.Value() - sn.activates
	r.LLCMPKI = stats.PerKilo(
		s.LLC.Stat.ReadMisses.Value()-sn.readMisses+
			s.LLC.Stat.Bypasses.Value()-sn.bypasses, insts)
	r.Bypasses = s.LLC.Stat.Bypasses.Value() - sn.bypasses
	r.FillerLookups = s.LLC.Stat.FillerLookups.Value() - sn.fillerLookups
	if s.LLC.DBI != nil {
		r.DBIEvictions = s.LLC.DBI.Stat.Evictions.Value() - sn.dbiEvictions
	}
	r.AvgReadLatency = stats.Ratio(ms.ReadLatencySum.Value()-sn.readLatencySum, reads)
	r.PortQueueDelay = s.LLC.Port.QueueDelay.Value() - sn.portQueueDelay
	r.DrainsStarted = ms.DrainsStarted.Value() - sn.drains
	if s.attr != nil {
		cur := s.attr.Values()
		measured := cur.Sub(sn.attr)
		r.Attr = &telemetry.AttrReport{
			Warmup:  telemetry.NewAttrWindow(sn.attr, sn.atCycle),
			Measure: telemetry.NewAttrWindow(measured, uint64(s.Eng.Now())-sn.atCycle),
		}
		// Fold the measure window into the process-wide aggregate the
		// ops plane serves; host-side only, so Results stay identical.
		telemetry.AttrTotals.Add(measured)
	}
	return r
}

// Metrics flattens the results into the name→value map carried by
// sweep records and the -json output of cmd/dbisim, so single runs and
// sweep cells share one schema.
func (r Results) Metrics() map[string]float64 {
	m := map[string]float64{
		"write_row_hit_rate": r.WriteRowHitRate,
		"read_row_hit_rate":  r.ReadRowHitRate,
		"tag_lookups_pki":    r.TagLookupsPKI,
		"mem_writes_pki":     r.MemWritesPKI,
		"mem_reads_pki":      r.MemReadsPKI,
		"llc_mpki":           r.LLCMPKI,
		"avg_read_latency":   r.AvgReadLatency,
	}
	for i, c := range r.PerCore {
		m[fmt.Sprintf("ipc_core%d", i)] = c.IPC
	}
	return m
}

// WeightedSpeedup computes Σ IPCshared/IPCalone over cores, given the
// alone-IPC of each benchmark measured on a single-core system with the
// same mechanism's baseline (Section 5, Metrics).
func WeightedSpeedup(shared []CoreResult, alone map[string]float64) float64 {
	ws := 0.0
	for _, c := range shared {
		if a := alone[c.Bench]; a > 0 {
			ws += c.IPC / a
		}
	}
	return ws
}

// HarmonicSpeedup computes the harmonic mean of per-core speedups
// (balances throughput and fairness).
func HarmonicSpeedup(shared []CoreResult, alone map[string]float64) float64 {
	var sum float64
	n := 0
	for _, c := range shared {
		if a := alone[c.Bench]; a > 0 && c.IPC > 0 {
			sum += a / c.IPC
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// MaxSlowdown returns max over cores of IPCalone/IPCshared (lower is
// fairer).
func MaxSlowdown(shared []CoreResult, alone map[string]float64) float64 {
	m := 0.0
	for _, c := range shared {
		if a := alone[c.Bench]; a > 0 && c.IPC > 0 {
			if s := a / c.IPC; s > m {
				m = s
			}
		}
	}
	return m
}

// InstructionThroughput sums per-core IPC.
func InstructionThroughput(shared []CoreResult) float64 {
	t := 0.0
	for _, c := range shared {
		t += c.IPC
	}
	return t
}
