package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dbisim/internal/experiments"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// simWorkers is the sweep's worker count, fixed so that two hosts with
// different CPU counts run the same schedule.
const simWorkers = 2

// simSpec is one dbibench sweep.
type simSpec struct {
	cells int // cells the sweep must complete
	run   func(experiments.Options) error
}

var simSpecs = map[string]*simSpec{
	"sim_fig6": {cells: 98, run: func(o experiments.Options) error {
		_, err := experiments.Fig6(o)
		return err
	}},
	"sim_tab3": {cells: 60, run: func(o experiments.Options) error {
		_, err := experiments.Table3(o)
		return err
	}},
}

// simRun is one executed sweep.
type simRun struct {
	wall    time.Duration
	records []sweep.Record
	doneAt  []float64 // completion times from the runner call, seconds
	err     error
}

// sweepOnce runs the sweep with the given seed. When probe is set the
// process exits where the runner would have been called.
func sweepOnce(spec *simSpec, seed int64, probe bool) simRun {
	rec := &sweep.Recorder{}
	var mu sync.Mutex
	var r simRun
	var start time.Time
	o := experiments.Options{
		Quick: true, Parallel: simWorkers, Seed: seed, Recorder: rec,
		Progress: func(done, total int) {
			t := time.Since(start).Seconds()
			mu.Lock()
			r.doneAt = append(r.doneAt, t)
			mu.Unlock()
		},
	}
	if probe {
		printProbe()
		os.Exit(0)
	}
	start = time.Now()
	r.err = spec.run(o)
	r.wall = time.Since(start)
	r.records = rec.Records()
	return r
}

// checkSweep applies the output checks every sim run must pass and
// returns the number of failed cells.
func checkSweep(res *result, spec *simSpec, r simRun) int {
	failed := 0
	if r.err != nil {
		res.problem("sweep failed: %v", r.err)
	}
	if len(r.records) != spec.cells {
		res.problem("sweep completed %d cells, want %d", len(r.records), spec.cells)
		if len(r.records) < spec.cells {
			failed += spec.cells - len(r.records)
		}
	}
	for _, rec := range r.records {
		if bad := badMetric(rec.Metrics); bad != "" {
			failed++
			res.problem("cell %s: %s", rec.Key, bad)
		}
	}
	return failed
}

// badMetric returns a description of the first out-of-range metric of
// one cell, or "". Rates must lie in [0,1] and IPCs must be positive.
func badMetric(m map[string]float64) string {
	if len(m) == 0 {
		return "no metrics"
	}
	for k, v := range m {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Sprintf("%s = %v", k, v)
		case strings.HasSuffix(k, "_rate") && (v < 0 || v > 1):
			return fmt.Sprintf("rate %s = %v outside [0,1]", k, v)
		case strings.HasPrefix(k, "ipc_") && v <= 0:
			return fmt.Sprintf("%s = %v not positive", k, v)
		}
	}
	return ""
}

// recordsDigest hashes every cell's key, seed and exact metric bits, so
// two runs of one seed can be compared for bit identity.
func recordsDigest(recs []sweep.Record) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%s|%d\n", r.Key, r.Seed)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(r.Metrics[k]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runSim(a args, spec *simSpec) *result {
	if a.trace {
		return runSimTraced(a, spec)
	}
	res := &result{metrics: map[string]float64{}}
	var setups []float64
	if !a.setupProbe {
		var err error
		if setups, err = probeSetup(a); err != nil {
			res.problem("%v", err)
		}
	}
	r := sweepOnce(spec, a.seed, a.setupProbe)
	res.attempted = spec.cells
	res.failed = checkSweep(res, spec, r)

	var cellUS []float64
	for _, rec := range r.records {
		cellUS = append(cellUS, rec.ElapsedMS*1000)
	}
	doneUS := make([]float64, len(r.doneAt))
	for i, t := range r.doneAt {
		doneUS[i] = t * 1e6
	}
	wall := r.wall.Seconds()
	m := res.metrics
	m["wall_s"] = wall
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = statusMiB("VmHWM")
	m["max_rps"] = float64(len(r.records)) / wall
	m["p50_us_lo"] = quantile(cellUS, 0.5)
	m["p99_us_lo"] = quantile(cellUS, 0.99)
	m["p50_us_hi"] = quantile(doneUS, 0.5)
	m["p99_us_hi"] = quantile(doneUS, 0.99)
	res.note("records_digest %s", recordsDigest(r.records))
	res.note("sweep cells=%d workers=%d wall_s=%.3f busy_s=%.3f; setup probes ms %.3f",
		len(r.records), simWorkers, wall, sum(cellUS)/1e6, scaled(setups, 1e3))
	res.note("samples: lo (cell run time) n=%d, hi (completion from runner call) n=%d; p99 rests on %d cells beyond it",
		len(cellUS), len(doneUS), int(0.01*float64(len(cellUS))))
	return res
}

// cellSpan is one sweep cell as the sink saw it, in nanoseconds from
// the runner call.
type cellSpan struct {
	Lane  int    `json:"lane"`
	Key   string `json:"key"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Err   string `json:"err,omitempty"`
}

// poolEvent is one pool/fork scheduler decision, an instant.
type poolEvent struct {
	At     int64  `json:"at_ns"`
	Worker int    `json:"worker"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// sweepSink records per-cell spans with their worker lane. It
// implements sweep.Sink.
type sweepSink struct {
	base  time.Time
	mu    sync.Mutex
	open  map[int]int64
	cells []cellSpan
	pool  []poolEvent
}

func newSweepSink(base time.Time) *sweepSink {
	return &sweepSink{base: base, open: map[int]int64{}}
}

func (s *sweepSink) SweepStart(string, int, int) {}
func (s *sweepSink) SweepEnd(string, int)        {}

func (s *sweepSink) CellStart(worker int, _ string) {
	t := since(s.base)
	s.mu.Lock()
	s.open[worker] = t
	s.mu.Unlock()
}

func (s *sweepSink) CellEnd(worker int, key string, _ time.Duration, err error) {
	t := since(s.base)
	c := cellSpan{Lane: worker, Key: key, End: t}
	if err != nil {
		c.Err = err.Error()
	}
	s.mu.Lock()
	c.Start = s.open[worker]
	s.cells = append(s.cells, c)
	s.mu.Unlock()
}

func (s *sweepSink) WorkerPanic(int, string, any) {}

func (s *sweepSink) poolHook(worker int, kind, detail string) {
	t := since(s.base)
	s.mu.Lock()
	s.pool = append(s.pool, poolEvent{At: t, Worker: worker, Kind: kind, Detail: detail})
	s.mu.Unlock()
}

func runSimTraced(a args, spec *simSpec) *result {
	res := &result{metrics: map[string]float64{}}
	sibOut, sib, err := runUntraced(a)
	if err != nil {
		res.problem("%v", err)
	}

	start := time.Now()
	sink := newSweepSink(start)
	sweep.Live.Enable(sink)
	system.SetPoolEventHook(sink.poolHook)
	pool0 := system.PoolStat.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		res.problem("start CPU profile: %v", err)
	}
	cpu0 := processCPU()
	r := sweepOnce(spec, a.seed, false)
	pprof.StopCPUProfile()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	pool := system.PoolStat.Snapshot().Sub(pool0)
	system.SetPoolEventHook(nil)
	sweep.Live.Disable()

	res.attempted = spec.cells
	res.failed = checkSweep(res, spec, r)
	digest := recordsDigest(r.records)
	if want := outputField(sibOut, "records_digest"); want != digest {
		res.problem("traced cell records differ from the untraced run's (digest %s vs %s)", digest, want)
	}

	m := res.metrics
	layers, err := foldCPUProfile(prof.Bytes())
	if err != nil {
		res.problem("fold CPU profile: %v", err)
	}
	putLayers(res, layers, cpu)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	sink.mu.Lock()
	cells := append([]cellSpan(nil), sink.cells...)
	events := append([]poolEvent(nil), sink.pool...)
	sink.mu.Unlock()
	var cellMS []float64
	for _, c := range cells {
		cellMS = append(cellMS, float64(c.End-c.Start)/1e6)
	}
	wall := r.wall.Seconds()
	m["sweep.busy_share"] = sum(cellMS) / 1000 / (wall * simWorkers)
	m["sweep.cell_ms_p50"] = quantile(cellMS, 0.5)
	m["sweep.cell_ms_max"] = quantile(cellMS, 1)
	m["sim.cells"] = float64(len(cells))
	if len(cells) != len(r.records) {
		res.problem("sink saw %d cells, recorder %d", len(cells), len(r.records))
	}
	m["system.forks"] = float64(pool.CkptHits)
	m["system.resets"] = float64(pool.Resets)
	m["system.rebuilds"] = float64(pool.Rebuilds)
	m["system.refusals"] = float64(pool.ResetRefusals + pool.RefusedDisabled + pool.RefusedRestore +
		pool.RefusedSnapshot + pool.RefusedWarmup + pool.RefusedOverhang)
	m["system.ckpt_hit_ratio"] = pool.CkptHitRate()
	m["tracing.overhead_wall_s"] = wall - sib["wall_s"]
	res.note("tracing overhead: traced wall_s %.3f, untraced wall_s %.3f", wall, sib["wall_s"])
	res.note("pool events: %s", countKinds(events))

	writeSpans(res, a, map[string]any{
		"env": environment(a), "cells": cells, "pool_events": events, "layers": layers,
	})
	return res
}

// putLayers copies a folded profile into the per-layer metrics and
// checks that the charged layers account for all of the host time.
// used is the CPU time the process consumed while profiling.
func putLayers(res *result, l layerTimes, used float64) {
	total := 0.0
	for _, name := range hostLayers {
		res.metrics[name+".host_s"] = l.seconds[name]
		total += l.seconds[name]
	}
	res.metrics["system.setup_host_s"] = l.seconds[setupLayer]
	total += l.seconds[setupLayer]
	res.metrics["sim.host_cpu_s"] = l.total
	if math.Abs(total-l.total) > 1e-9*math.Max(1, l.total) {
		res.problem("charged layers sum to %.6f s, profile holds %.6f s", total, l.total)
	}
	// The profile itself must account for the CPU time the kernel
	// charged the process meanwhile, or samples were lost.
	if tol := profileSlack*used + profileFloor; math.Abs(l.total-used) > tol {
		res.problem("profile holds %.3f CPU-s, getrusage %.3f CPU-s: apart by more than %.3f s", l.total, used, tol)
	}
	res.note("cpu profile: %d samples, %.3f CPU-s charged to %d layers; the process used %.3f CPU-s meanwhile",
		l.samples, l.total, len(hostLayers)+1, used)
}

// A profile's CPU time may differ from getrusage's for the same span by
// profileSlack of the latter plus profileFloor: 100 Hz sampling charges
// whole 10 ms periods, and the span's edges fall between samples.
const (
	profileSlack = 0.15
	profileFloor = 0.05 // s, five sampling periods
)

// processCPU returns the CPU time, user and system, this process has
// used so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func countKinds(events []poolEvent) string {
	n := map[string]int{}
	for _, e := range events {
		n[e.Kind]++
	}
	var parts []string
	for k, v := range n {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
