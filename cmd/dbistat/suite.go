package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"dbisim/internal/addr"
	"dbisim/internal/cache"
	"dbisim/internal/config"
	"dbisim/internal/dbi"
	"dbisim/internal/dbiserve"
	"dbisim/internal/event"
	"dbisim/internal/experiments"
	"dbisim/internal/perfstat"
	"dbisim/internal/system"
	"dbisim/internal/telemetry"
	"dbisim/internal/trace"
	servedbi "dbisim/pkg/dbi"
)

// The recording suite. Micro targets mirror the `go test -bench`
// micro-benchmarks (internal/event, internal/dbi) as fixed-size loops
// so each run is one comparable observation; macro targets run whole
// paper experiments through internal/sweep sequentially (Parallel: 1),
// which keeps wall time attributable and allocation deltas clean. The
// heavyweight sweeps (fig6, tab7: minutes per round sequentially) stay
// out of the recording suite on purpose — CI still runs them once per
// commit via dbibench.

// microOps sizes the fixed micro loops: large enough to dwarf timer
// granularity, small enough that a round is sub-second.
const microOps = 2_000_000

// suite assembles the benchmark targets for a recording session.
func suite(kind string, seed int64) []perfstat.Target {
	var ts []perfstat.Target
	if kind == "all" || kind == perfstat.KindMicro {
		ts = append(ts,
			perfstat.Target{Name: "micro/event.chain", Kind: perfstat.KindMicro, Run: eventChain},
			perfstat.Target{Name: "micro/dbi.setdirty", Kind: perfstat.KindMicro, Run: dbiSetDirty},
			perfstat.Target{Name: "micro/dbi.isdirty", Kind: perfstat.KindMicro, Run: dbiIsDirty},
			perfstat.Target{Name: "micro/dbi.region", Kind: perfstat.KindMicro, Run: dbiRegion},
			perfstat.Target{Name: "micro/cache.lookup", Kind: perfstat.KindMicro, Run: cacheLookup},
			perfstat.Target{Name: "micro/cache.ssv", Kind: perfstat.KindMicro, Run: cacheSSV},
			perfstat.Target{Name: "micro/trace.next", Kind: perfstat.KindMicro, Run: func() (perfstat.Counts, error) {
				return traceNext(seed)
			}},
			perfstat.Target{Name: "micro/sim.stream", Kind: perfstat.KindMicro, Run: func() (perfstat.Counts, error) {
				return simStream(seed)
			}},
			perfstat.Target{Name: "micro/shard.setdirty", Kind: perfstat.KindMicro, Run: shardSetDirty},
		)
	}
	if kind == "all" || kind == perfstat.KindMacro {
		ts = append(ts,
			macroTarget("macro/casestudy", seed, func(o experiments.Options) error {
				_, err := experiments.CaseStudy(o)
				return err
			}),
			macroTarget("macro/clbsens", seed, func(o experiments.Options) error {
				_, err := experiments.CLBSensitivity(o)
				return err
			}),
			perfstat.Target{Name: "macro/served_loadtest", Kind: perfstat.KindMacro, Run: func() (perfstat.Counts, error) {
				return servedLoadtest(seed)
			}},
			macroTarget("macro/flushlat", seed, func(o experiments.Options) error {
				// One Flush is sub-millisecond — below the host's
				// scheduling-noise floor — so run a batch per round to
				// give the regression gate a resolvable signal.
				for i := 0; i < 50; i++ {
					if _, err := experiments.Flush(o); err != nil {
						return err
					}
				}
				return nil
			}),
		)
	}
	return ts
}

// eventChain measures raw engine throughput: schedule-and-fire of
// chained events, the backbone cost of every simulation (mirrors
// event.BenchmarkScheduleRun). Each op is one event one cycle apart,
// so only ops are reported: cycles and events would repeat the count.
func eventChain() (perfstat.Counts, error) {
	var e event.Engine
	n := 0
	var step func()
	step = func() {
		n++
		if n < microOps {
			e.After(1, step)
		}
	}
	e.After(1, step)
	e.Run()
	return perfstat.Counts{Ops: microOps}, nil
}

// microDBI builds the 16MB-cache-sized DBI the dbi micro-benchmarks
// use.
func microDBI() (*dbi.DBI, error) {
	return dbi.New(dbi.WithCacheBlocks(262144), dbi.WithSeed(1))
}

// dbiSetDirty measures the hot write path including evictions.
func dbiSetDirty() (perfstat.Counts, error) {
	d, err := microDBI()
	if err != nil {
		return perfstat.Counts{}, err
	}
	for i := 0; i < microOps; i++ {
		d.SetDirty(addr.BlockAddr(i * 37))
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// dbiIsDirty measures the CLB guard query against a warm DBI.
func dbiIsDirty() (perfstat.Counts, error) {
	d, err := microDBI()
	if err != nil {
		return perfstat.Counts{}, err
	}
	for i := 0; i < 4096; i++ {
		d.SetDirty(addr.BlockAddr(i))
	}
	for i := 0; i < microOps; i++ {
		d.IsDirty(addr.BlockAddr(i & 8191))
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// dbiRegion measures the AWB harvest query — DirtyBlocksInRegionInto
// against a warm DBI with row-local dirty clusters — the word-at-a-time
// bit-decode path the columnar store rewrote.
func dbiRegion() (perfstat.Counts, error) {
	d, err := microDBI()
	if err != nil {
		return perfstat.Counts{}, err
	}
	g := d.Granularity()
	for r := 0; r < 2048; r++ {
		for i := 0; i < g; i += 4 {
			d.SetDirty(addr.BlockAddr(r*g + i))
		}
	}
	var dst []addr.BlockAddr
	for i := 0; i < microOps; i++ {
		dst = d.DirtyBlocksInRegionInto(addr.BlockAddr((i&2047)*g), dst[:0])
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// cacheLookup measures the tag-store probe plane: a hit-heavy Access
// stream against a warm 16-way cache, the branchless way-scan every
// demand access rides on.
func cacheLookup() (perfstat.Counts, error) {
	p := config.CacheParams{
		SizeBytes: 2 << 20, Ways: 16,
		TagLatency: 2, DataLatency: 8,
		Replacement: config.ReplLRU,
	}
	c, err := cache.New(p, 1, 1)
	if err != nil {
		return perfstat.Counts{}, err
	}
	blocks := c.Sets() * c.Ways()
	for i := 0; i < blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	for i := 0; i < microOps; i++ {
		c.Access(addr.BlockAddr((i*37)&(blocks-1)), 0)
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// cacheSSV measures the Virtual Write Queue's Set State Vector query
// (mirrors cache.BenchmarkDirtyInLowRanks): Figure 6's VWQ L3 (1 MiB,
// 16-way TA-DIP) warmed with twice its capacity of fills, half of them
// dirty, plus a round of random hits, then queried over every set in
// turn for a dirty block in its two LRU ways.
func cacheSSV() (perfstat.Counts, error) {
	c, err := cache.New(config.Scaled(1, config.VWQ).L3, 1, 1)
	if err != nil {
		return perfstat.Counts{}, err
	}
	rng := rand.New(rand.NewSource(1))
	blocks := c.Params().Blocks()
	for i := 0; i < 2*blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, rng.Intn(2) == 0)
	}
	for i := 0; i < blocks; i++ {
		c.Access(addr.BlockAddr(rng.Intn(2*blocks)), 0)
	}
	hits := 0
	for i := 0; i < microOps; i++ {
		if c.DirtyInLowRanks(i&(c.Sets()-1), 2) {
			hits++
		}
	}
	if hits == 0 {
		return perfstat.Counts{}, fmt.Errorf("cache.ssv: warm-up left no dirty block in any set's LRU ways")
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// shardSetDirty measures the service-facing sharded tracker's batch
// write path — hashing, striped locking and eviction harvesting —
// which is what every dbiserved request rides on.
func shardSetDirty() (perfstat.Counts, error) {
	tr, err := servedbi.NewSharded(8, servedbi.WithRows(1<<16), servedbi.WithSeed(1))
	if err != nil {
		return perfstat.Counts{}, err
	}
	const batch = 128
	keys := make([]servedbi.Key, batch)
	var sink []servedbi.Key
	for i := 0; i < microOps; i += batch {
		for j := range keys {
			keys[j] = servedbi.Key(uint64(i+j) * 37)
		}
		sink = tr.SetDirtyBatch(keys, sink[:0])
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// servedLoadtest boots a dbiserved instance in-process on loopback and
// drives a short closed-loop binary-protocol burst, reporting applied
// SetDirty ops plus the driver's own throughput and tail latency via
// Extra — the recording-suite twin of the CI loadtest job's absolute
// gates. Client count stays modest so the number measures the service
// stack, not runner-core contention.
func servedLoadtest(seed int64) (perfstat.Counts, error) {
	tr, err := servedbi.NewSharded(8, servedbi.WithRows(1<<16), servedbi.WithSeed(1))
	if err != nil {
		return perfstat.Counts{}, err
	}
	srv := dbiserve.New(tr, telemetry.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return perfstat.Counts{}, err
	}
	defer ln.Close()
	go srv.ServeBinary(ln)
	rep, err := dbiserve.RunLoad(context.Background(), dbiserve.LoadConfig{
		Addr: ln.Addr().String(), Protocol: "binary", Clients: 8, Batch: 128,
		Duration: 2 * time.Second, Profile: "stream", Seed: seed,
	})
	if err != nil {
		return perfstat.Counts{}, err
	}
	if rep.Errors > 0 {
		return perfstat.Counts{}, fmt.Errorf("loadtest reported %d errors", rep.Errors)
	}
	return perfstat.Counts{Ops: rep.SetKeys, Extra: map[string]float64{
		"set_ops_per_sec": rep.SetOpsSec,
		"p99_us":          float64(rep.P99us),
	}}, nil
}

// traceNext measures the synthetic trace generator's record loop — page
// translation through the open-addressed page table plus the RNG draws —
// the per-instruction front-end cost of every simulated core.
func traceNext(seed int64) (perfstat.Counts, error) {
	p, err := trace.ByName("stream")
	if err != nil {
		return perfstat.Counts{}, err
	}
	g := trace.New(p, addr.Addr(1<<36), seed)
	for i := 0; i < microOps; i++ {
		g.Next()
	}
	return perfstat.Counts{Ops: microOps}, nil
}

// simStream runs one full single-core system end to end and reports
// engine-domain throughput: simulated cycles and fired events per
// host second are the purest "how fast is the simulator" numbers.
func simStream(seed int64) (perfstat.Counts, error) {
	cfg := config.Scaled(1, config.DBIAWBCLB)
	cfg.WarmupInstructions = 100_000
	cfg.MeasureInstructions = 300_000
	sys, err := system.New(cfg, []string{"stream"}, seed)
	if err != nil {
		return perfstat.Counts{}, err
	}
	sys.Run()
	return perfstat.Counts{Cycles: uint64(sys.Eng.Now()), Events: sys.Eng.Fired(), Cells: 1}, nil
}

// macroTarget wraps an experiment runner as a sequential quick sweep.
// Completed cells are counted through the process-wide perfstat
// counter the sweep worker pool feeds — the same signal the ops
// plane's proc.cells_done counter reads — so every sweep-driven
// experiment reports cells uniformly whether or not it uses a Recorder.
func macroTarget(name string, seed int64, run func(experiments.Options) error) perfstat.Target {
	return perfstat.Target{Name: name, Kind: perfstat.KindMacro, Run: func() (perfstat.Counts, error) {
		before := perfstat.CellCount()
		o := experiments.Options{
			Out: io.Discard, Quick: true, Seed: seed, Parallel: 1,
		}
		if err := run(o); err != nil {
			return perfstat.Counts{}, err
		}
		return perfstat.Counts{Cells: perfstat.CellCount() - before}, nil
	}}
}
