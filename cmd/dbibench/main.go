// Command dbibench regenerates the tables and figures of the DBI paper's
// evaluation (Section 6) on the laptop-scale configuration.
//
// Usage:
//
//	dbibench -experiment fig6               # one experiment
//	dbibench -experiment all -full          # everything, full sweep sizes
//	dbibench -experiment all -parallel 8    # fan cells out over 8 workers
//	dbibench -experiment fig6 -check        # gate on the paper's ordering
//	dbibench -experiment all -json out.json # machine-readable cell results
//	dbibench -experiment all -listen :9187  # live ops plane (/metrics, /sweep)
//
// The runner table below is the single source of truth: the usage text
// and the `all` set are both generated from it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dbisim/internal/cliflags"
	"dbisim/internal/experiments"
	"dbisim/internal/obs"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// runner binds an experiment id to its implementation. Every runner
// listed here is part of `-experiment all`.
type runner struct {
	id   string
	desc string
	run  func(experiments.Options) error
}

// fig6Result captures the Figure 6 sweep when it runs, for -check.
var fig6Result *experiments.Fig6Result

// runners is the experiment registry — usage text and the `all` set
// derive from it, so adding a runner here is the whole registration.
var runners = []runner{
	{"fig6", "Figure 6: single-core IPC, row hit rates, tag lookups, WPKI", func(o experiments.Options) error {
		r, err := experiments.Fig6(o)
		fig6Result = r
		return err
	}},
	{"fig7", "Figure 7: multi-core weighted speedup (2/4/8 cores)", func(o experiments.Options) error {
		_, err := experiments.Fig7(o)
		return err
	}},
	{"fig8", "Figure 8: 4-core per-workload speedup S-curve", func(o experiments.Options) error {
		_, err := experiments.Fig8(o)
		return err
	}},
	{"tab3", "Table 3: performance and fairness metrics", func(o experiments.Options) error {
		_, err := experiments.Table3(o)
		return err
	}},
	{"tab4", "Table 4: bit storage cost reduction", func(o experiments.Options) error {
		experiments.Table4(o)
		return nil
	}},
	{"tab5", "Table 5: DBI power fraction", func(o experiments.Options) error {
		experiments.Table5(o)
		return nil
	}},
	{"tab6", "Table 6: AWB sensitivity to DBI size and granularity", func(o experiments.Options) error {
		_, err := experiments.Table6(o)
		return err
	}},
	{"tab7", "Table 7: cache size sensitivity", func(o experiments.Options) error {
		_, err := experiments.Table7(o)
		return err
	}},
	{"casestudy", "Section 6.2: GemsFDTD+libquantum case study", func(o experiments.Options) error {
		_, err := experiments.CaseStudy(o)
		return err
	}},
	{"dbipolicy", "Section 4.3: DBI replacement policy comparison", func(o experiments.Options) error {
		_, err := experiments.DBIPolicy(o)
		return err
	}},
	{"clbsens", "Section 6.4: CLB miss-predictor threshold sensitivity", func(o experiments.Options) error {
		_, err := experiments.CLBSensitivity(o)
		return err
	}},
	{"drrip", "Section 6.5: DBI under DRRIP replacement", func(o experiments.Options) error {
		_, err := experiments.DRRIP(o)
		return err
	}},
	{"area", "Section 6.3: area and DRAM energy", func(o experiments.Options) error {
		_, err := experiments.AreaPower(o)
		return err
	}},
	{"flushlat", "Section 7: whole-cache flush latency", func(o experiments.Options) error {
		_, err := experiments.Flush(o)
		return err
	}},
	{"ablation", "Design-choice ablations (write buffer, drain, DBI assoc)", func(o experiments.Options) error {
		_, err := experiments.Ablation(o)
		return err
	}},
}

func experimentIDs() []string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return ids
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "usage: dbibench [flags]\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(w, "\nexperiments (all runs every one of them):\n")
	for _, r := range runners {
		fmt.Fprintf(w, "  %-10s %s\n", r.id, r.desc)
	}
}

func main() {
	var (
		name = flag.String("experiment", "all",
			"experiment id ("+strings.Join(experimentIDs(), ", ")+", all)")
		full = flag.Bool("full", false, "full sweep sizes instead of quick mode")
		seed = flag.Int64("seed", 42, "simulation seed")
		par  = flag.Int("parallel", 0,
			"worker goroutines per sweep (0 = one per CPU, 1 = sequential)")
		out   cliflags.Output
		check = flag.Bool("check", false,
			"verify the paper's Figure-6a mechanism ordering (needs fig6 in the run)")
		cpuProfile = flag.String("cpuprofile", "",
			"write a pprof CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "",
			"write a pprof heap profile at exit to this file")
		progress = flag.Bool("progress", stderrIsTerminal(),
			"report live per-sweep cell progress and ETA on stderr "+
				"(defaults to on only when stderr is a terminal)")
		attr = flag.Bool("attr", false,
			"attach cycle/bandwidth attribution ledgers to every cell; "+
				"-json records gain an attr block (analyze with dbiscope)")
		ops cliflags.Ops
	)
	out.Register(flag.CommandLine,
		"write per-cell metrics, wall clock and speedup to this JSON file (\"-\" for stdout)")
	ops.Register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	// Every stderr write goes through one TermLog, so log lines and the
	// transient -progress line never interleave (and the TTY clearing
	// sequences never land anywhere near -json's stdout).
	term := obs.NewTermLog(os.Stderr)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(term, "dbibench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(term, "dbibench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(term, "dbibench: cpu profile -> %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(term, "dbibench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(term, "dbibench: heap profile: %v\n", err)
				return
			}
			fmt.Fprintf(term, "dbibench: heap profile -> %s\n", *memProfile)
		}()
	}

	// The pool schedulers construct Systems internally, so the -attr
	// flag reaches them through the process-wide default.
	system.SetAttributionEnabled(*attr)

	srv, err := ops.Start(nil, "dbibench", term)
	if err != nil {
		fmt.Fprintf(term, "dbibench: %v\n", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}

	rec := &sweep.Recorder{}
	o := experiments.Options{
		Out: os.Stdout, Quick: !*full, Seed: *seed,
		Parallel: *par, Recorder: rec,
	}
	var prog *progressPrinter
	if *progress {
		prog = newProgressPrinter(term)
		o.Progress = prog.update
	}

	var selected []runner
	for _, r := range runners {
		if *name == "all" || *name == r.id {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(term, "dbibench: unknown experiment %q (valid: %s, all)\n",
			*name, strings.Join(experimentIDs(), ", "))
		os.Exit(2)
	}

	start := time.Now()
	var ran []string
	for _, r := range selected {
		expStart := time.Now()
		fmt.Printf("\n===== %s =====\n", r.id)
		if prog != nil {
			prog.setLabel(r.id)
		}
		poolBefore := system.PoolStat.Snapshot()
		err := r.run(o)
		prog.clear()
		if err != nil {
			fmt.Fprintf(term, "dbibench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		ran = append(ran, r.id)
		pd := system.PoolStat.Snapshot().Sub(poolBefore)
		fmt.Printf("[pool: %d reused, %d simulated]\n", pd.CkptHits, pd.Rebuilds)
		fmt.Printf("[%s done in %v]\n", r.id, time.Since(expStart).Round(time.Millisecond))
	}
	wall := time.Since(start)

	if out.Enabled() {
		workers := *par
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		rep := rec.Report(*seed, workers, !*full, ran, wall)
		if err := out.Write(rep); err != nil {
			fmt.Fprintf(term, "dbibench: writing %s: %v\n", out.Path, err)
			os.Exit(1)
		}
		fmt.Printf("[%d cells, busy %.1fs, wall %.1fs, speedup %.2fx -> %s]\n",
			rep.CellCount, rep.BusySeconds, rep.WallSeconds, rep.Speedup, out.Path)
	}

	if *check {
		if fig6Result == nil {
			fmt.Fprintln(term, "dbibench: -check requires fig6 in the run (use -experiment fig6 or all)")
			os.Exit(2)
		}
		if err := fig6Result.CheckPaperOrdering(); err != nil {
			fmt.Fprintf(term, "dbibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("[check ok: DBI+AWB+CLB > DBI+AWB > DAWB > VWQ > TA-DIP on gmean IPC]")
	}
}
