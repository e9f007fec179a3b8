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
// experiments.Registry is the single source of truth: the usage text,
// the -experiment check and the `all` set are all generated from it.
// A run plans every selected experiment into one sweep, so a cell that
// several experiments need is simulated once.
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

func experimentIDs() []string {
	ids := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		ids[i] = e.ID
	}
	return ids
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "usage: dbibench [flags]\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(w, "\nexperiments (all runs every one of them):\n")
	for _, e := range experiments.Registry {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Desc)
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
		Parallel: *par, Recorder: rec, Attr: *attr,
	}
	var prog *progressPrinter
	if *progress {
		prog = newProgressPrinter(term)
		o.Progress = prog.update
	}

	var selected []experiments.Experiment
	var ran []string
	for _, e := range experiments.Registry {
		if *name == "all" || *name == e.ID {
			selected = append(selected, e)
			ran = append(ran, e.ID)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(term, "dbibench: unknown experiment %q (valid: %s, all)\n",
			*name, strings.Join(experimentIDs(), ", "))
		os.Exit(2)
	}

	start := time.Now()
	prog.setLabel(*name)
	poolBefore := system.PoolStat.Snapshot()
	finishes, err := experiments.Run(o, *name, selected)
	prog.clear()
	if err != nil {
		fmt.Fprintf(term, "dbibench: %v\n", err)
		os.Exit(1)
	}
	var fig6 *experiments.Fig6Result
	for i, e := range selected {
		fmt.Printf("\n===== %s =====\n", e.ID)
		prog.setLabel(e.ID)
		res, err := finishes[i]()
		if err != nil {
			fmt.Fprintf(term, "dbibench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if r, ok := res.(*experiments.Fig6Result); ok {
			fig6 = r
		}
	}
	pd := system.PoolStat.Snapshot().Sub(poolBefore)
	fmt.Printf("[pool: %d reused, %d simulated]\n", pd.CkptHits, pd.Rebuilds)
	wall := time.Since(start)
	fmt.Printf("[%s done in %v]\n", *name, wall.Round(time.Millisecond))

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
		if fig6 == nil {
			fmt.Fprintln(term, "dbibench: -check requires fig6 in the run (use -experiment fig6 or all)")
			os.Exit(2)
		}
		if err := fig6.CheckPaperOrdering(); err != nil {
			fmt.Fprintf(term, "dbibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("[check ok: DBI+AWB+CLB > DBI+AWB > DAWB > VWQ > TA-DIP on gmean IPC]")
	}
}
