// Command dbistat is the project's performance observatory CLI: it
// records statistically rigorous benchmark runs of the simulator
// itself and diffs recordings across commits, benchstat-style.
//
// Usage:
//
//	dbistat record                        # run the suite, write BENCH_<sha>.json
//	dbistat record -rounds 7 -o out.json  # more rounds, explicit path
//	dbistat record -suite micro           # micro loops only
//	dbistat diff old.json new.json        # significance-annotated delta table
//	dbistat diff -threshold 0.25 a.json b.json
//	dbistat history -dir bench-history    # cross-commit perf trajectory table
//
// `record` executes every target N times in interleaved rounds and
// writes a schema-versioned JSON document with environment metadata
// (go version, CPU model, git SHA) and per-metric mean/stddev/CI.
// `diff` compares two recordings with Welch's t-test: deltas beyond
// the threshold that are statistically significant in the bad
// direction are regressions and make the exit status non-zero; noisy
// deltas only warn; a benchmark or metric only one recording has is
// listed under the table as "not compared". CI records every commit
// and gates against the committed bench/baseline.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"dbisim/internal/cliflags"
	"dbisim/internal/perfstat"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dbistat record [-o file] [-rounds n] [-suite all|micro|macro] [-seed n] [-listen addr]
  dbistat diff [-alpha a] [-threshold t] old.json new.json
  dbistat history [-dir d] [-last n] [-metrics bench:metric,...]
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "history":
		history(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "dbistat: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out    = fs.String("o", "", "output path (default BENCH_<sha12>.json)")
		rounds = fs.Int("rounds", 5, "interleaved rounds per target")
		kind   = fs.String("suite", "all", "target set: all, micro or macro")
		seed   = fs.Int64("seed", 42, "simulation seed for sim-backed targets")
		ops    cliflags.Ops
	)
	ops.Register(fs)
	fs.Parse(args)
	if *kind != "all" && *kind != perfstat.KindMicro && *kind != perfstat.KindMacro {
		fatalf("unknown suite %q (want all, micro or macro)", *kind)
	}
	srv, err := ops.Start(nil, "dbistat", os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	if srv != nil {
		defer srv.Close()
	}

	env := perfstat.CaptureEnv()
	targets := suite(*kind, *seed)
	fmt.Fprintf(os.Stderr, "dbistat: %d targets x %d rounds (suite %s, go %s, sha %.12s)\n",
		len(targets), *rounds, *kind, env.GoVersion, env.GitSHA)
	benches, err := perfstat.Run(targets, perfstat.RunConfig{
		Rounds: *rounds,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	rep := perfstat.NewReport(env, *rounds, *kind, *seed, benches)
	path := *out
	if path == "" {
		path = rep.DefaultFileName()
	}
	if err := rep.WriteFile(path); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("dbistat: %d benchmarks x %d rounds -> %s\n", len(benches), *rounds, path)
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		alpha = fs.Float64("alpha", 0.05, "significance level for Welch's t-test")
		thr   = fs.Float64("threshold", 0.10, "minimum relative mean change gated on")
	)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	oldRep, err := perfstat.ReadReport(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	newRep, err := perfstat.ReadReport(fs.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	if why, mismatch := perfstat.SchemaMismatch(oldRep, newRep); mismatch {
		fatalf("%s", why)
	}
	if ok, why := oldRep.Env.Comparable(newRep.Env); !ok {
		fmt.Fprintf(os.Stderr, "dbistat: WARNING: recordings come from different environments (%s); wall-clock deltas may reflect the machine, not the code\n", why)
	}
	if which := perfstat.DirtyTrees(oldRep.Env, newRep.Env); which != "" {
		fmt.Fprintf(os.Stderr, "dbistat: WARNING: recorded from a tree with uncommitted changes: %s; those numbers belong to no commit\n", which)
	}
	fmt.Printf("old: %.12s (%s, %d rounds)  new: %.12s (%s, %d rounds)\n",
		orLabel(oldRep.Env.GitSHA), oldRep.RecordedAt, oldRep.Rounds,
		orLabel(newRep.Env.GitSHA), newRep.RecordedAt, newRep.Rounds)

	deltas := perfstat.Diff(oldRep, newRep, perfstat.DiffOptions{Alpha: *alpha, Threshold: *thr})
	if len(deltas) == 0 {
		fatalf("recordings share no benchmarks/metrics to compare")
	}
	perfstat.WriteTable(os.Stdout, deltas)
	perfstat.WriteUncompared(os.Stdout, oldRep, newRep)

	regs := perfstat.Regressions(deltas)
	noisy := 0
	for _, d := range deltas {
		if d.Verdict == perfstat.VerdictNoise {
			noisy++
		}
	}
	if noisy > 0 {
		fmt.Fprintf(os.Stderr, "dbistat: warning: %d metric(s) moved beyond the %.0f%% threshold but are not statistically distinguishable from noise\n",
			noisy, 100**thr)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "dbistat: %d significant regression(s) beyond the %.0f%% threshold (alpha %.2g):\n",
			len(regs), 100**thr, *alpha)
		for _, d := range regs {
			fmt.Fprintf(os.Stderr, "  %s %s: %+.1f%% (p=%.3g)\n", d.Benchmark, d.Metric, 100*d.Pct, d.P)
		}
		os.Exit(1)
	}
	fmt.Println("dbistat: no significant regressions")
}

func orLabel(sha string) string {
	if sha == "" {
		return "(unversioned)"
	}
	return sha
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbistat: "+format+"\n", args...)
	os.Exit(1)
}
