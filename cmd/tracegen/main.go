// Command tracegen prints a synthetic benchmark trace as text, one
// record per line (instruction gap, access kind, physical address), for
// inspection.
//
// Usage:
//
//	tracegen -bench mcf -n 1000            # print records to stdout
//	tracegen -bench lbm -n 100000 -o lbm.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"dbisim/internal/trace"
)

func main() {
	var (
		bench = flag.String("bench", "stream", "benchmark model")
		n     = flag.Uint64("n", 100_000, "records to generate")
		out   = flag.String("o", "", "output file (default stdout)")
		seed  = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	p, err := trace.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dst := os.Stdout
	if *out != "" {
		if dst, err = os.Create(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	w := bufio.NewWriter(dst)
	gen := trace.New(p, 0, *seed)
	for i := uint64(0); i < *n; i++ {
		r := gen.Next()
		fmt.Fprintf(w, "+%d %-5s %#x\n", r.Gap, r.Kind, r.Addr)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := dst.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
