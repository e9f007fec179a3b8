// Command dbiserved runs the Dirty-Block Index as a network service:
// a sharded pkg/dbi tracker behind the versioned HTTP+JSON v1 API, the
// binary batch protocol, and the repo-standard ops plane (PROTOCOL.md
// is the wire contract). The loadtest subcommand is the matching load
// driver: it replays internal/trace profiles as open- or closed-loop
// traffic and reports (and optionally gates on) throughput and tail
// latency.
//
//	dbiserved serve -http :7071 -tcp :7070 -shards 8 -rows 65536
//	dbiserved loadtest -addr localhost:7070 -clients 64 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dbisim/internal/dbiserve"
	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "loadtest":
		err = loadtestCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbiserved:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dbiserved serve    [flags]   run the tracker service
  dbiserved loadtest [flags]   drive a running service and report latency/throughput`)
	os.Exit(2)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	httpAddr := fs.String("http", ":7071", "HTTP listen address (JSON v1 API + ops plane)")
	tcpAddr := fs.String("tcp", ":7070", "binary-protocol listen address (empty to disable)")
	shards := fs.Int("shards", 8, "lock-striped shards (power of two)")
	rows := fs.Int("rows", 1<<16, "total row-entry capacity across shards")
	rowSize := fs.Int("row-size", 64, "keys per row (power of two)")
	assoc := fs.Int("assoc", 16, "per-shard set associativity")
	repl := fs.String("repl", "lrw", "replacement policy: lrw, lrw-bip, rwip, max-dirty, min-dirty")
	seed := fs.Int64("seed", 1, "replacement randomness seed")
	fs.Parse(args)

	policy, err := dbi.ParseReplacement(*repl)
	if err != nil {
		return err
	}
	tr, err := dbi.NewSharded(*shards,
		dbi.WithRows(*rows), dbi.WithRowSize(*rowSize),
		dbi.WithAssociativity(*assoc), dbi.WithReplacement(policy), dbi.WithSeed(*seed))
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	srv := dbiserve.New(tr, reg)

	var bln net.Listener
	if *tcpAddr != "" {
		bln, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("dbiserved: binary protocol on %s\n", bln.Addr())
	}
	hln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		if bln != nil {
			bln.Close()
		}
		return err
	}
	fmt.Printf("dbiserved: HTTP v1 + ops plane on %s (%d shards × %d rows × %d keys/row)\n",
		hln.Addr(), tr.ShardCount(), *rows/tr.ShardCount(), *rowSize)
	return serve(srv, hln, bln)
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a stalled client cannot hold an HTTP connection.
const readHeaderTimeout = 10 * time.Second

// serve runs srv's HTTP API on hln and, unless bln is nil, its binary
// protocol on bln. When either stops, serve stops the other, waits for
// both and returns the first error; a listener closed from outside
// stops its server without one.
func serve(srv *dbiserve.Server, hln, bln net.Listener) error {
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 2) // one send per server goroutine
	go func() { errc <- hs.Serve(hln) }()
	running := 1
	if bln != nil {
		running++
		go func() { errc <- srv.ServeBinary(bln) }()
	}
	var first error
	for i := 0; i < running; i++ {
		err := <-errc
		if i == 0 {
			hs.Close()
			if bln != nil {
				bln.Close()
			}
		}
		if first == nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	return first
}

func loadtestCmd(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addrF := fs.String("addr", "localhost:7070", "server address (binary TCP, or HTTP host:port with -protocol json)")
	proto := fs.String("protocol", "binary", "protocol to drive: binary or json")
	clients := fs.Int("clients", 64, "concurrent client connections")
	batch := fs.Int("batch", 128, "keys per request")
	durF := fs.Duration("duration", 10*time.Second, "measurement length")
	profile := fs.String("profile", "stream", "internal/trace profile to replay")
	seed := fs.Int64("seed", 1, "trace seed")
	rate := fs.Float64("rate", 0, "target requests/sec across all clients (0 = closed loop)")
	jsonOut := fs.String("json", "", "write the LoadReport JSON to this file ('-' for stdout only)")
	minOps := fs.Float64("min-ops", 0, "gate: fail unless SetDirty ops/sec >= this")
	maxP99 := fs.Duration("max-p99", 0, "gate: fail if request p99 exceeds this")
	fs.Parse(args)

	rep, err := dbiserve.RunLoad(context.Background(), dbiserve.LoadConfig{
		Addr: *addrF, Protocol: *proto, Clients: *clients, Batch: *batch,
		Duration: *durF, Profile: *profile, Seed: *seed, Rate: *rate,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dbiserved loadtest: %s, %d clients × %d-key batches, %.1fs\n",
		rep.Protocol, rep.Clients, rep.Batch, rep.Seconds)
	fmt.Printf("  %d requests (%.0f/s), %d SetDirty ops (%.0f/s), %d evicted, %d flushed, %d errors\n",
		rep.Requests, rep.ReqSec, rep.SetKeys, rep.SetOpsSec, rep.Evicted, rep.Flushed, rep.Errors)
	fmt.Printf("  latency µs: p50 %d, p95 %d, p99 %d, mean %.0f\n",
		rep.P50us, rep.P95us, rep.P99us, rep.MeanUs)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	if rep.Errors > 0 {
		return fmt.Errorf("%d request errors", rep.Errors)
	}
	if *minOps > 0 && rep.SetOpsSec < *minOps {
		return fmt.Errorf("gate: %.0f SetDirty ops/sec below floor %.0f", rep.SetOpsSec, *minOps)
	}
	if *maxP99 > 0 && time.Duration(rep.P99us)*time.Microsecond > *maxP99 {
		return fmt.Errorf("gate: p99 %dµs over ceiling %s", rep.P99us, *maxP99)
	}
	return nil
}
