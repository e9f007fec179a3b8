// Package obs is the opt-in live ops plane: an HTTP debug server
// exposing the process's telemetry registry in Prometheus text format,
// live sweep progress (JSON and SSE), the standard expvar and pprof
// surfaces, and a flight recorder — a bounded ring of recent harness
// events dumped as Chrome trace JSON on panic, on SIGQUIT, or on
// demand.
//
// Everything here is off by default and opt-in per process (the CLIs'
// -listen flag). The design constraint mirrors the telemetry package's:
// zero cost when disabled. Starting a server installs the flight
// recorder as the sweep monitor's sink and the pool event hook, so the
// recorder sees every sweep event under a per-event lock and is the
// one record /sweep and proc.cells_done read. The process-wide pool
// counters are atomic adds that are unconditionally on. None of this
// touches a simulation's hot path or perturbs its Results.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dbisim/internal/sweep"
	"dbisim/internal/system"
	"dbisim/internal/telemetry"
)

// Config parameterizes Start.
type Config struct {
	// Addr is the listen address ("127.0.0.1:9187", ":0" for an
	// ephemeral port).
	Addr string
	// FlightPath is where the flight recorder dumps on panic or
	// SIGQUIT ("" disables the on-disk dump; /debug/flightrecord still
	// serves the ring).
	FlightPath string
	// Register, when non-nil, adds caller-specific probes to the served
	// registry before the server starts (e.g. dbisim registering its
	// System's component counters). Probes must tolerate concurrent
	// reads — see telemetry.Registry.EachScalar.
	Register func(*telemetry.Registry)
}

// Server is a running ops server. Close shuts it down; the feeds it
// installed (sweep sink, pool event hook) stay installed — they are
// harmless without a consumer and the CLIs run one server per process.
type Server struct {
	Registry *telemetry.Registry
	Flight   *FlightRecorder

	ln   net.Listener
	srv  *http.Server
	stop chan os.Signal
}

// Start builds the ops plane and serves it on cfg.Addr: the shared
// registry (pool counters, process gauges, plus cfg.Register's
// probes) at /metrics, sweep status at /sweep, the flight recorder at
// /debug/flightrecord, and the stdlib expvar/pprof surfaces at their
// standard paths. It wires the flight recorder into the sweep monitor
// and the pool event hook, and installs a SIGQUIT handler that dumps
// the flight record before the runtime's usual goroutine dump.
func Start(cfg Config) (*Server, error) {
	flight := NewFlightRecorder(DefaultFlightEvents)
	flight.DumpPath = cfg.FlightPath

	reg := telemetry.NewRegistry()
	system.RegisterPoolMetrics(reg)
	telemetry.AttrTotals.RegisterMetrics(reg)
	registerProcessMetrics(reg, flight)
	if cfg.Register != nil {
		cfg.Register(reg)
	}

	sweep.Live.Enable(flight)
	system.SetPoolEventHook(flight.PoolEvent)

	s := &Server{Registry: reg, Flight: flight}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/debug/flightrecord", s.handleFlight)
	MountOps(mux, reg)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)

	if cfg.FlightPath != "" {
		s.stop = make(chan os.Signal, 1)
		signal.Notify(s.stop, syscall.SIGQUIT)
		go func() {
			for range s.stop {
				if err := flight.DumpFile(cfg.FlightPath); err == nil {
					fmt.Fprintf(os.Stderr, "obs: flight record -> %s\n", cfg.FlightPath)
				}
				// Hand SIGQUIT back to the runtime for the usual
				// goroutine dump and exit.
				signal.Reset(syscall.SIGQUIT)
				syscall.Kill(os.Getpid(), syscall.SIGQUIT)
			}
		}()
	}
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops serving.
func (s *Server) Close() error {
	if s.stop != nil {
		signal.Stop(s.stop)
		close(s.stop)
	}
	return s.srv.Close()
}

// MountOps adds the ops routes every dbisim server shares to mux:
// reg in Prometheus text exposition at /metrics, expvar at /debug/vars
// and every stdlib /debug/pprof route.
func MountOps(mux *http.ServeMux, reg *telemetry.Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg) // a failed write means the scraper is gone
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// registerProcessMetrics adds host-process gauges: cells the flight
// recorder saw complete, goroutines, and heap occupancy. ReadMemStats
// is a brief stop-the-world, acceptable at scrape frequency.
func registerProcessMetrics(reg *telemetry.Registry, flight *FlightRecorder) {
	reg.Counter("proc.cells_done", flight.cellsDone)
	reg.Gauge("proc.goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.Gauge("proc.heap_alloc_bytes", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
	reg.Counter("proc.total_alloc_bytes", func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	})
	reg.Counter("proc.gc_cycles", func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return uint64(m.NumGC)
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h1>dbisim ops plane</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/sweep">/sweep</a> — live sweep status (JSON; ?stream=1 for SSE)</li>
<li><a href="/debug/flightrecord">/debug/flightrecord</a> — Chrome trace of recent harness events</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — pprof</li>
</ul></body></html>
`)
}

// sweepDoc is the /sweep response: the flight recorder's sweep status
// plus derived timing and the cumulative pool counters.
type sweepDoc struct {
	sweepStatus
	ElapsedSec float64             `json:"elapsed_sec"`
	ETASec     float64             `json:"eta_sec,omitempty"`
	Pool       system.PoolSnapshot `json:"pool"`
	// PoolSweep is the pool's activity since the current sweep began
	// (absent before the first sweep): how its cells were satisfied —
	// reused from a repeated cell (ckpt_hits) or simulated on a fresh
	// machine (rebuilds) — and the reused share of its cells.
	PoolSweep *poolSweepDoc `json:"pool_sweep,omitempty"`
}

type poolSweepDoc struct {
	system.PoolSnapshot
	CkptHitRate float64 `json:"ckpt_hit_rate"`
}

func (s *Server) currentSweepDoc() sweepDoc {
	st, base := s.Flight.sweep()
	doc := sweepDoc{sweepStatus: st, Pool: system.PoolStat.Snapshot()}
	if base == nil {
		return doc
	}
	delta := doc.Pool.Sub(*base)
	doc.PoolSweep = &poolSweepDoc{PoolSnapshot: delta, CkptHitRate: delta.CkptHitRate()}
	elapsed := time.Since(time.Unix(0, st.StartNS))
	doc.ElapsedSec = elapsed.Seconds()
	if st.Active && st.Done > 0 && st.Done < st.Total {
		doc.ETASec = (elapsed.Seconds() / float64(st.Done)) * float64(st.Total-st.Done)
	}
	return doc
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") != "" {
		s.streamSweep(w, r)
		return
	}
	doc := s.currentSweepDoc()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// streamSweep pushes the sweep status as server-sent events once a
// second until the client goes away.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		b, err := json.Marshal(s.currentSweepDoc())
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.Flight.WriteJSON(w)
}
