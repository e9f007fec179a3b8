package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultFlightEvents is the per-lane ring capacity: enough to hold the
// recent history of a busy worker (cells plus pool decisions) without
// unbounded growth on week-long sweeps.
const DefaultFlightEvents = 4096

// FlightEvent is one recorded instant or span edge, in wall-clock
// microseconds. Ph follows the Chrome trace-event phases the recorder
// emits: 'B'/'E' bracket a cell on its worker lane (a panicked cell
// shows as an open span — exactly what a post-mortem wants), 'i' marks
// instants (pool decisions, sweep milestones).
type FlightEvent struct {
	WallUS int64
	Ph     byte
	Name   string
	Detail string
}

// lane is one ring of recent events, written by one worker (or the
// control plane) and drained by dumps. The mutex spans one append —
// cell-granularity writes, never inside a simulation.
type lane struct {
	mu      sync.Mutex
	ring    []FlightEvent
	next    int
	wrapped bool
}

func (l *lane) record(e FlightEvent) {
	l.mu.Lock()
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next, l.wrapped = 0, true
	}
	l.mu.Unlock()
}

// snapshot returns the lane's events oldest-first.
func (l *lane) snapshot() []FlightEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapped {
		return append([]FlightEvent(nil), l.ring[:l.next]...)
	}
	out := make([]FlightEvent, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}

// FlightRecorder keeps a bounded ring of recent engine-harness events
// per worker lane — cells starting and finishing, pool decisions,
// sweep milestones — and renders them as Chrome trace-event JSON (load
// in Perfetto or chrome://tracing; lane = thread row). It is
// the ops plane's black box: always cheap enough to leave on, dumped on
// panic, on SIGQUIT, or on demand via /debug/flightrecord.
//
// Lane 0 is the control plane (sweep start/end); worker w records on
// lane w+1. All methods are safe for concurrent use.
type FlightRecorder struct {
	// DumpPath, when non-empty, is where WorkerPanic writes the ring
	// before the panic propagates.
	DumpPath string

	perLane int
	mu      sync.RWMutex
	lanes   map[int]*lane
}

// NewFlightRecorder builds a recorder holding up to perLane events per
// lane (0 means DefaultFlightEvents).
func NewFlightRecorder(perLane int) *FlightRecorder {
	if perLane <= 0 {
		perLane = DefaultFlightEvents
	}
	return &FlightRecorder{perLane: perLane, lanes: map[int]*lane{}}
}

func (f *FlightRecorder) lane(id int) *lane {
	f.mu.RLock()
	l := f.lanes[id]
	f.mu.RUnlock()
	if l != nil {
		return l
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if l = f.lanes[id]; l == nil {
		l = &lane{ring: make([]FlightEvent, f.perLane)}
		f.lanes[id] = l
	}
	return l
}

// workerLane maps a sweep worker index to its lane id; unattributed
// events (worker -1) land on the control lane.
func workerLane(worker int) int {
	if worker < 0 {
		return 0
	}
	return worker + 1
}

func (f *FlightRecorder) record(laneID int, ph byte, name, detail string) {
	f.lane(laneID).record(FlightEvent{
		WallUS: time.Now().UnixMicro(), Ph: ph, Name: name, Detail: detail,
	})
}

// SweepStart..WorkerPanic implement sweep.Sink.

func (f *FlightRecorder) SweepStart(label string, workers, total int) {
	f.record(0, 'i', "sweep:"+label, fmt.Sprintf("%d cells on %d workers", total, workers))
}

func (f *FlightRecorder) SweepEnd(label string, done int) {
	f.record(0, 'i', "sweep-end:"+label, fmt.Sprintf("%d cells done", done))
}

func (f *FlightRecorder) CellStart(worker int, key string) {
	f.record(workerLane(worker), 'B', key, "")
}

func (f *FlightRecorder) CellEnd(worker int, key string, elapsed time.Duration, err error) {
	detail := ""
	if err != nil {
		detail = "error: " + err.Error()
	}
	f.record(workerLane(worker), 'E', key, detail)
}

// WorkerPanic records the crash instant and flushes the whole ring to
// DumpPath (best effort — the process is about to die).
func (f *FlightRecorder) WorkerPanic(worker int, key string, recovered any) {
	f.record(workerLane(worker), 'i', "panic:"+key, fmt.Sprint(recovered))
	if f.DumpPath != "" {
		if err := f.DumpFile(f.DumpPath); err == nil {
			fmt.Fprintf(os.Stderr, "obs: flight record -> %s\n", f.DumpPath)
		}
	}
}

// PoolEvent records one pool decision on the worker's
// lane; it is the system.SetPoolEventHook target.
func (f *FlightRecorder) PoolEvent(worker int, kind, detail string) {
	f.record(workerLane(worker), 'i', "pool:"+kind, detail)
}

// traceEvent is the Chrome trace-event wire form.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON renders the rings as a Chrome trace-event document: one
// thread row per lane (named via metadata events), wall-clock µs
// timestamps.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	f.mu.RLock()
	ids := make([]int, 0, len(f.lanes))
	for id := range f.lanes {
		ids = append(ids, id)
	}
	f.mu.RUnlock()
	sort.Ints(ids)

	events := make([]traceEvent, 0, 64)
	for _, id := range ids {
		name := "control"
		if id > 0 {
			name = fmt.Sprintf("worker %d", id-1)
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": name},
		})
		for _, e := range f.lane(id).snapshot() {
			te := traceEvent{Name: e.Name, Cat: "sweep", Ph: string(e.Ph), TS: e.WallUS, PID: 1, TID: id}
			if e.Ph == 'i' {
				te.S = "t" // thread-scoped instant
			}
			if e.Detail != "" {
				te.Args = map[string]any{"detail": e.Detail}
			}
			events = append(events, te)
		}
	}
	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		TimeUnit    string       `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// DumpFile writes the trace JSON to path.
func (f *FlightRecorder) DumpFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := f.WriteJSON(file)
	if cerr := file.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
