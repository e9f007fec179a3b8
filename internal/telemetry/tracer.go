// Request-lifecycle tracing in the Chrome trace-event format, loadable
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Components emit through a possibly-nil *Tracer; every emit method
// nil-checks first, so a disabled tracer costs one compare per call
// site and allocates nothing. An enabled tracer appends fixed-size
// Event values into a preallocated ring buffer, so the hot path stays
// allocation-free there too (enforced by TestTracerEmitDoesNotAllocate)
// and memory stays bounded on long runs: once the ring fills, the
// oldest events are overwritten and counted as dropped.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Phase values follow the trace-event spec.
const (
	PhaseComplete = 'X' // duration event: TS..TS+Dur
	PhaseInstant  = 'i' // point event at TS
)

// Thread ids (the "tid" lanes in the viewer). Cores use their core
// index directly; shared structures and DRAM banks get fixed lanes.
const (
	TIDLLC  = 64  // shared LLC (tag port, bypass decisions)
	TIDDBI  = 65  // Dirty-Block Index events
	TIDDRAM = 96  // memory-controller queue/drain events
	tidBank = 128 // first DRAM bank lane
)

// TIDBank returns the trace lane of DRAM bank b.
func TIDBank(b int) int { return tidBank + b }

// Event is one trace record. Simulated cycles are written as the
// trace-event "ts"/"dur" microsecond fields: 1 cycle renders as 1 µs,
// which keeps the viewer's timeline numerically equal to cycle counts.
type Event struct {
	Name string // static string at call sites (no formatting on hot path)
	Cat  string
	Ph   byte
	TS   uint64 // start cycle
	Dur  uint64 // duration in cycles (PhaseComplete only)
	TID  int32
	Arg  uint64 // one numeric payload (block address, count, ...)
}

// Tracer is a bounded ring of Events. The zero Tracer is unusable; use
// NewTracer. A nil *Tracer is the disabled state: every method on it is
// a cheap no-op.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	emitted uint64
	names   map[int32]string
}

// DefaultCapacity bounds the ring when the caller does not choose one
// (~256k events, tens of MB of JSON — comfortably within what the
// Perfetto UI loads).
const DefaultCapacity = 1 << 18

// NewTracer builds a tracer whose ring holds capacity events
// (DefaultCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]Event, capacity), names: make(map[int32]string)}
}

// NameThread labels a tid lane in the viewer (setup-time only).
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.names[int32(tid)] = name
}

// Complete records a duration event spanning cycles start..end.
func (t *Tracer) Complete(cat, name string, tid int, start, end, arg uint64) {
	if t == nil {
		return
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	t.push(Event{Name: name, Cat: cat, Ph: PhaseComplete, TS: start, Dur: dur, TID: int32(tid), Arg: arg})
}

// Instant records a point event at cycle ts.
func (t *Tracer) Instant(cat, name string, tid int, ts, arg uint64) {
	if t == nil {
		return
	}
	t.push(Event{Name: name, Cat: cat, Ph: PhaseInstant, TS: ts, TID: int32(tid), Arg: arg})
}

func (t *Tracer) push(e Event) {
	t.ring[t.next] = e
	t.next++
	t.emitted++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Emitted reports how many events were ever emitted (retained or not).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// Dropped reports how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted - uint64(t.Len())
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// jsonEvent is the trace-event wire form.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// document is the top-level JSON object Chrome/Perfetto load.
type document struct {
	TraceEvents []jsonEvent    `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteJSON serializes the retained events (plus thread-name metadata)
// as a Chrome trace-event JSON object.
func (t *Tracer) WriteJSON(w io.Writer) error {
	evs := t.Events()
	doc := document{TraceEvents: make([]jsonEvent, 0, len(evs)+len(t.names))}
	tids := make([]int32, 0, len(t.names))
	for tid := range t.names {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		doc.TraceEvents = append(doc.TraceEvents, jsonEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": t.names[tid]},
		})
	}
	for _, e := range evs {
		je := jsonEvent{
			Name: e.Name, Cat: e.Cat, Ph: string(rune(e.Ph)),
			TS: e.TS, PID: 0, TID: e.TID,
			Args: map[string]any{"v": e.Arg},
		}
		if e.Ph == PhaseComplete {
			d := e.Dur
			je.Dur = &d
		}
		if e.Ph == PhaseInstant {
			je.S = "t" // thread-scoped instant
		}
		doc.TraceEvents = append(doc.TraceEvents, je)
	}
	doc.OtherData = map[string]any{
		"emitted": t.Emitted(),
		"dropped": t.Dropped(),
		"units":   "1 trace microsecond = 1 simulated CPU cycle",
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := t.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("telemetry: writing %s: %w", path, werr)
	}
	return nil
}
