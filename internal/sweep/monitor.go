package sweep

import (
	"sync/atomic"
	"time"
)

// Sink receives sweep lifecycle events from the running workers. The
// ops plane installs one to feed its flight recorder; callbacks fire
// from worker goroutines concurrently and must not block (they sit on
// the cell dispatch path, though never inside a simulation).
type Sink interface {
	SweepStart(label string, workers, total int)
	SweepEnd(label string, done int)
	CellStart(worker int, key string)
	CellEnd(worker int, key string, elapsed time.Duration, err error)
	// WorkerPanic fires after a worker's cell panicked, before the panic
	// is re-raised — the last chance to flush a flight recorder.
	WorkerPanic(worker int, key string, recovered any)
}

// workerSlot is one worker lane's live status, written only by that
// worker and read by status snapshots.
type workerSlot struct {
	cell    atomic.Pointer[string] // nil when idle
	startNS atomic.Int64           // unix nanos the current cell started
	done    atomic.Int64           // cells completed by this worker
}

// WorkerStatus is the exported snapshot of one worker lane.
type WorkerStatus struct {
	Worker  int    `json:"worker"`
	Cell    string `json:"cell,omitempty"` // empty when idle
	StartNS int64  `json:"cell_start_ns,omitempty"`
	Done    int64  `json:"cells_done"`
}

// Status is a point-in-time snapshot of the most recently started
// sweep, for the ops server's /sweep endpoint.
type Status struct {
	Seq     uint64         `json:"seq"` // increments per sweep
	Label   string         `json:"label"`
	Total   int            `json:"cells_total"`
	Done    int            `json:"cells_done"`
	StartNS int64          `json:"start_ns"`
	Active  bool           `json:"active"`
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// Monitor publishes a running sweep's progress through lock-free
// per-worker slots, so an ops server can snapshot live status without
// ever contending with the workers. All fields are atomics: workers
// only ever do atomic stores at cell granularity, and Enable-time is
// the only allocation.
//
// Disabled (the default), RunWithProgress's whole interaction with
// the monitor is one atomic bool load per sweep — the per-cell
// publishing is skipped entirely, preserving the allocation-free
// dispatch path. Enabling mid-sweep therefore takes effect at the next
// sweep.
//
// Concurrent RunWithProgress calls share the one process-wide monitor;
// the status reflects the most recently started sweep. That is the right
// semantics for the ops plane (the CLIs run sweeps sequentially) and
// harmless best-effort under test parallelism.
type Monitor struct {
	enabled atomic.Bool
	sink    atomic.Pointer[Sink]

	seq     atomic.Uint64
	label   atomic.Pointer[string]
	total   atomic.Int64
	done    atomic.Int64
	startNS atomic.Int64
	active  atomic.Bool
	slots   atomic.Pointer[[]workerSlot]
}

// Live is the process-wide monitor RunWithProgress publishes to when
// enabled.
var Live = &Monitor{}

// Enable turns on live publishing, with an optional event sink (nil
// keeps status snapshots only). It takes effect at the next sweep.
func (m *Monitor) Enable(sink Sink) {
	if sink != nil {
		m.sink.Store(&sink)
	} else {
		m.sink.Store(nil)
	}
	m.enabled.Store(true)
}

// Disable stops publishing at the next sweep and drops the sink.
func (m *Monitor) Disable() {
	m.enabled.Store(false)
	m.sink.Store(nil)
}

// Snapshot returns the current sweep status. The bool is false when no
// sweep has ever been published.
func (m *Monitor) Snapshot() (Status, bool) {
	lp := m.label.Load()
	if lp == nil {
		return Status{}, false
	}
	st := Status{
		Seq:     m.seq.Load(),
		Label:   *lp,
		Total:   int(m.total.Load()),
		Done:    int(m.done.Load()),
		StartNS: m.startNS.Load(),
		Active:  m.active.Load(),
	}
	if sp := m.slots.Load(); sp != nil {
		st.Workers = make([]WorkerStatus, len(*sp))
		for i := range *sp {
			s := &(*sp)[i]
			ws := WorkerStatus{Worker: i, Done: s.done.Load()}
			if cp := s.cell.Load(); cp != nil {
				ws.Cell = *cp
				ws.StartNS = s.startNS.Load()
			}
			st.Workers[i] = ws
		}
	}
	return st, true
}

// begin opens a sweep. It returns false when the monitor is disabled,
// in which case RunWithProgress skips every other call.
func (m *Monitor) begin(label string, workers, total int) bool {
	if !m.enabled.Load() {
		return false
	}
	slots := make([]workerSlot, workers)
	m.slots.Store(&slots)
	m.label.Store(&label)
	m.total.Store(int64(total))
	m.done.Store(0)
	m.startNS.Store(time.Now().UnixNano())
	m.active.Store(true)
	m.seq.Add(1)
	if s := m.sink.Load(); s != nil {
		(*s).SweepStart(label, workers, total)
	}
	return true
}

func (m *Monitor) end() {
	m.active.Store(false)
	if s := m.sink.Load(); s != nil {
		lp := m.label.Load()
		label := ""
		if lp != nil {
			label = *lp
		}
		(*s).SweepEnd(label, int(m.done.Load()))
	}
}

// slot returns worker w's lane in the current sweep, nil if the slot
// table has been replaced by a newer sweep.
func (m *Monitor) slot(w int) *workerSlot {
	sp := m.slots.Load()
	if sp == nil || w < 0 || w >= len(*sp) {
		return nil
	}
	return &(*sp)[w]
}

func (m *Monitor) cellStart(w int, key Key) {
	ks := key.String()
	if s := m.slot(w); s != nil {
		s.startNS.Store(time.Now().UnixNano())
		s.cell.Store(&ks)
	}
	if s := m.sink.Load(); s != nil {
		(*s).CellStart(w, ks)
	}
}

func (m *Monitor) cellEnd(w int, elapsed time.Duration, err error) {
	m.done.Add(1)
	ks := ""
	if s := m.slot(w); s != nil {
		if cp := s.cell.Swap(nil); cp != nil {
			ks = *cp
		}
		s.done.Add(1)
	}
	if s := m.sink.Load(); s != nil {
		(*s).CellEnd(w, ks, elapsed, err)
	}
}

func (m *Monitor) workerPanic(w int, recovered any) {
	ks := ""
	if s := m.slot(w); s != nil {
		if cp := s.cell.Load(); cp != nil {
			ks = *cp
		}
	}
	if s := m.sink.Load(); s != nil {
		(*s).WorkerPanic(w, ks, recovered)
	}
}
