package sweep

import (
	"sync/atomic"
	"time"
)

// Sink receives sweep lifecycle events from the running workers. The
// ops plane installs its flight recorder as one, which also keeps the
// status /sweep serves; callbacks fire from worker goroutines
// concurrently and must not block (they sit on the cell dispatch path,
// though never inside a simulation).
type Sink interface {
	SweepStart(label string, workers, total int)
	// SweepEnd reports how many cells ended, failed ones included.
	SweepEnd(label string, done int)
	CellStart(worker int, key string)
	CellEnd(worker int, key string, elapsed time.Duration, err error)
	// WorkerPanic fires after a worker's cell panicked, before the panic
	// is re-raised — the last chance to flush a flight recorder.
	WorkerPanic(worker int, key string, recovered any)
}

// Monitor forwards every sweep's events to the installed sink. It keeps
// no status of its own: the sink is the one record of a running sweep.
//
// With no sink (the default), RunWithProgress's whole interaction with
// the monitor is one atomic load per sweep, and its per-cell path makes
// no call. A sink installed mid-sweep takes effect at the next sweep.
// Concurrent RunWithProgress calls all forward to the one sink.
type Monitor struct {
	sink atomic.Pointer[Sink]
}

// Live is the process-wide monitor RunWithProgress forwards to.
var Live = &Monitor{}

// Enable installs sink for the next sweep on; a nil sink disables the
// monitor.
func (m *Monitor) Enable(sink Sink) {
	if sink == nil {
		m.Disable()
		return
	}
	m.sink.Store(&sink)
}

// Disable drops the sink at the next sweep.
func (m *Monitor) Disable() { m.sink.Store(nil) }

// current returns the installed sink, nil when disabled.
func (m *Monitor) current() Sink {
	if p := m.sink.Load(); p != nil {
		return *p
	}
	return nil
}
