package perfstat

import "sync/atomic"

// cellsDone counts simulation cells completed process-wide. The sweep
// worker pool increments it after every finished cell; dbistat's macro
// targets read it to derive cells/sec and allocs/cell, and the ops
// plane exports it as proc.cells_done. One atomic add per cell is
// host-side bookkeeping only — it can never perturb simulated state.
var cellsDone atomic.Uint64

// CellDone records n completed simulation cells.
func CellDone(n uint64) { cellsDone.Add(n) }

// CellCount returns the process-wide completed-cell count.
func CellCount() uint64 { return cellsDone.Load() }
