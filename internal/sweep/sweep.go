// Package sweep is the parallel experiment harness: it shards
// independent simulation cells across a pool of worker goroutines and
// merges their results in a stable order, so every sweep behind the
// paper's figures and tables (Figures 6-8, Tables 3-7, the sensitivity
// and ablation studies) saturates the machine without perturbing the
// numbers it produces.
//
// Determinism contract: a cell's result may depend only on the cell's
// own inputs — configuration, benchmarks and seed — never on scheduling
// or on other cells. RunWithProgress returns outcomes indexed exactly
// like the input slice, so for any worker count (including 1, the old
// sequential path) the merged result set is bit-identical.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbisim/internal/perfstat"
)

// Key identifies one cell of an experiment's run matrix. Unused
// dimensions stay zero; String renders only the populated ones.
type Key struct {
	// Experiment is the harness id (fig6, tab3, ...).
	Experiment string
	// Benchmark is the benchmark or workload-mix name on the cores.
	Benchmark string
	// Mechanism is the cache organization under study.
	Mechanism string
	// Cores is the core count for multi-core cells (0 means 1).
	Cores int
	// Param carries any extra sweep dimension ("gran=16,alpha=1/4").
	Param string
}

func (k Key) String() string {
	s := k.Experiment
	if k.Benchmark != "" {
		s += "/" + k.Benchmark
	}
	if k.Mechanism != "" {
		s += "/" + k.Mechanism
	}
	if k.Cores > 1 {
		s += fmt.Sprintf("/%dcore", k.Cores)
	}
	if k.Param != "" {
		s += "/" + k.Param
	}
	return s
}

// Cell is one independent unit of simulation work.
type Cell[T any] struct {
	Key Key
	Run func() (T, error)
}

// StateCell is a Cell whose Run receives the worker's reusable state: a
// zero-valued W each worker goroutine owns for its lifetime and passes
// to every cell it executes. It is the hook for per-worker state that
// outlives a cell (the previous cell's result, say, which answers a
// repeat). The determinism contract extends to W: a cell's result must
// be independent of which worker — and therefore which W, in whatever
// state previous cells left it — runs it.
type StateCell[T, W any] struct {
	Key Key
	Run func(w *W) (T, error)

	// Group, when non-empty, labels cells that profit from running on
	// the same worker consecutively — repeats of one cell, say, so a
	// worker state that remembers its previous cell answers every
	// repeat from one result. All cells with equal Group labels are
	// dispatched to one worker as an unbroken chain, in input order.
	// Grouping is a scheduling hint only: results must remain
	// bit-identical for any grouping, including none.
	Group string
}

// Outcome pairs a cell's result with its identity and wall-clock cost.
type Outcome[T any] struct {
	Key     Key
	Value   T
	Elapsed time.Duration
}

// RunWithProgress executes the cells on `workers` goroutines (0 or
// less means GOMAXPROCS) and returns their outcomes in input order.
// After the first failure no new cells are started; cells already in
// flight finish, and the error of the earliest-indexed failed cell is
// returned, wrapped with its key. progress(done, total), when non-nil,
// fires after each cell finishes, from the finishing worker's
// goroutine, so it must be safe for concurrent use (an atomic counter
// plus stderr writes in practice).
func RunWithProgress[T any](cells []Cell[T], workers int, progress func(done, total int)) ([]Outcome[T], error) {
	sc := make([]StateCell[T, struct{}], len(cells))
	for i, c := range cells {
		run := c.Run
		sc[i] = StateCell[T, struct{}]{
			Key: c.Key,
			Run: func(*struct{}) (T, error) { return run() },
		}
	}
	return RunState(sc, workers, progress)
}

// RunState is the stateful-worker generalization behind
// RunWithProgress: each of the `workers` goroutines owns one zero-valued
// W and hands a pointer to it to every cell it executes. Scheduling,
// ordering, failure and progress semantics are identical to
// RunWithProgress.
func RunState[T, W any](cells []StateCell[T, W], workers int, progress func(done, total int)) ([]Outcome[T], error) {
	chains := buildChains(cells)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chains) {
		workers = len(chains)
	}
	outs := make([]Outcome[T], len(cells))
	errs := make([]error, len(cells))

	// One atomic load decides whether this sweep publishes to the live
	// monitor; disabled, the per-cell path below is untouched.
	label := ""
	if len(cells) > 0 {
		label = cells[0].Key.Experiment
	}
	live := Live.begin(label, workers, len(cells))

	var failed atomic.Bool
	var done atomic.Int64
	work := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state W
			// Worker states that can attribute their decisions to a
			// lane (pool event streams) learn their index here.
			if sw, ok := any(&state).(interface{ SetWorker(int) }); ok {
				sw.SetWorker(w)
			}
			if live {
				// Give the ops plane a last look (flight-recorder
				// flush) before a cell panic takes the process down.
				defer func() {
					if r := recover(); r != nil {
						Live.workerPanic(w, r)
						panic(r)
					}
				}()
			}
			for chain := range work {
				for _, i := range chain {
					if failed.Load() {
						continue
					}
					if live {
						Live.cellStart(w, cells[i].Key)
					}
					start := time.Now()
					v, err := cells[i].Run(&state)
					elapsed := time.Since(start)
					if live {
						Live.cellEnd(w, elapsed, err)
					}
					if err != nil {
						errs[i] = err
						failed.Store(true)
						continue
					}
					outs[i] = Outcome[T]{Key: cells[i].Key, Value: v, Elapsed: elapsed}
					perfstat.CellDone(1)
					if progress != nil {
						progress(int(done.Add(1)), len(cells))
					}
				}
			}
		}()
	}
	for _, c := range chains {
		work <- c
	}
	close(work)
	wg.Wait()
	if live {
		Live.end()
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", cells[i].Key, err)
		}
	}
	return outs, nil
}

// buildChains partitions cell indices into dispatch units: every set of
// cells sharing a non-empty Group becomes one chain (in input order,
// keyed by first occurrence), each ungrouped cell its own. One chain
// goes to one worker, so a group's cells always run consecutively on
// the same worker state.
func buildChains[T, W any](cells []StateCell[T, W]) [][]int {
	var chains [][]int
	byGroup := map[string]int{}
	for i := range cells {
		g := cells[i].Group
		if g == "" {
			chains = append(chains, []int{i})
			continue
		}
		if ci, ok := byGroup[g]; ok {
			chains[ci] = append(chains[ci], i)
			continue
		}
		byGroup[g] = len(chains)
		chains = append(chains, []int{i})
	}
	return chains
}
