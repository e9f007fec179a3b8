package sweep

import (
	"sort"
	"sync"
	"time"

	"dbisim/internal/telemetry"
)

// Record is the machine-readable result of one cell — what the -json
// output carries so CI can diff sweeps across commits.
type Record struct {
	Key        string             `json:"key"`
	Experiment string             `json:"experiment"`
	Benchmark  string             `json:"benchmark,omitempty"`
	Mechanism  string             `json:"mechanism,omitempty"`
	Cores      int                `json:"cores,omitempty"`
	Param      string             `json:"param,omitempty"`
	Seed       int64              `json:"seed"`
	Metrics    map[string]float64 `json:"metrics"`
	// Attr carries the cell's attribution report when the run had a
	// ledger attached (dbibench -attr); nil otherwise, so plain sweep
	// JSON is unchanged byte for byte.
	Attr      *telemetry.AttrReport `json:"attr,omitempty"`
	ElapsedMS float64               `json:"elapsed_ms"`
}

// Recorder accumulates cell records from concurrently executing
// sweeps. A nil *Recorder discards everything, so call sites never
// need to guard.
type Recorder struct {
	mu   sync.Mutex
	recs []Record
}

// Add appends one cell record.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
}

// Records returns a copy of the accumulated records sorted by key, so
// the serialized report is byte-stable across worker counts and
// completion orders.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.recs))
	copy(out, r.recs)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ReportSchema identifies the sweep report document layout. Tools
// that compare two reports (dbiscope diff) refuse to diff documents
// with different non-empty schemas; reports from before the field
// existed unmarshal with an empty Schema and are assumed compatible.
const ReportSchema = "dbisweep/v1"

// Report is the top-level -json document: per-cell metrics plus the
// wall-clock accounting that lets CI track the sweep's speedup.
type Report struct {
	Schema      string   `json:"schema,omitempty"`
	Seed        int64    `json:"seed"`
	Workers     int      `json:"workers"`
	Quick       bool     `json:"quick"`
	Experiments []string `json:"experiments"`
	CellCount   int      `json:"cell_count"`
	// BusySeconds is the sum of per-cell simulation time; WallSeconds
	// is the elapsed time of the whole run. Speedup is busy/wall — the
	// effective parallelism the worker pool achieved.
	BusySeconds float64  `json:"busy_seconds"`
	WallSeconds float64  `json:"wall_seconds"`
	Speedup     float64  `json:"speedup"`
	Cells       []Record `json:"cells"`
}

// Report assembles the final document from the accumulated records.
func (r *Recorder) Report(seed int64, workers int, quick bool, experiments []string, wall time.Duration) Report {
	cells := r.Records()
	var busy float64
	for _, c := range cells {
		busy += c.ElapsedMS / 1000
	}
	rep := Report{
		Schema:      ReportSchema,
		Seed:        seed,
		Workers:     workers,
		Quick:       quick,
		Experiments: experiments,
		CellCount:   len(cells),
		BusySeconds: busy,
		WallSeconds: wall.Seconds(),
		Cells:       cells,
	}
	if rep.WallSeconds > 0 {
		rep.Speedup = rep.BusySeconds / rep.WallSeconds
	}
	return rep
}
