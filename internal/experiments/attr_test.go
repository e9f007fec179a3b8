package experiments

import (
	"io"
	"strings"
	"testing"

	"dbisim/internal/sweep"
)

// TestEveryRunnerAttributionReconciles plans every registered
// experiment into one run with attribution on, as `dbibench -experiment
// all -attr` does, and checks the accounting equation on every cell it
// records: the run records each planned cell once, and each record
// carries an Attr report whose windows both reconcile (closed domains
// sum exactly). A new call site that charges a domain total without its
// category — or vice versa — fails here for whichever experiment
// reaches it.
func TestEveryRunnerAttributionReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if raceEnabled {
		t.Skip("deterministic single-run property; -race only multiplies the runtime")
	}
	rec := &sweep.Recorder{}
	o := tiny()
	o.Out = io.Discard
	o.Recorder = rec
	o.Attr = true
	p := &plan{o: o}
	planned := map[string]int{}
	var finishes []func() (any, error)
	for _, e := range Registry {
		n := len(p.cells)
		finishes = append(finishes, e.plan(p))
		planned[e.ID] = len(p.cells) - n
	}
	if err := p.run("all"); err != nil {
		t.Fatal(err)
	}
	for _, finish := range finishes {
		if _, err := finish(); err != nil {
			t.Fatal(err)
		}
	}
	records := rec.Records()
	if len(records) != len(p.cells) {
		t.Fatalf("run recorded %d cells, planned %d", len(records), len(p.cells))
	}
	byExp := map[string][]sweep.Record{}
	for _, r := range records {
		id, _, _ := strings.Cut(r.Experiment, "/") // fig7/alone is fig7's
		byExp[id] = append(byExp[id], r)
	}
	for _, e := range Registry {
		if planned[e.ID] == 0 {
			continue // tab4, tab5 and flushlat simulate no machine
		}
		t.Run(e.ID, func(t *testing.T) {
			if got := len(byExp[e.ID]); got != planned[e.ID] {
				t.Fatalf("recorded %d cells, planned %d", got, planned[e.ID])
			}
			for _, cell := range byExp[e.ID] {
				if cell.Attr == nil {
					t.Fatalf("%s: no attribution report", cell.Key)
				}
				if err := cell.Attr.Warmup.Reconcile(); err != nil {
					t.Errorf("%s warmup: %v", cell.Key, err)
				}
				if err := cell.Attr.Measure.Reconcile(); err != nil {
					t.Errorf("%s measure: %v", cell.Key, err)
				}
			}
		})
	}
}
