package experiments

import (
	"io"
	"testing"

	"dbisim/internal/sweep"
)

// TestEveryRunnerAttributionReconciles runs every simulation-backed
// experiment runner with the process-wide attribution toggle on and
// checks the accounting equation on every cell it records: each record
// carries an Attr report and both of its windows reconcile (closed
// domains sum exactly). A new call site that charges a domain total
// without its category — or vice versa — fails here for whichever
// experiment reaches it.
func TestEveryRunnerAttributionReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if raceEnabled {
		t.Skip("deterministic single-run property; -race only multiplies the runtime")
	}
	runners := []struct {
		name string
		run  func(Options) error
	}{
		{"fig6", func(o Options) error { _, err := Fig6(o); return err }},
		{"fig7", func(o Options) error { _, err := Fig7(o); return err }},
		{"fig8", func(o Options) error { _, err := Fig8(o); return err }},
		{"table3", func(o Options) error { _, err := Table3(o); return err }},
		{"table6", func(o Options) error { _, err := Table6(o); return err }},
		{"table7", func(o Options) error { _, err := Table7(o); return err }},
		{"ablation", func(o Options) error { _, err := Ablation(o); return err }},
		{"dbipolicy", func(o Options) error { _, err := DBIPolicy(o); return err }},
		{"clbsens", func(o Options) error { _, err := CLBSensitivity(o); return err }},
		{"drrip", func(o Options) error { _, err := DRRIP(o); return err }},
		{"casestudy", func(o Options) error { _, err := CaseStudy(o); return err }},
	}
	for _, r := range runners {
		r := r
		t.Run(r.name, func(t *testing.T) {
			rec := &sweep.Recorder{}
			o := tiny()
			o.Out = io.Discard
			o.Recorder = rec
			o.Attr = true
			if err := r.run(o); err != nil {
				t.Fatal(err)
			}
			records := rec.Records()
			if len(records) == 0 {
				t.Fatal("runner produced no records")
			}
			for _, cell := range records {
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
