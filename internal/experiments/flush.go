package experiments

import (
	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/sweep"
)

// FlushResult compares whole-cache flush latency between the
// conventional tag walk and the DBI walk (Section 7, "Cache Flushing").
type FlushResult struct {
	DirtyBlocks    int
	TagWalkCycles  event.Cycle
	DBIWalkCycles  event.Cycle
	Speedup        float64
	TagWalkLookups uint64
	DBIWalkLookups uint64
}

// nullMem is a zero-latency memory for the flush micro-experiment.
type nullMem struct{ eng *event.Engine }

func (m nullMem) Read(b addr.BlockAddr, done func()) { m.eng.After(1, done) }
func (m nullMem) Write(b addr.BlockAddr)             {}

// Flush measures the latency of writing back a fixed dirty population
// under both organizations.
func Flush(o Options) (*FlushResult, error) {
	const dirty = 256
	build := func(mech config.Mechanism) (*event.Engine, *llc.LLC, error) {
		eng := &event.Engine{}
		cfg := config.Scaled(1, mech)
		l, err := llc.New(eng, addr.Default(), llc.Config{
			Cores: 1, Sys: cfg, Mem: nullMem{eng: eng}, Seed: o.seed(),
		})
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < dirty; i++ {
			// Spread across sets and regions; keep DBI pressure below
			// its capacity so both organizations flush the same blocks.
			l.Writeback(addr.BlockAddr(i*65), 0)
		}
		eng.Run()
		return eng, l, nil
	}

	res := &FlushResult{DirtyBlocks: dirty}

	// The two organizations flush fully independent systems, so they
	// run as two cells of a (tiny) sweep.
	type walk struct {
		cycles  event.Cycle
		lookups uint64
	}
	cell := func(mech config.Mechanism) sweep.Cell[walk] {
		return sweep.Cell[walk]{
			Key: sweep.Key{Experiment: "flushlat", Mechanism: mech.String()},
			Run: func() (walk, error) {
				eng, l, err := build(mech)
				if err != nil {
					return walk{}, err
				}
				var w walk
				before := l.TagLookups()
				l.FlushTimed(func(_ int, c event.Cycle) { w.cycles = c })
				eng.Run()
				w.lookups = l.TagLookups() - before
				return w, nil
			},
		}
	}
	outs, err := sweep.RunWithProgress("flushlat", []sweep.Cell[walk]{cell(config.TADIP), cell(config.DBI)}, o.workers(), o.Progress)
	if err != nil {
		return nil, err
	}
	res.TagWalkCycles, res.TagWalkLookups = outs[0].Value.cycles, outs[0].Value.lookups
	res.DBIWalkCycles, res.DBIWalkLookups = outs[1].Value.cycles, outs[1].Value.lookups

	if res.DBIWalkCycles > 0 {
		res.Speedup = float64(res.TagWalkCycles) / float64(res.DBIWalkCycles)
	}
	w := o.out()
	fprintf(w, "\nSection 7: whole-cache flush latency (%d dirty blocks)\n", dirty)
	fprintf(w, "tag walk: %d cycles, %d tag lookups\n", res.TagWalkCycles, res.TagWalkLookups)
	fprintf(w, "DBI walk: %d cycles, %d tag lookups\n", res.DBIWalkCycles, res.DBIWalkLookups)
	fprintf(w, "speedup:  %.1fx\n", res.Speedup)
	return res, nil
}
