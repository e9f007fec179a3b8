package experiments

import (
	"sort"

	"dbisim/internal/config"
	"dbisim/internal/stats"
	"dbisim/internal/system"
	"dbisim/internal/workloads"
)

// mixesFor returns the workload mixes for a core count: a representative
// fixed set of 4 in Quick mode, a seeded sample of 12 otherwise. The
// paper's full counts (102/259/120) are not run.
func (o Options) mixesFor(cores int) []workloads.Mix {
	if o.Quick {
		return workloads.Representative(cores)[:4]
	}
	return workloads.Generate(cores, 12, o.seed())
}

// Fig7Result holds the multi-core weighted speedups of Figure 7.
type Fig7Result struct {
	Cores      []int
	Mechanisms []config.Mechanism
	// AvgWS[cores][mechanism] is the mean weighted speedup across mixes.
	AvgWS map[int]map[config.Mechanism]float64
}

// Improvement returns a mechanism's average WS improvement over the
// baseline for a core count.
func (r *Fig7Result) Improvement(cores int, m config.Mechanism) float64 {
	base := r.AvgWS[cores][config.Baseline]
	if base == 0 {
		return 0
	}
	return r.AvgWS[cores][m]/base - 1
}

// Fig7 reproduces Figure 7: average weighted speedup for 2-, 4- and
// 8-core systems under each mechanism.
func Fig7(o Options) (*Fig7Result, error) { return runOne(o, "fig7", planFig7) }

func planFig7(p *plan) func() (*Fig7Result, error) {
	cores, mechs := []int{2, 4, 8}, fig7Mechanisms()
	alone := make([]aloneRuns, len(cores))
	rs := make([][][]*system.Results, len(cores)) // [cores][mechanism][mix]
	for i, n := range cores {
		mixes := p.o.mixesFor(n)
		alone[i] = p.aloneMixes("fig7", mixes)
		rs[i] = make([][]*system.Results, len(mechs))
		for j, mech := range mechs {
			for _, mix := range mixes {
				rs[i][j] = append(rs[i][j], p.add(p.o.multiCell("fig7", mech, mix.Name, mix.Benches)))
			}
		}
	}
	return func() (*Fig7Result, error) {
		res := &Fig7Result{
			Cores:      cores,
			Mechanisms: mechs,
			AvgWS:      map[int]map[config.Mechanism]float64{},
		}
		for i, n := range cores {
			ipc := alone[i].ipc()
			res.AvgWS[n] = map[config.Mechanism]float64{}
			for j, mech := range mechs {
				res.AvgWS[n][mech] = stats.Mean(wsPerMix(rs[i][j], ipc))
			}
		}
		w := p.o.out()
		fprintf(w, "\nFigure 7: Multi-core weighted speedup (mean over mixes)\n")
		fprintf(w, "%-12s", "mechanism")
		for _, c := range res.Cores {
			fprintf(w, "%10d-core", c)
		}
		fprintf(w, "\n")
		for _, mech := range res.Mechanisms {
			fprintf(w, "%-12s", mech)
			for _, c := range res.Cores {
				fprintf(w, "%15.3f", res.AvgWS[c][mech])
			}
			fprintf(w, "\n")
		}
		fprintf(w, "\nWS improvement of DBI+AWB+CLB over baseline: ")
		for _, c := range res.Cores {
			fprintf(w, "%d-core %+.0f%%  ", c, 100*res.Improvement(c, config.DBIAWBCLB))
		}
		fprintf(w, "\n")
		return res, nil
	}
}

// Fig8Result is the per-workload normalized weighted speedup S-curve of
// Figure 8 (4-core).
type Fig8Result struct {
	// Normalized[mechanism] is the per-mix WS normalized to baseline,
	// sorted ascending by the DBI+AWB+CLB improvement (the paper's
	// x-axis ordering).
	Normalized map[config.Mechanism][]float64
	Mixes      int
}

// Fig8 reproduces Figure 8: per-workload 4-core weighted speedup of DAWB
// and DBI+AWB+CLB normalized to baseline, sorted by DBI improvement.
func Fig8(o Options) (*Fig8Result, error) { return runOne(o, "fig8", planFig8) }

func planFig8(p *plan) func() (*Fig8Result, error) {
	mixes := p.o.mixesFor(4)
	if !p.o.Quick {
		mixes = workloads.Generate(4, 24, p.o.seed())
	}
	alone := p.aloneMixes("fig8", mixes)
	mechs := []config.Mechanism{config.Baseline, config.DAWB, config.DBIAWBCLB}
	rs := map[config.Mechanism][]*system.Results{}
	for _, mech := range mechs {
		for _, mix := range mixes {
			rs[mech] = append(rs[mech], p.add(p.o.multiCell("fig8", mech, mix.Name, mix.Benches)))
		}
	}
	return func() (*Fig8Result, error) {
		ipc := alone.ipc()
		ws := map[config.Mechanism][]float64{}
		for _, mech := range mechs {
			ws[mech] = wsPerMix(rs[mech], ipc)
		}
		res := &Fig8Result{Normalized: map[config.Mechanism][]float64{}, Mixes: len(mixes)}
		type row struct{ dawb, dbi float64 }
		rows := make([]row, len(mixes))
		for i := range mixes {
			base := ws[config.Baseline][i]
			if base == 0 {
				continue
			}
			rows[i] = row{dawb: ws[config.DAWB][i] / base, dbi: ws[config.DBIAWBCLB][i] / base}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].dbi < rows[j].dbi })
		for _, r := range rows {
			res.Normalized[config.DAWB] = append(res.Normalized[config.DAWB], r.dawb)
			res.Normalized[config.DBIAWBCLB] = append(res.Normalized[config.DBIAWBCLB], r.dbi)
		}
		w := p.o.out()
		fprintf(w, "\nFigure 8: 4-core per-workload WS normalized to baseline (sorted)\n")
		fprintf(w, "%-6s %10s %14s\n", "mix#", "DAWB", "DBI+AWB+CLB")
		for i := range rows {
			fprintf(w, "%-6d %10.3f %14.3f\n", i, rows[i].dawb, rows[i].dbi)
		}
		return res, nil
	}
}

// Table3Result holds the paper's Table 3 metrics.
type Table3Result struct {
	Cores []int
	// All values are fractional improvements of DBI+AWB+CLB vs baseline
	// (MaxSlowdown is a reduction).
	WSImprovement map[int]float64
	ITImprovement map[int]float64
	HSImprovement map[int]float64
	MSReduction   map[int]float64
}

// Table3 reproduces Table 3: weighted speedup, instruction throughput
// and harmonic speedup improvements plus maximum slowdown reduction of
// DBI+AWB+CLB over the baseline for 2/4/8-core systems.
func Table3(o Options) (*Table3Result, error) { return runOne(o, "tab3", planTable3) }

func planTable3(p *plan) func() (*Table3Result, error) {
	cores := []int{2, 4, 8}
	alone := make([]aloneRuns, len(cores))
	base := make([][]*system.Results, len(cores)) // [cores][mix]
	dbi := make([][]*system.Results, len(cores))
	for i, n := range cores {
		mixes := p.o.mixesFor(n)
		alone[i] = p.aloneMixes("tab3", mixes)
		for _, mix := range mixes {
			base[i] = append(base[i], p.add(p.o.multiCell("tab3", config.Baseline, mix.Name, mix.Benches)))
			dbi[i] = append(dbi[i], p.add(p.o.multiCell("tab3", config.DBIAWBCLB, mix.Name, mix.Benches)))
		}
	}
	return func() (*Table3Result, error) {
		res := &Table3Result{
			Cores:         cores,
			WSImprovement: map[int]float64{},
			ITImprovement: map[int]float64{},
			HSImprovement: map[int]float64{},
			MSReduction:   map[int]float64{},
		}
		for i, n := range cores {
			ipc := alone[i].ipc()
			var itB, itD, hsB, hsD, msB, msD []float64
			for k, rb := range base[i] {
				rd := dbi[i][k]
				itB = append(itB, system.InstructionThroughput(rb.PerCore))
				itD = append(itD, system.InstructionThroughput(rd.PerCore))
				hsB = append(hsB, system.HarmonicSpeedup(rb.PerCore, ipc))
				hsD = append(hsD, system.HarmonicSpeedup(rd.PerCore, ipc))
				msB = append(msB, system.MaxSlowdown(rb.PerCore, ipc))
				msD = append(msD, system.MaxSlowdown(rd.PerCore, ipc))
			}
			res.WSImprovement[n] = stats.Mean(wsPerMix(dbi[i], ipc))/stats.Mean(wsPerMix(base[i], ipc)) - 1
			res.ITImprovement[n] = stats.Mean(itD)/stats.Mean(itB) - 1
			res.HSImprovement[n] = stats.Mean(hsD)/stats.Mean(hsB) - 1
			res.MSReduction[n] = 1 - stats.Mean(msD)/stats.Mean(msB)
		}
		w := p.o.out()
		fprintf(w, "\nTable 3: DBI+AWB+CLB vs baseline\n")
		fprintf(w, "%-28s", "metric")
		for _, c := range res.Cores {
			fprintf(w, "%9d-core", c)
		}
		fprintf(w, "\n")
		rows := []struct {
			name string
			m    map[int]float64
		}{
			{"Weighted speedup improv.", res.WSImprovement},
			{"Instr. throughput improv.", res.ITImprovement},
			{"Harmonic speedup improv.", res.HSImprovement},
			{"Maximum slowdown reduction", res.MSReduction},
		}
		for _, r := range rows {
			fprintf(w, "%-28s", r.name)
			for _, c := range res.Cores {
				fprintf(w, "%13.0f%%", 100*r.m[c])
			}
			fprintf(w, "\n")
		}
		return res, nil
	}
}
