package experiments

import (
	"fmt"

	"dbisim/internal/config"
	"dbisim/internal/stats"
	"dbisim/internal/system"
	"dbisim/internal/trace"
)

// Fig6Result holds the five per-benchmark series of Figure 6.
type Fig6Result struct {
	Benchmarks []string
	Mechanisms []config.Mechanism
	// Indexed [mechanism][benchmark].
	IPC        map[config.Mechanism]map[string]float64
	WriteRHR   map[config.Mechanism]map[string]float64
	TagPKI     map[config.Mechanism]map[string]float64
	WPKI       map[config.Mechanism]map[string]float64
	ReadRHR    map[config.Mechanism]map[string]float64
	GMeanIPC   map[config.Mechanism]float64
	MeanWRHR   map[config.Mechanism]float64
	MeanTagPKI map[config.Mechanism]float64
}

// Fig6 reproduces Figure 6: single-core IPC, write row hit rate, tag
// lookups PKI, memory writes PKI and read row hit rate for the 14
// benchmark models under the seven mechanisms.
func Fig6(o Options) (*Fig6Result, error) {
	res := &Fig6Result{
		Benchmarks: trace.Benchmarks(),
		Mechanisms: fig6Mechanisms(),
		IPC:        map[config.Mechanism]map[string]float64{},
		WriteRHR:   map[config.Mechanism]map[string]float64{},
		TagPKI:     map[config.Mechanism]map[string]float64{},
		WPKI:       map[config.Mechanism]map[string]float64{},
		ReadRHR:    map[config.Mechanism]map[string]float64{},
		GMeanIPC:   map[config.Mechanism]float64{},
		MeanWRHR:   map[config.Mechanism]float64{},
		MeanTagPKI: map[config.Mechanism]float64{},
	}
	var cells []simCell
	for _, mech := range res.Mechanisms {
		for _, b := range res.Benchmarks {
			cells = append(cells, o.singleCell("fig6", mech, b))
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, mech := range res.Mechanisms {
		res.IPC[mech] = map[string]float64{}
		res.WriteRHR[mech] = map[string]float64{}
		res.TagPKI[mech] = map[string]float64{}
		res.WPKI[mech] = map[string]float64{}
		res.ReadRHR[mech] = map[string]float64{}
		var ipcs, wrhrs, tags []float64
		for _, b := range res.Benchmarks {
			r := rs[i]
			i++
			res.IPC[mech][b] = r.PerCore[0].IPC
			res.WriteRHR[mech][b] = r.WriteRowHitRate
			res.TagPKI[mech][b] = r.TagLookupsPKI
			res.WPKI[mech][b] = r.MemWritesPKI
			res.ReadRHR[mech][b] = r.ReadRowHitRate
			ipcs = append(ipcs, r.PerCore[0].IPC)
			wrhrs = append(wrhrs, r.WriteRowHitRate)
			tags = append(tags, r.TagLookupsPKI)
		}
		res.GMeanIPC[mech] = stats.GeoMean(ipcs)
		res.MeanWRHR[mech] = stats.Mean(wrhrs)
		res.MeanTagPKI[mech] = stats.Mean(tags)
	}
	res.render(o)
	return res, nil
}

// CheckPaperOrdering verifies the Figure-6a mechanism ordering the
// paper reports and EXPERIMENTS.md records as preserved:
// DBI+AWB+CLB > DBI+AWB > DAWB > VWQ > TA-DIP on gmean IPC. The CI
// smoke job gates on it via `dbibench -experiment fig6 -check`.
func (res *Fig6Result) CheckPaperOrdering() error {
	order := []config.Mechanism{
		config.DBIAWBCLB, config.DBIAWB, config.DAWB, config.VWQ, config.TADIP,
	}
	for i := 0; i+1 < len(order); i++ {
		hi, lo := order[i], order[i+1]
		a, ok := res.GMeanIPC[hi]
		b, ok2 := res.GMeanIPC[lo]
		if !ok || !ok2 {
			return fmt.Errorf("fig6: ordering check needs %v and %v in the sweep", hi, lo)
		}
		if a <= b {
			return fmt.Errorf("fig6: paper ordering violated: gmean IPC %v (%.4f) <= %v (%.4f)",
				hi, a, lo, b)
		}
	}
	return nil
}

func (res *Fig6Result) render(o Options) {
	w := o.out()
	series := []struct {
		title string
		data  map[config.Mechanism]map[string]float64
	}{
		{"Figure 6a: Instructions per cycle (IPC)", res.IPC},
		{"Figure 6b: Write row hit rate", res.WriteRHR},
		{"Figure 6c: LLC tag lookups per kilo instruction", res.TagPKI},
		{"Figure 6d: Memory writes per kilo instruction", res.WPKI},
		{"Figure 6e: Read row hit rate", res.ReadRHR},
	}
	for _, s := range series {
		fprintf(w, "\n%s\n", s.title)
		fprintf(w, "%-12s", "benchmark")
		for _, m := range res.Mechanisms {
			fprintf(w, "%12s", m)
		}
		fprintf(w, "\n")
		for _, b := range res.Benchmarks {
			fprintf(w, "%-12s", b)
			for _, m := range res.Mechanisms {
				fprintf(w, "%12.3f", s.data[m][b])
			}
			fprintf(w, "\n")
		}
	}
	fprintf(w, "\nSummary (gmean IPC / mean write RHR / mean tag PKI)\n")
	for _, m := range res.Mechanisms {
		fprintf(w, "%-12s %8.4f %8.3f %8.1f\n",
			m, res.GMeanIPC[m], res.MeanWRHR[m], res.MeanTagPKI[m])
	}
	base := res.GMeanIPC[config.TADIP]
	if base > 0 {
		fprintf(w, "\nIPC improvement over TA-DIP:\n")
		for _, m := range res.Mechanisms {
			fprintf(w, "%-12s %+.1f%%\n", m, 100*(res.GMeanIPC[m]/base-1))
		}
	}
}

// CaseStudyResult is the Section 6.2 GemsFDTD+libquantum study.
type CaseStudyResult struct {
	Mechanisms []config.Mechanism
	WS         map[config.Mechanism]float64 // weighted speedup
	TagPKI     map[config.Mechanism]float64
}

// CaseStudy reproduces the 2-core GemsFDTD+libquantum case study: DBI
// (even without AWB) captures most of the DRAM-aware-writeback benefit
// while CLB removes libquantum's useless lookups.
func CaseStudy(o Options) (*CaseStudyResult, error) {
	mix := []string{"GemsFDTD", "libquantum"}
	alone, err := o.aloneIPC("casestudy", mix)
	if err != nil {
		return nil, err
	}
	mechs := []config.Mechanism{
		config.Baseline, config.DAWB, config.DBI, config.DBIAWB, config.DBIAWBCLB,
	}
	res := &CaseStudyResult{
		Mechanisms: mechs,
		WS:         map[config.Mechanism]float64{},
		TagPKI:     map[config.Mechanism]float64{},
	}
	var cells []simCell
	for _, mech := range mechs {
		cells = append(cells, o.multiCell("casestudy", mech, "GemsFDTD+libquantum", mix))
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	w := o.out()
	fprintf(w, "\nSection 6.2 case study: 2-core GemsFDTD + libquantum\n")
	for i, mech := range mechs {
		res.WS[mech] = system.WeightedSpeedup(rs[i].PerCore, alone)
		res.TagPKI[mech] = rs[i].TagLookupsPKI
		fprintf(w, "%-12s WS=%.3f tagPKI=%.1f\n", mech, res.WS[mech], res.TagPKI[mech])
	}
	base := res.WS[config.Baseline]
	if base > 0 {
		for _, mech := range mechs[1:] {
			fprintf(w, "%-12s %+.0f%% vs baseline\n", mech, 100*(res.WS[mech]/base-1))
		}
	}
	return res, nil
}
