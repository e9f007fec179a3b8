package experiments

import (
	"fmt"

	"dbisim/internal/areamodel"
	"dbisim/internal/config"
	"dbisim/internal/stats"
)

// DBIPolicyResult compares the five DBI replacement policies of
// Section 4.3.
type DBIPolicyResult struct {
	Policies []config.DBIReplacement
	GMeanIPC map[config.DBIReplacement]float64
}

// DBIPolicy evaluates LRW against the other four DBI replacement
// policies on the write-sensitive benchmark subset. The paper finds LRW
// comparable to or better than the alternatives.
func DBIPolicy(o Options) (*DBIPolicyResult, error) {
	policies := []config.DBIReplacement{
		config.DBILRW, config.DBILRWBIP, config.DBIRWIP,
		config.DBIMaxDirty, config.DBIMinDirty,
	}
	benches := table6Benches(o.Quick)
	res := &DBIPolicyResult{
		Policies: policies,
		GMeanIPC: map[config.DBIReplacement]float64{},
	}
	var cells []simCell
	for _, pol := range policies {
		for _, b := range benches {
			c := o.singleCell("dbipolicy", config.DBIAWB, b)
			c.cfg.DBI.Replacement = pol
			c.key.Param = fmt.Sprintf("policy=%v", pol)
			cells = append(cells, c)
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, pol := range policies {
		var ipcs []float64
		for range benches {
			ipcs = append(ipcs, rs[i].PerCore[0].IPC)
			i++
		}
		res.GMeanIPC[pol] = stats.GeoMean(ipcs)
	}
	w := o.out()
	fprintf(w, "\nSection 4.3: DBI replacement policy comparison (gmean IPC)\n")
	for _, pol := range policies {
		fprintf(w, "%-10s %.4f\n", pol, res.GMeanIPC[pol])
	}
	return res, nil
}

// CLBSensitivityResult sweeps the CLB parameters of Section 6.4.
type CLBSensitivityResult struct {
	Thresholds []float64
	IPC        map[float64]float64
	Spread     float64 // max/min - 1 across the sweep
}

// CLBSensitivity reproduces the Section 6.4 finding that CLB performance
// is insensitive to the miss-predictor threshold for reasonable values.
func CLBSensitivity(o Options) (*CLBSensitivityResult, error) {
	res := &CLBSensitivityResult{
		Thresholds: []float64{0.5, 0.75, 0.95},
		IPC:        map[float64]float64{},
	}
	benches := []string{"libquantum", "stream", "mcf"}
	var cells []simCell
	for _, th := range res.Thresholds {
		for _, b := range benches {
			c := o.singleCell("clbsens", config.DBIAWBCLB, b)
			c.cfg.MissPred.Threshold = th
			c.key.Param = fmt.Sprintf("threshold=%.2f", th)
			cells = append(cells, c)
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	var all []float64
	i := 0
	for _, th := range res.Thresholds {
		var ipcs []float64
		for range benches {
			ipcs = append(ipcs, rs[i].PerCore[0].IPC)
			i++
		}
		res.IPC[th] = stats.GeoMean(ipcs)
		all = append(all, res.IPC[th])
	}
	sorted := stats.SortedCopy(all)
	if sorted[0] > 0 {
		res.Spread = sorted[len(sorted)-1]/sorted[0] - 1
	}
	w := o.out()
	fprintf(w, "\nSection 6.4: CLB sensitivity to miss-predictor threshold\n")
	for _, th := range res.Thresholds {
		fprintf(w, "threshold %.2f  gmean IPC %.4f\n", th, res.IPC[th])
	}
	fprintf(w, "spread %.1f%%\n", 100*res.Spread)
	return res, nil
}

// DRRIPResult compares DAWB and DBI+AWB+CLB under the DRRIP replacement
// policy (Section 6.5).
type DRRIPResult struct {
	WSDAWB float64
	WSDBI  float64
}

// DRRIP reproduces the Section 6.5 check: DBI's benefit persists under a
// better replacement policy (the paper reports +7% over DAWB at 8
// cores with DRRIP).
func DRRIP(o Options) (*DRRIPResult, error) {
	cores := 8
	mixes := o.mixesFor(cores)
	if o.Quick {
		mixes = mixes[:2]
	}
	alone, err := o.aloneIPC("drrip", uniqueBenches(mixBenches(mixes)))
	if err != nil {
		return nil, err
	}
	mechs := []config.Mechanism{config.DAWB, config.DBIAWBCLB}
	var cells []simCell
	for _, mech := range mechs {
		for _, mix := range mixes {
			c := o.multiCell("drrip", mech, mix.Name, mix.Benches)
			c.cfg.L3.Replacement = config.ReplDRRIP
			c.key.Param = "repl=DRRIP"
			cells = append(cells, c)
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	mean := func(off int) float64 {
		var ws []float64
		for i := range mixes {
			ws = append(ws, weightedSpeedup(rs[off+i], alone))
		}
		return stats.Mean(ws)
	}
	res := &DRRIPResult{WSDAWB: mean(0), WSDBI: mean(len(mixes))}
	w := o.out()
	fprintf(w, "\nSection 6.5: 8-core with DRRIP replacement\n")
	fprintf(w, "DAWB        WS=%.3f\nDBI+AWB+CLB WS=%.3f (%+.0f%%)\n",
		res.WSDAWB, res.WSDBI, 100*(res.WSDBI/res.WSDAWB-1))
	return res, nil
}

// AreaPowerResult carries the Section 6.3 headline numbers.
type AreaPowerResult struct {
	AreaReductionQuarter float64 // α=1/4, 16MB cache, with ECC
	AreaReductionHalf    float64 // α=1/2
	DRAMEnergyReduction  float64 // single-core mean, DBI+AWB+CLB vs baseline
}

// AreaPower reproduces the Section 6.3 area and energy claims: ~8%/5%
// cache area reduction for α=1/4 and 1/2 at 16MB, and the DRAM energy
// reduction from higher row hit rates.
func AreaPower(o Options) (*AreaPowerResult, error) {
	cfg16 := config.PaperWithL3PerCore(8, config.DBIAWBCLB, 2<<20)
	bits, sram := areamodel.DefaultBits(), areamodel.DefaultSRAM()
	res := &AreaPowerResult{}
	d := cfg16.DBI
	res.AreaReductionQuarter = areamodel.CacheAreaReduction(bits, sram, cfg16.L3, d)
	d.AlphaNum, d.AlphaDen = 1, 2
	res.AreaReductionHalf = areamodel.CacheAreaReduction(bits, sram, cfg16.L3, d)

	energy := areamodel.DefaultDRAMEnergy()
	benches := table6Benches(o.Quick)
	var cells []simCell
	for _, b := range benches {
		cells = append(cells, o.singleCell("area", config.Baseline, b))
		cells = append(cells, o.singleCell("area", config.DBIAWBCLB, b))
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for i := range benches {
		base, dbi := rs[2*i], rs[2*i+1]
		eb := energy.EnergyFromCounts(base.MemActivates, base.MemReads, base.MemWrites)
		ed := energy.EnergyFromCounts(dbi.MemActivates, dbi.MemReads, dbi.MemWrites)
		if eb > 0 {
			// Normalize per measured instruction so run lengths compare.
			ebPI := eb / float64(base.TotalInstructions)
			edPI := ed / float64(dbi.TotalInstructions)
			ratios = append(ratios, edPI/ebPI)
		}
	}
	res.DRAMEnergyReduction = 1 - stats.GeoMean(ratios)
	w := o.out()
	fprintf(w, "\nSection 6.3: area and energy\n")
	fprintf(w, "cache area reduction (16MB, ECC): α=1/4 %.1f%%, α=1/2 %.1f%%\n",
		100*res.AreaReductionQuarter, 100*res.AreaReductionHalf)
	fprintf(w, "DRAM energy change (DBI+AWB+CLB vs baseline): %+.1f%%\n",
		-100*res.DRAMEnergyReduction)
	return res, nil
}
