package experiments

import (
	"fmt"

	"dbisim/internal/areamodel"
	"dbisim/internal/config"
	"dbisim/internal/stats"
	"dbisim/internal/system"
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
	return runOne(o, "dbipolicy", planDBIPolicy)
}

func planDBIPolicy(p *plan) func() (*DBIPolicyResult, error) {
	policies := []config.DBIReplacement{
		config.DBILRW, config.DBILRWBIP, config.DBIRWIP,
		config.DBIMaxDirty, config.DBIMinDirty,
	}
	benches := table6Benches(p.o.Quick)
	rs := make([][]*system.Results, len(policies)) // [policy][benchmark]
	for i, pol := range policies {
		for _, b := range benches {
			c := p.o.singleCell("dbipolicy", config.DBIAWB, b)
			c.cfg.DBI.Replacement = pol
			c.key.Param = fmt.Sprintf("policy=%v", pol)
			rs[i] = append(rs[i], p.add(c))
		}
	}
	return func() (*DBIPolicyResult, error) {
		res := &DBIPolicyResult{
			Policies: policies,
			GMeanIPC: map[config.DBIReplacement]float64{},
		}
		for i, pol := range policies {
			var ipcs []float64
			for _, r := range rs[i] {
				ipcs = append(ipcs, r.PerCore[0].IPC)
			}
			res.GMeanIPC[pol] = stats.GeoMean(ipcs)
		}
		w := p.o.out()
		fprintf(w, "\nSection 4.3: DBI replacement policy comparison (gmean IPC)\n")
		for _, pol := range policies {
			fprintf(w, "%-10s %.4f\n", pol, res.GMeanIPC[pol])
		}
		return res, nil
	}
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
	return runOne(o, "clbsens", planCLBSensitivity)
}

func planCLBSensitivity(p *plan) func() (*CLBSensitivityResult, error) {
	thresholds := []float64{0.5, 0.75, 0.95}
	benches := []string{"libquantum", "stream", "mcf"}
	rs := make([][]*system.Results, len(thresholds)) // [threshold][benchmark]
	for i, th := range thresholds {
		for _, b := range benches {
			c := p.o.singleCell("clbsens", config.DBIAWBCLB, b)
			c.cfg.MissPred.Threshold = th
			c.key.Param = fmt.Sprintf("threshold=%.2f", th)
			rs[i] = append(rs[i], p.add(c))
		}
	}
	return func() (*CLBSensitivityResult, error) {
		res := &CLBSensitivityResult{Thresholds: thresholds, IPC: map[float64]float64{}}
		var all []float64
		for i, th := range thresholds {
			var ipcs []float64
			for _, r := range rs[i] {
				ipcs = append(ipcs, r.PerCore[0].IPC)
			}
			res.IPC[th] = stats.GeoMean(ipcs)
			all = append(all, res.IPC[th])
		}
		sorted := stats.SortedCopy(all)
		if sorted[0] > 0 {
			res.Spread = sorted[len(sorted)-1]/sorted[0] - 1
		}
		w := p.o.out()
		fprintf(w, "\nSection 6.4: CLB sensitivity to miss-predictor threshold\n")
		for _, th := range res.Thresholds {
			fprintf(w, "threshold %.2f  gmean IPC %.4f\n", th, res.IPC[th])
		}
		fprintf(w, "spread %.1f%%\n", 100*res.Spread)
		return res, nil
	}
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
func DRRIP(o Options) (*DRRIPResult, error) { return runOne(o, "drrip", planDRRIP) }

func planDRRIP(p *plan) func() (*DRRIPResult, error) {
	mixes := p.o.mixesFor(8)
	if p.o.Quick {
		mixes = mixes[:2]
	}
	alone := p.aloneMixes("drrip", mixes)
	mechs := []config.Mechanism{config.DAWB, config.DBIAWBCLB}
	rs := make([][]*system.Results, len(mechs)) // [mechanism][mix]
	for i, mech := range mechs {
		for _, mix := range mixes {
			c := p.o.multiCell("drrip", mech, mix.Name, mix.Benches)
			c.cfg.L3.Replacement = config.ReplDRRIP
			c.key.Param = "repl=DRRIP"
			rs[i] = append(rs[i], p.add(c))
		}
	}
	return func() (*DRRIPResult, error) {
		ipc := alone.ipc()
		res := &DRRIPResult{
			WSDAWB: stats.Mean(wsPerMix(rs[0], ipc)),
			WSDBI:  stats.Mean(wsPerMix(rs[1], ipc)),
		}
		w := p.o.out()
		fprintf(w, "\nSection 6.5: 8-core with DRRIP replacement\n")
		fprintf(w, "DAWB        WS=%.3f\nDBI+AWB+CLB WS=%.3f (%+.0f%%)\n",
			res.WSDAWB, res.WSDBI, 100*(res.WSDBI/res.WSDAWB-1))
		return res, nil
	}
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
func AreaPower(o Options) (*AreaPowerResult, error) { return runOne(o, "area", planAreaPower) }

func planAreaPower(p *plan) func() (*AreaPowerResult, error) {
	benches := table6Benches(p.o.Quick)
	base := make([]*system.Results, len(benches))
	dbi := make([]*system.Results, len(benches))
	for i, b := range benches {
		base[i] = p.add(p.o.singleCell("area", config.Baseline, b))
		dbi[i] = p.add(p.o.singleCell("area", config.DBIAWBCLB, b))
	}
	return func() (*AreaPowerResult, error) {
		cfg16 := config.PaperWithL3PerCore(8, config.DBIAWBCLB, 2<<20)
		bits, sram := areamodel.DefaultBits(), areamodel.DefaultSRAM()
		res := &AreaPowerResult{}
		d := cfg16.DBI
		res.AreaReductionQuarter = areamodel.CacheAreaReduction(bits, sram, cfg16.L3, d)
		d.AlphaNum, d.AlphaDen = 1, 2
		res.AreaReductionHalf = areamodel.CacheAreaReduction(bits, sram, cfg16.L3, d)

		energy := areamodel.DefaultDRAMEnergy()
		var ratios []float64
		for i := range benches {
			rb, rd := base[i], dbi[i]
			eb := energy.EnergyFromCounts(rb.MemActivates, rb.MemReads, rb.MemWrites)
			ed := energy.EnergyFromCounts(rd.MemActivates, rd.MemReads, rd.MemWrites)
			if eb > 0 {
				// Normalize per measured instruction so run lengths compare.
				ebPI := eb / float64(rb.TotalInstructions)
				edPI := ed / float64(rd.TotalInstructions)
				ratios = append(ratios, edPI/ebPI)
			}
		}
		res.DRAMEnergyReduction = 1 - stats.GeoMean(ratios)
		w := p.o.out()
		fprintf(w, "\nSection 6.3: area and energy\n")
		fprintf(w, "cache area reduction (16MB, ECC): α=1/4 %.1f%%, α=1/2 %.1f%%\n",
			100*res.AreaReductionQuarter, 100*res.AreaReductionHalf)
		fprintf(w, "DRAM energy change (DBI+AWB+CLB vs baseline): %+.1f%%\n",
			-100*res.DRAMEnergyReduction)
		return res, nil
	}
}
