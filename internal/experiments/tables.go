package experiments

import (
	"fmt"

	"dbisim/internal/areamodel"
	"dbisim/internal/config"
	"dbisim/internal/stats"
)

// Table4 renders the paper's Table 4 (bit-storage cost reduction) and
// returns its rows.
func Table4(o Options) []areamodel.Table4Row {
	cfg := config.PaperWithL3PerCore(8, config.DBIAWBCLB, 2<<20) // 16MB LLC
	rows := areamodel.Table4(areamodel.DefaultBits(), cfg.L3, cfg.DBI)
	w := o.out()
	fprintf(w, "\nTable 4: bit storage cost reduction (16MB cache)\n")
	for _, r := range rows {
		fprintf(w, "%s\n", r)
	}
	return rows
}

// Table5 renders the paper's Table 5 (DBI power fraction) and returns
// its rows.
func Table5(o Options) []areamodel.Table5Row {
	cfg := config.Paper(1, config.DBIAWBCLB)
	rows := areamodel.Table5(areamodel.DefaultBits(), areamodel.DefaultSRAM(), cfg.DBI, 3)
	w := o.out()
	fprintf(w, "\nTable 5: DBI power as a fraction of cache power\n")
	for _, r := range rows {
		fprintf(w, "%2dMB  static %.2f%%  dynamic %.1f%%\n",
			r.CacheBytes>>20, 100*r.StaticFraction, 100*r.DynamicFraction)
	}
	return rows
}

// Table6Result maps (alpha, granularity) to the average IPC improvement
// of DBI+AWB over the baseline — the paper's Table 6.
type Table6Result struct {
	Granularities []int
	Alphas        [][2]int
	// Improvement[alphaIdx][granIdx].
	Improvement [][]float64
}

// table6Benches is the write-sensitive subset used for the sensitivity
// sweeps (full Figure-6 sweeps would multiply runtime without changing
// the trend).
func table6Benches(quick bool) []string {
	if quick {
		return []string{"lbm", "GemsFDTD", "milc"}
	}
	return []string{"lbm", "GemsFDTD", "stream", "milc", "cactusADM", "leslie3d"}
}

// Table6 reproduces Table 6: sensitivity of the AWB optimization to DBI
// size (α) and granularity.
func Table6(o Options) (*Table6Result, error) {
	res := &Table6Result{
		Granularities: []int{16, 32, 64, 128},
		Alphas:        [][2]int{{1, 4}, {1, 2}},
	}
	benches := table6Benches(o.Quick)

	baseIPC, err := o.aloneIPC("tab6", benches)
	if err != nil {
		return nil, err
	}
	var cells []simCell
	for _, alpha := range res.Alphas {
		for _, gran := range res.Granularities {
			for _, b := range benches {
				c := o.singleCell("tab6", config.DBIAWB, b)
				c.cfg.DBI.AlphaNum, c.cfg.DBI.AlphaDen = alpha[0], alpha[1]
				c.cfg.DBI.Granularity = gran
				c.key.Param = fmt.Sprintf("alpha=%d/%d,gran=%d", alpha[0], alpha[1], gran)
				cells = append(cells, c)
			}
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for range res.Alphas {
		var row []float64
		for range res.Granularities {
			var speedups []float64
			for _, b := range benches {
				speedups = append(speedups, rs[i].PerCore[0].IPC/baseIPC[b])
				i++
			}
			row = append(row, stats.GeoMean(speedups)-1)
		}
		res.Improvement = append(res.Improvement, row)
	}
	w := o.out()
	fprintf(w, "\nTable 6: AWB sensitivity to DBI size and granularity\n")
	fprintf(w, "%-10s", "size\\gran")
	for _, g := range res.Granularities {
		fprintf(w, "%8d", g)
	}
	fprintf(w, "\n")
	for i, alpha := range res.Alphas {
		fprintf(w, "α=%d/%-6d", alpha[0], alpha[1])
		for j := range res.Granularities {
			fprintf(w, "%+7.0f%%", 100*res.Improvement[i][j])
		}
		fprintf(w, "\n")
	}
	return res, nil
}

// Table7Result maps LLC capacity per core to the WS improvement of
// DBI+AWB+CLB over baseline.
type Table7Result struct {
	Cores []int
	// Improvement[l3PerCoreMB][cores].
	Improvement map[uint64]map[int]float64
}

// Table7 reproduces Table 7: the effect of cache size (the scaled
// analogues of the paper's 2MB/core and 4MB/core) on the multi-core
// improvement.
func Table7(o Options) (*Table7Result, error) {
	res := &Table7Result{
		Cores:       []int{2, 4, 8},
		Improvement: map[uint64]map[int]float64{},
	}
	sizes := []uint64{1 << 20, 2 << 20} // scaled analogues of 2MB/4MB per core
	var subs []*mixSweep
	for _, size := range sizes {
		for _, cores := range res.Cores {
			mixes := o.mixesFor(cores)
			if o.Quick {
				mixes = mixes[:2]
			}
			sub := o.newMixSweep("tab7", mixes)
			for _, mix := range mixes {
				for _, mech := range []config.Mechanism{config.Baseline, config.DBIAWBCLB} {
					c := o.multiCell("tab7", mech, mix.Name, mix.Benches)
					c.cfg.L3.SizeBytes = size * uint64(cores)
					c.key.Param = fmt.Sprintf("llc=%dKB/core", size>>10)
					sub.cells = append(sub.cells, c)
				}
			}
			subs = append(subs, sub)
		}
	}
	if err := o.runMixSweeps(subs); err != nil {
		return nil, err
	}
	for si, size := range sizes {
		res.Improvement[size] = map[int]float64{}
		for ci, cores := range res.Cores {
			sub := subs[si*len(res.Cores)+ci]
			var base, dbi []float64
			for i := range sub.mixes {
				base = append(base, weightedSpeedup(sub.rs[2*i], sub.alone))
				dbi = append(dbi, weightedSpeedup(sub.rs[2*i+1], sub.alone))
			}
			res.Improvement[size][cores] = stats.Mean(dbi)/stats.Mean(base) - 1
		}
	}
	w := o.out()
	fprintf(w, "\nTable 7: effect of cache size (DBI+AWB+CLB vs baseline WS)\n")
	fprintf(w, "%-14s", "LLC/core")
	for _, c := range res.Cores {
		fprintf(w, "%9d-core", c)
	}
	fprintf(w, "\n")
	for _, size := range sizes {
		fprintf(w, "%10dKB  ", size>>10)
		for _, c := range res.Cores {
			fprintf(w, "%+12.0f%%", 100*res.Improvement[size][c])
		}
		fprintf(w, "\n")
	}
	return res, nil
}
