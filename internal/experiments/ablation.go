package experiments

import (
	"fmt"

	"dbisim/internal/config"
	"dbisim/internal/stats"
)

// AblationResult collects the design-choice sweeps DESIGN.md calls out:
// the memory controller's write-buffer depth (the FR-FCFS regrouping
// window), the drain-stop watermark, and the DBI associativity. Each
// sweep reports the write row hit rate and IPC of DBI+AWB on the
// write-sensitive benchmark subset.
type AblationResult struct {
	WriteBufferEntries []int
	WBufWriteRHR       map[int]float64
	WBufIPC            map[int]float64

	DrainLow     []int
	DrainIPC     map[int]float64
	DrainStarted map[int]float64

	DBIAssoc    []int
	DBIAssocIPC map[int]float64
}

// Ablation sweeps the secondary design parameters to show which carry
// the mechanism and which are second-order.
func Ablation(o Options) (*AblationResult, error) {
	benches := table6Benches(o.Quick)
	res := &AblationResult{
		WriteBufferEntries: []int{16, 64, 256},
		WBufWriteRHR:       map[int]float64{},
		WBufIPC:            map[int]float64{},
		DrainLow:           []int{0, 16, 48},
		DrainIPC:           map[int]float64{},
		DrainStarted:       map[int]float64{},
		DBIAssoc:           []int{4, 8, 16},
		DBIAssocIPC:        map[int]float64{},
	}

	// Each parameter family is one sweep: every (value, benchmark) pair
	// is an independent cell, so a whole family fans out at once.
	family := func(params []int, param string, mut func(*config.SystemConfig, int)) (ipc, wrhr, drains map[int]float64, err error) {
		var cells []simCell
		for _, p := range params {
			for _, b := range benches {
				c := o.singleCell("ablation", config.DBIAWB, b)
				mut(&c.cfg, p)
				c.key.Param = fmt.Sprintf("%s=%d", param, p)
				cells = append(cells, c)
			}
		}
		rs, err := o.runCells(cells)
		if err != nil {
			return nil, nil, nil, err
		}
		ipc, wrhr, drains = map[int]float64{}, map[int]float64{}, map[int]float64{}
		i := 0
		for _, p := range params {
			var ipcs, rhrs, drs []float64
			for range benches {
				ipcs = append(ipcs, rs[i].PerCore[0].IPC)
				rhrs = append(rhrs, rs[i].WriteRowHitRate)
				drs = append(drs, float64(rs[i].DrainsStarted))
				i++
			}
			ipc[p], wrhr[p], drains[p] = stats.GeoMean(ipcs), stats.Mean(rhrs), stats.Mean(drs)
		}
		return ipc, wrhr, drains, nil
	}

	var err error
	if res.WBufIPC, res.WBufWriteRHR, _, err = family(res.WriteBufferEntries, "wbuf",
		func(c *config.SystemConfig, n int) {
			c.DRAM.WriteBufferEntries = n
			if c.DRAM.WriteDrainLow >= n {
				c.DRAM.WriteDrainLow = n / 4
			}
		}); err != nil {
		return nil, err
	}
	if res.DrainIPC, _, res.DrainStarted, err = family(res.DrainLow, "drainlow",
		func(c *config.SystemConfig, low int) {
			c.DRAM.WriteDrainLow = low
		}); err != nil {
		return nil, err
	}
	if res.DBIAssocIPC, _, _, err = family(res.DBIAssoc, "assoc",
		func(c *config.SystemConfig, assoc int) {
			c.DBI.Associativity = assoc
		}); err != nil {
		return nil, err
	}

	w := o.out()
	fprintf(w, "\nAblations (DBI+AWB on the write-sensitive subset)\n")
	fprintf(w, "write buffer entries:")
	for _, n := range res.WriteBufferEntries {
		fprintf(w, "  %d: IPC %.4f, wRHR %.3f", n, res.WBufIPC[n], res.WBufWriteRHR[n])
	}
	fprintf(w, "\ndrain-stop watermark:")
	for _, l := range res.DrainLow {
		fprintf(w, "  %d: IPC %.4f (%.0f drains)", l, res.DrainIPC[l], res.DrainStarted[l])
	}
	fprintf(w, "\nDBI associativity:")
	for _, a := range res.DBIAssoc {
		fprintf(w, "  %d: IPC %.4f", a, res.DBIAssocIPC[a])
	}
	fprintf(w, "\n")
	return res, nil
}
