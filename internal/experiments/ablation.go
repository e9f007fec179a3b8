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
		DrainLow:           []int{0, 16, 48},
		DBIAssoc:           []int{4, 8, 16},
	}

	// The three parameter families are one sweep of independent
	// (value, benchmark) cells. Each family's default value (wbuf=64,
	// drainlow=16, assoc=8) leaves config.Scaled's machine unchanged,
	// so those cells repeat one another and are simulated once.
	type family struct {
		param             string
		values            []int
		mut               func(*config.SystemConfig, int)
		ipc, wrhr, drains map[int]float64
	}
	families := []*family{
		{param: "wbuf", values: res.WriteBufferEntries, mut: func(c *config.SystemConfig, n int) {
			c.DRAM.WriteBufferEntries = n
			if c.DRAM.WriteDrainLow >= n {
				c.DRAM.WriteDrainLow = n / 4
			}
		}},
		{param: "drainlow", values: res.DrainLow, mut: func(c *config.SystemConfig, low int) {
			c.DRAM.WriteDrainLow = low
		}},
		{param: "assoc", values: res.DBIAssoc, mut: func(c *config.SystemConfig, assoc int) {
			c.DBI.Associativity = assoc
		}},
	}
	var cells []simCell
	for _, f := range families {
		for _, p := range f.values {
			for _, b := range benches {
				c := o.singleCell("ablation", config.DBIAWB, b)
				f.mut(&c.cfg, p)
				c.key.Param = fmt.Sprintf("%s=%d", f.param, p)
				cells = append(cells, c)
			}
		}
	}
	rs, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, f := range families {
		f.ipc, f.wrhr, f.drains = map[int]float64{}, map[int]float64{}, map[int]float64{}
		for _, p := range f.values {
			var ipcs, rhrs, drs []float64
			for _, r := range rs[:len(benches)] {
				ipcs = append(ipcs, r.PerCore[0].IPC)
				rhrs = append(rhrs, r.WriteRowHitRate)
				drs = append(drs, float64(r.DrainsStarted))
			}
			rs = rs[len(benches):]
			f.ipc[p], f.wrhr[p], f.drains[p] = stats.GeoMean(ipcs), stats.Mean(rhrs), stats.Mean(drs)
		}
	}
	wbuf, drain, assoc := families[0], families[1], families[2]
	res.WBufIPC, res.WBufWriteRHR = wbuf.ipc, wbuf.wrhr
	res.DrainIPC, res.DrainStarted = drain.ipc, drain.drains
	res.DBIAssocIPC = assoc.ipc

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
