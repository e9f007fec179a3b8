package experiments

import (
	"fmt"

	"dbisim/internal/config"
	"dbisim/internal/stats"
	"dbisim/internal/system"
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
func Ablation(o Options) (*AblationResult, error) { return runOne(o, "ablation", planAblation) }

func planAblation(p *plan) func() (*AblationResult, error) {
	benches := table6Benches(p.o.Quick)

	// The three parameter families are independent (value, benchmark)
	// cells. Each family's default value (wbuf=64, drainlow=16,
	// assoc=8) leaves config.Scaled's machine unchanged, so those cells
	// repeat one another and are simulated once.
	type family struct {
		param             string
		values            []int
		mut               func(*config.SystemConfig, int)
		rs                [][]*system.Results // [value][benchmark]
		ipc, wrhr, drains map[int]float64
	}
	families := []*family{
		{param: "wbuf", values: []int{16, 64, 256}, mut: func(c *config.SystemConfig, n int) {
			c.DRAM.WriteBufferEntries = n
			if c.DRAM.WriteDrainLow >= n {
				c.DRAM.WriteDrainLow = n / 4
			}
		}},
		{param: "drainlow", values: []int{0, 16, 48}, mut: func(c *config.SystemConfig, low int) {
			c.DRAM.WriteDrainLow = low
		}},
		{param: "assoc", values: []int{4, 8, 16}, mut: func(c *config.SystemConfig, assoc int) {
			c.DBI.Associativity = assoc
		}},
	}
	for _, f := range families {
		f.rs = make([][]*system.Results, len(f.values))
		for i, v := range f.values {
			for _, b := range benches {
				c := p.o.singleCell("ablation", config.DBIAWB, b)
				f.mut(&c.cfg, v)
				c.key.Param = fmt.Sprintf("%s=%d", f.param, v)
				f.rs[i] = append(f.rs[i], p.add(c))
			}
		}
	}
	return func() (*AblationResult, error) {
		for _, f := range families {
			f.ipc, f.wrhr, f.drains = map[int]float64{}, map[int]float64{}, map[int]float64{}
			for i, v := range f.values {
				var ipcs, rhrs, drs []float64
				for _, r := range f.rs[i] {
					ipcs = append(ipcs, r.PerCore[0].IPC)
					rhrs = append(rhrs, r.WriteRowHitRate)
					drs = append(drs, float64(r.DrainsStarted))
				}
				f.ipc[v], f.wrhr[v], f.drains[v] = stats.GeoMean(ipcs), stats.Mean(rhrs), stats.Mean(drs)
			}
		}
		wbuf, drain, assoc := families[0], families[1], families[2]
		res := &AblationResult{
			WriteBufferEntries: wbuf.values, WBufWriteRHR: wbuf.wrhr, WBufIPC: wbuf.ipc,
			DrainLow: drain.values, DrainIPC: drain.ipc, DrainStarted: drain.drains,
			DBIAssoc: assoc.values, DBIAssocIPC: assoc.ipc,
		}

		w := p.o.out()
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
}
