package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// promName mangles a registry metric name ("fork.ckpt_hits") into the
// Prometheus namespace ("dbi_fork_ckpt_hits"): the dbi_ prefix, dots to
// underscores, and any other illegal rune to an underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("dbi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the way Prometheus expects: shortest
// round-trip decimal, with NaN/Inf spelled out.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// helpPrefixes maps registry-name prefixes (pre-mangling, longest match
// wins) to the HELP text for that metric family. Families, not
// individual metrics: the registry's names are already self-describing,
// HELP says which subsystem owns them and in what units.
var helpPrefixes = []struct{ prefix, help string }{
	{"attr.domain.", "Attribution domain total (cycles or bytes) summed over measure windows"},
	{"attr.", "Attribution category charge summed over measure windows"},
	{"llc.port.", "Shared LLC tag-store port contention"},
	{"llc.", "Shared last-level cache activity"},
	{"dbi.", "Dirty-Block Index structure activity"},
	{"dram.", "DRAM controller command and queue activity"},
	{"cpu", "Per-core pipeline activity (simulated)"},
	{"fork.", "Sweep cells reused from a repeated cell's result"},
	{"pool.", "Simulator machine pool activity"},
	{"proc.", "Host process runtime state"},
	{"self.", "Simulator self-throughput on the host"},
	{"sweep.", "Sweep scheduler progress"},
}

// helpFor returns the HELP line text for a registry metric name.
func helpFor(name string) string {
	for _, e := range helpPrefixes {
		if strings.HasPrefix(name, e.prefix) {
			return e.help
		}
	}
	return "Simulator metric " + name
}

// WritePrometheus renders every probe in reg in the Prometheus text
// exposition format (version 0.0.4): every family gets # HELP and
// # TYPE lines, counters gain the _total suffix, histograms export
// cumulative le-labeled buckets (bucket index i holds samples with
// value exactly i, the final bucket is the clamp-overflow, rendered
// only as +Inf) plus _sum and _count.
//
// The registry's probes are read live with no locking — see the
// concurrency caveat on Registry.EachScalar. Returns the first write
// error, if any.
func WritePrometheus(w io.Writer, reg *telemetry.Registry) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	reg.EachScalar(func(name, kind string, v float64) {
		pn := promName(name)
		if kind == telemetry.KindCounter {
			pn += "_total"
		}
		pf("# HELP %s %s\n# TYPE %s %s\n%s %s\n", pn, helpFor(name), pn, kind, pn, promFloat(v))
	})
	reg.EachHistogram(func(name string, h *stats.Histogram) {
		pn := promName(name)
		pf("# HELP %s %s\n# TYPE %s histogram\n", pn, helpFor(name), pn)
		buckets := h.Buckets()
		var cum uint64
		for i, c := range buckets {
			cum += c
			if i == len(buckets)-1 {
				// The clamp bucket holds everything >= its index; its
				// exact value is unknowable, so it only closes +Inf.
				pf("%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
				break
			}
			pf("%s_bucket{le=\"%d\"} %d\n", pn, i, cum)
		}
		pf("%s_sum %d\n%s_count %d\n", pn, h.Sum(), pn, h.Count())
	})
	return err
}
