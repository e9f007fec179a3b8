package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64)        { p.b = binary.AppendUvarint(p.b, v) }
func (p *pb) key(num, wire int)      { p.varint(uint64(num<<3 | wire)) }
func (p *pb) uint(num int, v uint64) { p.key(num, 0); p.varint(v) }
func (p *pb) msg(num int, b []byte) {
	p.key(num, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}
func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.msg(num, q.b)
}

// synthProfile builds a gzipped CPU profile. Each sample is a list of
// locations, leaf first; each location is a list of function names,
// innermost (inlined) first. Every sample costs ns nanoseconds of CPU.
type synthSample struct {
	locs [][]string
	ns   uint64
}

func synthProfile(t *testing.T, samples []synthSample) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var q pb
		q.uint(1, str(vt[0]))
		q.uint(2, str(vt[1]))
		p.msg(1, q.b)
	}
	funcID := map[string]uint64{}
	var funcs, locs pb
	nextLoc := uint64(1)
	for _, s := range samples {
		var ids []uint64
		for _, loc := range s.locs {
			var l pb
			l.uint(1, nextLoc)
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pb
					f.uint(1, id)
					f.uint(2, str(fn))
					funcs.msg(5, f.b)
				}
				var line pb
				line.uint(1, id)
				line.uint(2, 42)
				l.msg(4, line.b)
			}
			locs.msg(4, l.b)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var q pb
		q.packed(1, ids...)
		q.packed(2, 1, s.ns)
		p.msg(2, q.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, funcs.b...)
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	p.uint(12, 10_000_000) // period
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frames(names ...string) [][]string {
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = []string{n}
	}
	return out
}

// TestChargeRule pins the charging rule: setup entry points anywhere on
// the stack win; otherwise the innermost repository frame's package
// decides; a stack without repository frames is runtime.
func TestChargeRule(t *testing.T) {
	const ms = 1_000_000
	cases := []struct {
		name  string
		locs  [][]string
		ns    uint64
		layer string
	}{
		{"innermost repo frame under a runtime leaf", frames(
			"runtime.mallocgc",
			"dbisim/internal/replacement.(*lruState).rank",
			"dbisim/internal/cache.DirtyInLowRanks",
			"dbisim/internal/llc.(*LLC).harvestVWQ",
			"dbisim/internal/system.(*System).Run",
		), 10 * ms, "replacement"},
		{"restore beats the leaf package", frames(
			"dbisim/internal/cache.(*Cache).find",
			"dbisim/internal/system.(*System).Restore",
			"dbisim/internal/system.(*ForkPool).Run",
		), 20 * ms, setupLayer},
		{"closure of New", frames(
			"runtime.memclrNoHeapPointers",
			"dbisim/internal/system.New.func2",
			"dbisim/internal/system.New",
		), 30 * ms, setupLayer},
		{"Reset", frames(
			"dbisim/internal/dram.(*Controller).Reset",
			"dbisim/internal/system.(*System).Reset",
		), 5 * ms, setupLayer},
		{"Snapshot", frames(
			"runtime.memmove",
			"dbisim/internal/system.(*System).Snapshot",
		), 5 * ms, setupLayer},
		{"name that only starts like New", frames(
			"dbisim/internal/system.NewForkPool",
		), 1 * ms, "other"},
		{"no repository frame", frames(
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		), 40 * ms, "runtime"},
		{"generic instantiation in an unlisted package", frames(
			"dbisim/internal/sweep.RunState[go.shape.struct { dbisim/internal/system.x int }].func1",
			"runtime.goexit",
		), 2 * ms, "other"},
		{"internal/dbi is dbi, pkg/dbi is other", frames(
			"dbisim/internal/dbi.(*DBI).SetDirtyInto",
			"dbisim/pkg/dbi.(*Sharded).SetDirtyBatch",
		), 7 * ms, "dbi"},
		{"pkg/dbi leaf", frames(
			"dbisim/pkg/dbi.(*Sharded).IsDirtyBatch",
			"dbisim/internal/dbiserve.(*Server).keysOp",
		), 3 * ms, "other"},
		{"inlined frames, innermost first", [][]string{
			{"dbisim/internal/dram.(*Controller).kick", "dbisim/internal/event.(*Engine).Run"},
			{"dbisim/internal/system.(*System).Run"},
		}, 11 * ms, "dram"},
	}
	var samples []synthSample
	want := map[string]float64{}
	total := 0.0
	for _, c := range cases {
		samples = append(samples, synthSample{locs: c.locs, ns: c.ns})
		want[c.layer] += float64(c.ns) / 1e9
		total += float64(c.ns) / 1e9

		var stack []string
		for _, l := range c.locs {
			stack = append(stack, l...)
		}
		if got := chargeLayer(stack); got != c.layer {
			t.Errorf("%s: charged to %s, want %s", c.name, got, c.layer)
		}
	}
	lt, err := foldCPUProfile(synthProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	if lt.samples != len(cases) { // one interrupt per synthetic sample
		t.Errorf("folded %d samples, want %d", lt.samples, len(cases))
	}
	if math.Abs(lt.total-total) > 1e-12 {
		t.Errorf("total %.9f s, want %.9f s", lt.total, total)
	}
	sum := 0.0
	for layer, sec := range lt.seconds {
		sum += sec
		if math.Abs(sec-want[layer]) > 1e-12 {
			t.Errorf("layer %s: %.9f s, want %.9f s", layer, sec, want[layer])
		}
	}
	if math.Abs(sum-lt.total) > 1e-12 {
		t.Errorf("layers sum to %.9f s, profile holds %.9f s", sum, lt.total)
	}
	for layer := range want {
		if _, ok := lt.seconds[layer]; !ok {
			t.Errorf("layer %s missing", layer)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"dbisim/internal/llc.(*LLC).harvestVWQ":                   "dbisim/internal/llc",
		"dbisim/internal/sweep.RunState[go.shape.int].func1":      "dbisim/internal/sweep",
		"dbisim/internal/system.New":                              "dbisim/internal/system",
		"runtime.mallocgc":                                        "runtime",
		"main.main":                                               "main",
		"dbisim/internal/sweep.Run[dbisim/internal/system.X].f.1": "dbisim/internal/sweep",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldRealProfile checks the reader against the runtime's own
// encoder.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	lt, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range lt.seconds {
		sum += s
	}
	if math.Abs(sum-lt.total) > 1e-9 || lt.samples == 0 || x == 0 {
		t.Errorf("folded %d samples, %.3f s of %.3f s", lt.samples, sum, lt.total)
	}
}

// TestMetricTables keeps the program's metric tables and BENCHMARK.json
// in step.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, all []metricDef, got []struct{ Name, Unit string }) {
		var defs []metricDef
		for _, d := range all {
			if !d.ungated {
				defs = append(defs, d)
			}
		}
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	have := map[string]bool{}
	for _, n := range workloadNames() {
		have[n] = true
	}
	for _, w := range doc.Workloads {
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
		delete(have, w.Name)
	}
	for n := range have {
		t.Errorf("workload %s is missing from BENCHMARK.json", n)
	}
}
