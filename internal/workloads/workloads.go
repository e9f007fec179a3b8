// Package workloads generates the multiprogrammed workload mixes of the
// paper's multi-core evaluation (Section 5): benchmarks are classified
// into nine categories by read and write intensity (low/medium/high ×
// low/medium/high) and mixes are sampled so that every combination of
// read- and write-intensity pressure is represented. The paper evaluates
// 102 2-core, 259 4-core and 120 8-core mixes.
package workloads

import (
	"fmt"
	"math/rand"

	"dbisim/internal/trace"
)

// Mix is one multiprogrammed workload: one benchmark model per core.
type Mix struct {
	Name    string
	Benches []string
}

// Generate returns count deterministic mixes for the given core count.
// Each mix draws its benchmarks from intensity classes chosen to sweep
// read and write pressure, mirroring the paper's workload construction.
func Generate(cores, count int, seed int64) []Mix {
	rng := rand.New(rand.NewSource(seed))
	classes := nonEmptyClasses()
	mixes := make([]Mix, 0, count)
	for i := 0; i < count; i++ {
		benches := make([]string, cores)
		for c := 0; c < cores; c++ {
			// Cycle the class emphasis across mixes so low/medium/high
			// read and write intensities all appear.
			class := classes[(i+c*7+rng.Intn(len(classes)))%len(classes)]
			benches[c] = class[rng.Intn(len(class))]
		}
		mixes = append(mixes, Mix{
			Name:    fmt.Sprintf("%dcore-%03d", cores, i),
			Benches: benches,
		})
	}
	return mixes
}

// nonEmptyClasses lists the benchmark names of each populated
// read×write intensity class.
func nonEmptyClasses() [][]string {
	var out [][]string
	for _, r := range []trace.Intensity{trace.Low, trace.Medium, trace.High} {
		for _, w := range []trace.Intensity{trace.Low, trace.Medium, trace.High} {
			if names := trace.ByIntensity(r, w); len(names) > 0 {
				out = append(out, names)
			}
		}
	}
	return out
}

// Representative returns a small fixed set of mixes that spans the
// intensity space — the CI-scale stand-in for the full sweep. The mixes
// are hand-picked: write-heavy, read-heavy, mixed, and cache-friendly
// combinations.
func Representative(cores int) []Mix {
	pools := [][]string{
		{"lbm", "GemsFDTD", "stream", "milc"},         // write-heavy
		{"mcf", "libquantum", "soplex", "omnetpp"},    // read-heavy
		{"cactusADM", "leslie3d", "sphinx3", "milc"},  // medium
		{"bzip2", "astar", "bwaves", "sphinx3"},       // cache-friendly
		{"GemsFDTD", "libquantum", "lbm", "mcf"},      // contention case study
		{"stream", "bzip2", "omnetpp", "leslie3d"},    // mixed pressure
		{"milc", "soplex", "GemsFDTD", "astar"},       // write+read mix
		{"libquantum", "lbm", "sphinx3", "cactusADM"}, // bypass-friendly
	}
	var out []Mix
	for i, pool := range pools {
		benches := make([]string, cores)
		for c := 0; c < cores; c++ {
			benches[c] = pool[c%len(pool)]
		}
		out = append(out, Mix{
			Name:    fmt.Sprintf("%dcore-rep%d", cores, i),
			Benches: benches,
		})
	}
	return out
}
