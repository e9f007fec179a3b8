package trace

import (
	"fmt"
	"sort"
)

// profiles models the 14 benchmarks shown in Figure 6 of the paper
// (SPEC CPU2006 subset plus STREAM), in the paper's x-axis order
// (increasing baseline IPC). The parameters are tuned so the simulated
// memory behaviour matches the per-benchmark statistics the paper
// reports: footprints larger than the 2MB single-core LLC for the
// memory-bound group, streaming-write-heavy mixes for lbm/GemsFDTD/
// stream/milc, a near-1.0 LLC miss rate for libquantum (the CLB bypass
// case), and small footprints for the IPC>0.9 tail.
var profiles = []Profile{
	{
		Name: "mcf", FootprintBytes: 8 << 20, MemFraction: 0.40,
		StoreFraction: 0.22, SeqWeight: 0.05, StrideWeight: 0.05, RandWeight: 0.90,
		StrideBlocks: 4, SeqRepeat: 4, HotFraction: 0.01, HotAccessFraction: 0.35, StoreHotBias: 0.6,
		ReadIntensity: High, WriteIntensity: Medium,
	},
	{
		Name: "lbm", FootprintBytes: 8 << 20, MemFraction: 0.30,
		StoreFraction: 0.45, SeqWeight: 0.90, StrideWeight: 0.05, RandWeight: 0.05,
		StrideBlocks: 2, SeqRepeat: 8, HotFraction: 0.02, HotAccessFraction: 0.5, StoreHotBias: 0,
		ReadIntensity: High, WriteIntensity: High,
	},
	{
		Name: "GemsFDTD", FootprintBytes: 6 << 20, MemFraction: 0.28,
		StoreFraction: 0.38, SeqWeight: 0.75, StrideWeight: 0.15, RandWeight: 0.1,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.03, HotAccessFraction: 0.4, StoreHotBias: 0.1,
		ReadIntensity: High, WriteIntensity: High,
	},
	{
		Name: "soplex", FootprintBytes: 4 << 20, MemFraction: 0.30,
		StoreFraction: 0.25, SeqWeight: 0.35, StrideWeight: 0.25, RandWeight: 0.40,
		StrideBlocks: 4, SeqRepeat: 6, HotFraction: 0.02, HotAccessFraction: 0.5, StoreHotBias: 0.6,
		ReadIntensity: High, WriteIntensity: Medium,
	},
	{
		Name: "omnetpp", FootprintBytes: 4 << 20, MemFraction: 0.30,
		StoreFraction: 0.32, SeqWeight: 0.10, StrideWeight: 0.10, RandWeight: 0.80,
		StrideBlocks: 4, SeqRepeat: 4, HotFraction: 0.02, HotAccessFraction: 0.55, StoreHotBias: 0.7,
		ReadIntensity: Medium, WriteIntensity: Medium,
	},
	{
		Name: "cactusADM", FootprintBytes: 4 << 20, MemFraction: 0.24,
		StoreFraction: 0.35, SeqWeight: 0.6, StrideWeight: 0.25, RandWeight: 0.15,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.02, HotAccessFraction: 0.45, StoreHotBias: 0.2,
		ReadIntensity: Medium, WriteIntensity: Medium,
	},
	{
		Name: "stream", FootprintBytes: 8 << 20, MemFraction: 0.38,
		StoreFraction: 0.33, SeqWeight: 0.95, StrideWeight: 0.03, RandWeight: 0.02,
		StrideBlocks: 2, SeqRepeat: 6, HotFraction: 0.01, HotAccessFraction: 0.1, StoreHotBias: 0,
		ReadIntensity: High, WriteIntensity: High,
	},
	{
		Name: "leslie3d", FootprintBytes: 3 << 20, MemFraction: 0.25,
		StoreFraction: 0.30, SeqWeight: 0.6, StrideWeight: 0.25, RandWeight: 0.15,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.03, HotAccessFraction: 0.5, StoreHotBias: 0.2,
		ReadIntensity: Medium, WriteIntensity: Medium,
	},
	{
		Name: "milc", FootprintBytes: 4 << 20, MemFraction: 0.22,
		StoreFraction: 0.38, SeqWeight: 0.55, StrideWeight: 0.15, RandWeight: 0.3,
		StrideBlocks: 4, SeqRepeat: 6, HotFraction: 0.02, HotAccessFraction: 0.4, StoreHotBias: 0.2,
		ReadIntensity: Medium, WriteIntensity: High,
	},
	{
		Name: "sphinx3", FootprintBytes: 2 << 20, MemFraction: 0.24,
		StoreFraction: 0.10, SeqWeight: 0.5, StrideWeight: 0.2, RandWeight: 0.3,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.04, HotAccessFraction: 0.65, StoreHotBias: 0.9,
		ReadIntensity: Medium, WriteIntensity: Low,
	},
	{
		Name: "libquantum", FootprintBytes: 12 << 20, MemFraction: 0.22,
		StoreFraction: 0.15, SeqWeight: 0.97, StrideWeight: 0.02, RandWeight: 0.01,
		StrideBlocks: 2, SeqRepeat: 8, HotFraction: 0.01, HotAccessFraction: 0.05, StoreHotBias: 0,
		ReadIntensity: High, WriteIntensity: Low,
	},
	{
		Name: "bzip2", FootprintBytes: 768 << 10, MemFraction: 0.25,
		StoreFraction: 0.25, SeqWeight: 0.40, StrideWeight: 0.20, RandWeight: 0.40,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.06, HotAccessFraction: 0.85, StoreHotBias: 0.97,
		ReadIntensity: Low, WriteIntensity: Low,
	},
	{
		Name: "astar", FootprintBytes: 768 << 10, MemFraction: 0.28,
		StoreFraction: 0.20, SeqWeight: 0.15, StrideWeight: 0.15, RandWeight: 0.70,
		StrideBlocks: 4, SeqRepeat: 6, HotFraction: 0.06, HotAccessFraction: 0.85, StoreHotBias: 0.97,
		ReadIntensity: Low, WriteIntensity: Low,
	},
	{
		Name: "bwaves", FootprintBytes: 768 << 10, MemFraction: 0.22,
		StoreFraction: 0.15, SeqWeight: 0.65, StrideWeight: 0.2, RandWeight: 0.15,
		StrideBlocks: 4, SeqRepeat: 8, HotFraction: 0.06, HotAccessFraction: 0.85, StoreHotBias: 0.97,
		ReadIntensity: Low, WriteIntensity: Low,
	},
}

// Benchmarks returns the names of all benchmark models in the paper's
// Figure-6 order.
func Benchmarks() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// ByName returns the profile for a benchmark model.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// ByIntensity returns the benchmarks in the given read×write intensity
// class, sorted by name. The paper's workload generator draws from these
// nine classes.
func ByIntensity(read, write Intensity) []string {
	var names []string
	for _, p := range profiles {
		if p.ReadIntensity == read && p.WriteIntensity == write {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	return names
}
