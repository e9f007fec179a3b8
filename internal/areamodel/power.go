package areamodel

import (
	"math"

	"dbisim/internal/config"
)

// SRAMModel is the analytical stand-in for CACTI: area scales with bit
// count plus a periphery term, static power scales with bits, and
// per-access dynamic energy grows with the square root of the array size
// (bitline/wordline scaling).
type SRAMModel struct {
	// CellAreaUM2 is the SRAM cell area in µm² (22nm-class 6T cell).
	CellAreaUM2 float64
	// PeripheryFactor inflates area for decoders/sense amps.
	PeripheryFactor float64
	// LeakagePWPerBit is static power per bit in pW.
	LeakagePWPerBit float64
	// DynamicPJBase is the per-access energy in pJ of a 1Kb array.
	DynamicPJBase float64
}

// DefaultSRAM returns a 22nm-class model.
func DefaultSRAM() SRAMModel {
	return SRAMModel{
		CellAreaUM2:     0.1,
		PeripheryFactor: 1.25,
		LeakagePWPerBit: 15,
		DynamicPJBase:   0.8,
	}
}

// AreaMM2 returns the array area in mm².
func (m SRAMModel) AreaMM2(bits uint64) float64 {
	return float64(bits) * m.CellAreaUM2 * m.PeripheryFactor / 1e6
}

// StaticPowerMW returns leakage power in mW.
func (m SRAMModel) StaticPowerMW(bits uint64) float64 {
	return float64(bits) * m.LeakagePWPerBit / 1e9
}

// DynamicEnergyPJ returns per-access energy in pJ for an array of the
// given size.
func (m SRAMModel) DynamicEnergyPJ(bits uint64) float64 {
	if bits == 0 {
		return 0
	}
	return m.DynamicPJBase * math.Sqrt(float64(bits)/1024)
}

// CacheAreaReduction computes the overall cache area reduction of the
// DBI organization (with ECC) for a cache geometry — the Section 6.3
// "8% for α=1/4 at 16MB" result.
func CacheAreaReduction(p BitParams, m SRAMModel, c config.CacheParams, d config.DBIParams) float64 {
	conv := p.Conventional(c, true)
	dbi := p.WithDBI(c, d, true)
	convArea := m.AreaMM2(conv.TotalBits())
	dbiArea := m.AreaMM2(dbi.TotalBits())
	if convArea == 0 {
		return 0
	}
	return 1 - dbiArea/convArea
}

// Table5Row reports the DBI's static and dynamic power as a fraction of
// total cache power for one cache size.
type Table5Row struct {
	CacheBytes      uint64
	StaticFraction  float64
	DynamicFraction float64
}

// Table5 reproduces the paper's Table 5: DBI power consumption as a
// fraction of cache power for 2–16MB caches. accessesPerDBIAccess is the
// ratio of cache accesses to DBI accesses observed in simulation (the
// DBI is consulted on writebacks and evictions, a fraction of all cache
// accesses).
func Table5(p BitParams, m SRAMModel, d config.DBIParams, cacheAccessPerDBIAccess float64) []Table5Row {
	if cacheAccessPerDBIAccess <= 0 {
		cacheAccessPerDBIAccess = 3
	}
	// Small arrays are less dense and leak more per bit than a megabyte
	// array (CACTI's periphery overhead); the DBI pays this factor.
	const smallArrayFactor = 2.5
	var out []Table5Row
	for _, size := range []uint64{2 << 20, 4 << 20, 8 << 20, 16 << 20} {
		c := config.CacheParams{
			SizeBytes: size, Ways: 16,
			TagLatency: 10, DataLatency: 24,
		}
		conv := p.Conventional(c, true)
		entries := uint64(d.Entries(c.Blocks()))
		dbiBits := entries * uint64(p.DBIEntryBits(d, int(entries)))

		cacheStatic := m.StaticPowerMW(conv.TotalBits())
		dbiStatic := m.StaticPowerMW(dbiBits) * smallArrayFactor

		cacheDyn := m.DynamicEnergyPJ(conv.TotalBits())
		dbiDyn := m.DynamicEnergyPJ(dbiBits) * smallArrayFactor / cacheAccessPerDBIAccess

		out = append(out, Table5Row{
			CacheBytes:      size,
			StaticFraction:  dbiStatic / (cacheStatic + dbiStatic),
			DynamicFraction: dbiDyn / (cacheDyn + dbiDyn),
		})
	}
	return out
}

// DRAMEnergyModel holds per-command energies for a DDR3-1066 device
// (Micron-power-calculator-class constants).
type DRAMEnergyModel struct {
	ActivatePJ   float64 // one ACT+PRE pair
	ReadBurstPJ  float64 // one 64B read burst
	WriteBurstPJ float64 // one 64B write burst
}

// DefaultDRAMEnergy returns DDR3-1066-class energies.
func DefaultDRAMEnergy() DRAMEnergyModel {
	return DRAMEnergyModel{
		ActivatePJ:   15000,
		ReadBurstPJ:  5200,
		WriteBurstPJ: 5200,
	}
}

// EnergyFromCounts totals DRAM energy from command counts (the
// measured-window deltas a system run reports). Row hits skip the
// activate energy — the source of the paper's 14% single-core
// memory-energy reduction.
func (m DRAMEnergyModel) EnergyFromCounts(activates, reads, writes uint64) float64 {
	return float64(activates)*m.ActivatePJ +
		float64(reads)*m.ReadBurstPJ +
		float64(writes)*m.WriteBurstPJ
}
