package areamodel

import (
	"testing"

	"dbisim/internal/config"
)

func cache16MB() config.CacheParams {
	return config.CacheParams{
		SizeBytes: 16 << 20, Ways: 32,
		TagLatency: 14, DataLatency: 33,
	}
}

func dbiParams() config.DBIParams {
	return config.DBIParams{
		AlphaNum: 1, AlphaDen: 4, Granularity: 64,
		Associativity: 16, Latency: 4,
	}
}

func TestTagEntryBits(t *testing.T) {
	p := DefaultBits()
	c := cache16MB() // 8192 sets -> 13 set bits; 40-6-13 = 21 tag bits
	withDirty := p.TagEntryBits(c, true)
	withoutDirty := p.TagEntryBits(c, false)
	if withDirty-withoutDirty != 1 {
		t.Fatalf("dirty bit must cost exactly 1 bit: %d vs %d", withDirty, withoutDirty)
	}
	// tag 21 + valid 1 + dirty 1 + repl 5 = 28.
	if withDirty != 28 {
		t.Fatalf("tag entry bits = %d, want 28", withDirty)
	}
}

func TestECCOverheadFractions(t *testing.T) {
	p := DefaultBits()
	if p.SECDEDBitsPerBlock() != 64 {
		t.Fatalf("SECDED bits = %d, want 64 (12.5%% of 512)", p.SECDEDBitsPerBlock())
	}
	if p.ParityBitsPerBlock() != 8 {
		t.Fatalf("parity bits = %d, want 8 (~1.5%% of 512)", p.ParityBitsPerBlock())
	}
}

func TestTable4MatchesPaperShape(t *testing.T) {
	rows := Table4(DefaultBits(), cache16MB(), dbiParams())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	quarter, half := rows[0], rows[1]
	// Paper: without ECC the savings are tiny (2%/1% tag, ~0.1%/0 cache).
	if quarter.TagReduction < 0 || quarter.TagReduction > 0.10 {
		t.Fatalf("α=1/4 tag reduction (no ECC) = %v, want small positive", quarter.TagReduction)
	}
	if quarter.CacheReduction < 0 || quarter.CacheReduction > 0.01 {
		t.Fatalf("α=1/4 cache reduction (no ECC) = %v", quarter.CacheReduction)
	}
	// Paper with ECC: tag store -44%, cache -7% at α=1/4; -26%/-4% at 1/2.
	if quarter.TagReductionECC < 0.35 || quarter.TagReductionECC > 0.52 {
		t.Fatalf("α=1/4 tag reduction (ECC) = %v, want ≈0.44", quarter.TagReductionECC)
	}
	if quarter.CacheReductionECC < 0.05 || quarter.CacheReductionECC > 0.10 {
		t.Fatalf("α=1/4 cache reduction (ECC) = %v, want ≈0.07", quarter.CacheReductionECC)
	}
	if half.TagReductionECC < 0.18 || half.TagReductionECC > 0.34 {
		t.Fatalf("α=1/2 tag reduction (ECC) = %v, want ≈0.26", half.TagReductionECC)
	}
	if half.CacheReductionECC < 0.02 || half.CacheReductionECC > 0.06 {
		t.Fatalf("α=1/2 cache reduction (ECC) = %v, want ≈0.04", half.CacheReductionECC)
	}
	// More DBI (α=1/2) saves less area than α=1/4.
	if half.CacheReductionECC >= quarter.CacheReductionECC {
		t.Fatal("α=1/2 must save less than α=1/4")
	}
	if quarter.String() == "" || half.String() == "" {
		t.Fatal("empty row strings")
	}
}

func TestCacheAreaReduction(t *testing.T) {
	// Paper Section 6.3: ~8% area reduction for a 16MB cache at α=1/4.
	got := CacheAreaReduction(DefaultBits(), DefaultSRAM(), cache16MB(), dbiParams())
	if got < 0.05 || got > 0.11 {
		t.Fatalf("area reduction = %v, want ≈0.08", got)
	}
	// α=1/2 saves less (paper: 5%).
	d := dbiParams()
	d.AlphaDen = 2
	half := CacheAreaReduction(DefaultBits(), DefaultSRAM(), cache16MB(), d)
	if half >= got {
		t.Fatal("α=1/2 must save less area than α=1/4")
	}
	if half < 0.02 || half > 0.08 {
		t.Fatalf("α=1/2 area reduction = %v, want ≈0.05", half)
	}
}

func TestTable5PowerFractions(t *testing.T) {
	rows := Table5(DefaultBits(), DefaultSRAM(), dbiParams(), 3)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper Table 5: static 0.12–0.22%, dynamic 1–4%.
		if r.StaticFraction <= 0 || r.StaticFraction > 0.01 {
			t.Fatalf("%dMB static fraction = %v, want ≲0.3%%", r.CacheBytes>>20, r.StaticFraction)
		}
		if r.DynamicFraction <= 0 || r.DynamicFraction > 0.08 {
			t.Fatalf("%dMB dynamic fraction = %v, want a few %%", r.CacheBytes>>20, r.DynamicFraction)
		}
	}
	// With α fixed the DBI scales with the cache, so the fractions stay
	// in the same band across sizes (the paper's Table 5 wobbles within
	// 0.12-0.22% static, 1-4% dynamic).
	if rows[3].StaticFraction > 2*rows[0].StaticFraction {
		t.Fatal("static fraction should stay in one band across sizes")
	}
	// Degenerate access ratio falls back safely.
	if got := Table5(DefaultBits(), DefaultSRAM(), dbiParams(), 0); len(got) != 4 {
		t.Fatal("fallback ratio failed")
	}
}

func TestSRAMModelMonotonic(t *testing.T) {
	m := DefaultSRAM()
	if m.AreaMM2(2048) <= m.AreaMM2(1024) {
		t.Fatal("area not monotonic")
	}
	if m.StaticPowerMW(2048) <= m.StaticPowerMW(1024) {
		t.Fatal("static power not monotonic")
	}
	if m.DynamicEnergyPJ(4096) <= m.DynamicEnergyPJ(1024) {
		t.Fatal("dynamic energy not monotonic")
	}
	if m.DynamicEnergyPJ(0) != 0 {
		t.Fatal("zero bits must cost zero energy")
	}
}

func TestDRAMEnergyRowHitsSave(t *testing.T) {
	m := DefaultDRAMEnergy()
	allMiss := m.EnergyFromCounts(1000, 1000, 0)
	allHit := m.EnergyFromCounts(100, 1000, 0)
	if allHit >= allMiss {
		t.Fatal("row hits must save DRAM energy")
	}
	saving := 1 - allHit/allMiss
	if saving < 0.3 {
		t.Fatalf("saving = %v, activates must dominate", saving)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(100, 90); got < 0.0999 || got > 0.1001 {
		t.Fatalf("Reduction = %v, want 0.1", got)
	}
	if Reduction(0, 10) != 0 {
		t.Fatal("zero base must give 0")
	}
}

func TestDBIEntryBits(t *testing.T) {
	p := DefaultBits()
	d := dbiParams()
	bits := p.DBIEntryBits(d, 1024)
	// valid(1) + tag + 64-bit vector; tag for 2^28 regions, 64 sets.
	if bits < 64+1+10 || bits > 64+1+40 {
		t.Fatalf("DBI entry bits = %d", bits)
	}
	// Finer granularity -> more entries but smaller vectors.
	d.Granularity = 16
	if got := p.DBIEntryBits(d, 1024); got >= bits {
		t.Fatalf("granularity 16 entry (%d bits) not smaller than 64 (%d)", got, bits)
	}
}
