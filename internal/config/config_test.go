package config

import "testing"

func TestMechanismStrings(t *testing.T) {
	want := map[Mechanism]string{
		Baseline:  "Baseline",
		TADIP:     "TA-DIP",
		DAWB:      "DAWB",
		VWQ:       "VWQ",
		SkipCache: "SkipCache",
		DBI:       "DBI",
		DBIAWB:    "DBI+AWB",
		DBICLB:    "DBI+CLB",
		DBIAWBCLB: "DBI+AWB+CLB",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mechanism(99).String() != "Mechanism(99)" {
		t.Error("unknown mechanism string")
	}
}

func TestMechanismFlags(t *testing.T) {
	cases := []struct {
		m             Mechanism
		dbi, awb, clb bool
	}{
		{Baseline, false, false, false},
		{TADIP, false, false, false},
		{DAWB, false, false, false},
		{VWQ, false, false, false},
		{SkipCache, false, false, false},
		{DBI, true, false, false},
		{DBIAWB, true, true, false},
		{DBICLB, true, false, true},
		{DBIAWBCLB, true, true, true},
	}
	for _, c := range cases {
		if c.m.UsesDBI() != c.dbi || c.m.HasAWB() != c.awb || c.m.HasCLB() != c.clb {
			t.Errorf("%v flags = (%v,%v,%v), want (%v,%v,%v)", c.m,
				c.m.UsesDBI(), c.m.HasAWB(), c.m.HasCLB(), c.dbi, c.awb, c.clb)
		}
	}
	if len(AllMechanisms()) != 9 {
		t.Errorf("AllMechanisms length %d, want 9", len(AllMechanisms()))
	}
}

func TestCacheParamsGeometry(t *testing.T) {
	p := CacheParams{SizeBytes: 2 << 20, Ways: 16,
		TagLatency: 10, DataLatency: 24}
	if p.Sets() != 2048 {
		t.Fatalf("Sets = %d, want 2048", p.Sets())
	}
	if p.Blocks() != 32768 {
		t.Fatalf("Blocks = %d, want 32768", p.Blocks())
	}
	if p.AccessLatency() != 24 {
		t.Fatalf("AccessLatency = %d, want 24 (data array is the slower)", p.AccessLatency())
	}
	p.TagLatency = 30
	if p.AccessLatency() != 30 {
		t.Fatalf("AccessLatency = %d, want 30 (tag array is the slower)", p.AccessLatency())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestCacheParamsValidate(t *testing.T) {
	bad := []CacheParams{
		{SizeBytes: 1 << 20, Ways: 0},
		{SizeBytes: 1000, Ways: 8},
		{SizeBytes: 3 * 64 * 8 * 4, Ways: 8}, // 3 sets: not pow2
		{SizeBytes: 2 * 128 * 64, Ways: 128}, // 128 ways: above MaxWays
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDBIEntries(t *testing.T) {
	d := DBIParams{AlphaNum: 1, AlphaDen: 4, Granularity: 64, Associativity: 16, BIPEpsilonDen: 64}
	// 2MB cache, 64B blocks -> 32768 blocks; α=1/4 -> 8192 tracked;
	// granularity 64 -> 128 entries.
	if got := d.Entries(32768); got != 128 {
		t.Fatalf("Entries = %d, want 128", got)
	}
	// Tiny cache: floor at associativity.
	if got := d.Entries(64); got != 16 {
		t.Fatalf("Entries floor = %d, want 16", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid DBI params rejected: %v", err)
	}
	for _, bad := range []DBIParams{
		{AlphaNum: 0, AlphaDen: 4, Granularity: 64, Associativity: 16, BIPEpsilonDen: 64},
		{AlphaNum: 1, AlphaDen: 4, Granularity: 48, Associativity: 16, BIPEpsilonDen: 64},
		{AlphaNum: 1, AlphaDen: 4, Granularity: 64, Associativity: 0, BIPEpsilonDen: 64},
		{AlphaNum: 1, AlphaDen: 4, Granularity: 64, Associativity: 16, BIPEpsilonDen: 0},
		{AlphaNum: 1, AlphaDen: 4, Granularity: 64, Associativity: 16, BIPEpsilonDen: 64, Replacement: DBIMinDirty + 1},
		{AlphaNum: 1, AlphaDen: 4, Granularity: 64, Associativity: 16, BIPEpsilonDen: 64, Replacement: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid DBI params accepted: %+v", bad)
		}
	}
}

// TestDRAMLatencies pins the preset's DDR3-1066 read latencies: a row
// hit costs tCAS plus the burst, a closed bank adds tRCD and a row
// conflict adds tRP on top.
func TestDRAMLatencies(t *testing.T) {
	d := Paper(1, TADIP).DRAM
	hit, closed, conflict := d.TCAS+d.TBurst, d.TRCD+d.TCAS+d.TBurst, d.TRP+d.TRCD+d.TCAS+d.TBurst
	if hit != 55 || closed != 90 || conflict != 125 {
		t.Fatalf("row hit/closed/conflict = %d/%d/%d, want 55/90/125", hit, closed, conflict)
	}
}

func TestPaperPresets(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		cfg := Paper(cores, DBIAWBCLB)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d-core preset invalid: %v", cores, err)
		}
		if got := cfg.L3.SizeBytes; got != uint64(cores)*(2<<20) {
			t.Fatalf("%d-core L3 size = %d", cores, got)
		}
	}
	// Table-1 LLC geometry: 16/32/32/32 ways, 10/12/13/14-cycle tags.
	ways := []int{16, 32, 32, 32}
	tags := []uint64{10, 12, 13, 14}
	for i, cores := range []int{1, 2, 4, 8} {
		cfg := Paper(cores, TADIP)
		if cfg.L3.Ways != ways[i] || cfg.L3.TagLatency != tags[i] {
			t.Fatalf("%d-core L3 geometry = %d ways, %d tag cycles",
				cores, cfg.L3.Ways, cfg.L3.TagLatency)
		}
	}
}

func TestBaselineUsesLRU(t *testing.T) {
	if Paper(1, Baseline).L3.Replacement != ReplLRU {
		t.Fatal("baseline preset must use LRU at L3")
	}
	if Paper(1, DAWB).L3.Replacement != ReplTADIP {
		t.Fatal("DAWB preset must use TA-DIP at L3")
	}
}

func TestSystemValidateCatchesBadParts(t *testing.T) {
	cfg := Paper(1, DBIAWB)
	cfg.DBI.Granularity = 48
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid DBI granularity accepted")
	}
	cfg = Paper(1, TADIP)
	cfg.DBI.Granularity = 48 // irrelevant without DBI
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DBI params validated for non-DBI mechanism: %v", err)
	}
	cfg = Paper(1, TADIP)
	cfg.NumCores = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = Paper(1, TADIP)
	cfg.DRAM.WriteDrainLow = 64
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad drain watermark accepted")
	}
	cfg = Paper(1, TADIP)
	cfg.Core.WindowSize = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestPaperWithL3PerCore(t *testing.T) {
	cfg := PaperWithL3PerCore(4, DBIAWBCLB, 4<<20)
	if cfg.L3.SizeBytes != 16<<20 {
		t.Fatalf("L3 size = %d, want 16MB", cfg.L3.SizeBytes)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplacementKindStrings(t *testing.T) {
	if ReplLRU.String() != "LRU" || ReplTADIP.String() != "TA-DIP" || ReplDRRIP.String() != "DRRIP" {
		t.Fatal("replacement kind strings wrong")
	}
	if DBILRW.String() != "LRW" || DBIMinDirty.String() != "Min-Dirty" {
		t.Fatal("DBI replacement strings wrong")
	}
}
