// Package config defines the typed configuration for every simulated
// component and provides the presets from Table 1 of the DBI paper
// (1/2/4/8-core systems with a three-level cache hierarchy and DDR3-1066
// DRAM).
package config

import "fmt"

// Mechanism selects the last-level cache organization under study.
// These are the nine mechanisms of Table 2 in the paper.
type Mechanism int

const (
	// Baseline is a plain LRU LLC.
	Baseline Mechanism = iota
	// TADIP is the thread-aware dynamic insertion policy LLC.
	TADIP
	// DAWB is TA-DIP plus DRAM-aware writeback (indiscriminate row-mate
	// tag lookups on dirty evictions).
	DAWB
	// VWQ is TA-DIP plus the Virtual Write Queue (Set State Vector over
	// the LRU ways).
	VWQ
	// SkipCache is the per-application lookup-bypass mechanism with a
	// write-through LLC.
	SkipCache
	// DBI is the plain Dirty-Block Index LLC without optimizations.
	DBI
	// DBIAWB adds aggressive DRAM-aware writeback to DBI.
	DBIAWB
	// DBICLB adds cache lookup bypass to DBI.
	DBICLB
	// DBIAWBCLB enables both optimizations.
	DBIAWBCLB
)

var mechanismNames = map[Mechanism]string{
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

// String returns the label used in the paper's figures.
func (m Mechanism) String() string {
	if s, ok := mechanismNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// UsesDBI reports whether the mechanism maintains a Dirty-Block Index.
func (m Mechanism) UsesDBI() bool {
	switch m {
	case DBI, DBIAWB, DBICLB, DBIAWBCLB:
		return true
	}
	return false
}

// HasAWB reports whether aggressive writeback is enabled.
func (m Mechanism) HasAWB() bool { return m == DBIAWB || m == DBIAWBCLB }

// HasCLB reports whether cache lookup bypass is enabled.
func (m Mechanism) HasCLB() bool { return m == DBICLB || m == DBIAWBCLB }

// AllMechanisms lists every mechanism in the order the paper reports them.
func AllMechanisms() []Mechanism {
	return []Mechanism{Baseline, TADIP, DAWB, VWQ, SkipCache, DBI, DBIAWB, DBICLB, DBIAWBCLB}
}

// ReplacementKind selects the cache replacement/insertion policy.
type ReplacementKind int

const (
	// ReplLRU is least-recently-used with MRU insertion.
	ReplLRU ReplacementKind = iota
	// ReplTADIP is thread-aware DIP with set dueling.
	ReplTADIP
	// ReplDRRIP is thread-aware dynamic RRIP with set dueling.
	ReplDRRIP
)

func (r ReplacementKind) String() string {
	switch r {
	case ReplLRU:
		return "LRU"
	case ReplTADIP:
		return "TA-DIP"
	case ReplDRRIP:
		return "DRRIP"
	}
	return fmt.Sprintf("ReplacementKind(%d)", int(r))
}

// DBIReplacement selects the DBI entry replacement policy (Section 4.3).
type DBIReplacement int

const (
	// DBILRW evicts the least recently written entry.
	DBILRW DBIReplacement = iota
	// DBILRWBIP is LRW with bimodal insertion.
	DBILRWBIP
	// DBIRWIP is the rewrite-interval prediction policy (RRIP-like).
	DBIRWIP
	// DBIMaxDirty evicts the entry with the most dirty blocks.
	DBIMaxDirty
	// DBIMinDirty evicts the entry with the fewest dirty blocks.
	DBIMinDirty
)

func (r DBIReplacement) String() string {
	switch r {
	case DBILRW:
		return "LRW"
	case DBILRWBIP:
		return "LRW-BIP"
	case DBIRWIP:
		return "RWIP"
	case DBIMaxDirty:
		return "Max-Dirty"
	case DBIMinDirty:
		return "Min-Dirty"
	}
	return fmt.Sprintf("DBIReplacement(%d)", int(r))
}

// CacheParams configures one cache level.
type CacheParams struct {
	SizeBytes     uint64
	Ways          int
	BlockSize     uint64
	TagLatency    uint64 // cycles for a tag lookup
	DataLatency   uint64 // cycles for a data access
	SerialTagData bool   // serial (LLC) vs parallel (L1/L2) tag+data
	MSHRs         int
	Replacement   ReplacementKind
}

// Sets returns the number of sets implied by the geometry.
func (c CacheParams) Sets() int {
	return int(c.SizeBytes / (c.BlockSize * uint64(c.Ways)))
}

// Blocks returns the total number of blocks the cache holds.
func (c CacheParams) Blocks() int { return int(c.SizeBytes / c.BlockSize) }

// AccessLatency is the latency of a full hit (tag+data), honouring
// serial vs parallel lookup.
func (c CacheParams) AccessLatency() uint64 {
	if c.SerialTagData {
		return c.TagLatency + c.DataLatency
	}
	if c.DataLatency > c.TagLatency {
		return c.DataLatency
	}
	return c.TagLatency
}

// MaxWays is the widest set a cache may have: the tag probe and the
// replacement policies' LowRanks hold one bit per way in a uint64.
const MaxWays = 64

// Validate reports configuration errors.
func (c CacheParams) Validate() error {
	switch {
	case c.BlockSize == 0 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("config: cache block size %d not a power of two", c.BlockSize)
	case c.Ways <= 0:
		return fmt.Errorf("config: cache ways %d", c.Ways)
	case c.Ways > MaxWays:
		return fmt.Errorf("config: cache ways %d above the %d-way limit", c.Ways, MaxWays)
	case c.SizeBytes%(c.BlockSize*uint64(c.Ways)) != 0:
		return fmt.Errorf("config: cache size %d not divisible into %d-way sets of %dB blocks",
			c.SizeBytes, c.Ways, c.BlockSize)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("config: cache set count %d not a power of two", c.Sets())
	}
	return nil
}

// DBIParams configures the Dirty-Block Index (Table 1 row "DBI").
type DBIParams struct {
	// AlphaNum/AlphaDen express the DBI size α as a fraction of the
	// number of blocks tracked by the main tag store (e.g. 1/4).
	AlphaNum, AlphaDen int
	// Granularity is the number of blocks tracked per DBI entry
	// (up to blocks-per-DRAM-row).
	Granularity   int
	Associativity int
	Latency       uint64 // cycles per DBI lookup
	Replacement   DBIReplacement
	// BIPEpsilon is the 1/N probability of MRU insertion for LRW-BIP.
	BIPEpsilonDen int
}

// Entries returns the number of DBI entries needed to track
// α × cacheBlocks blocks at the configured granularity.
func (d DBIParams) Entries(cacheBlocks int) int {
	tracked := cacheBlocks * d.AlphaNum / d.AlphaDen
	e := tracked / d.Granularity
	if e < d.Associativity {
		e = d.Associativity
	}
	return e
}

// Validate reports configuration errors.
func (d DBIParams) Validate() error {
	switch {
	case d.AlphaNum <= 0 || d.AlphaDen <= 0:
		return fmt.Errorf("config: DBI alpha %d/%d", d.AlphaNum, d.AlphaDen)
	case d.Granularity <= 0 || d.Granularity&(d.Granularity-1) != 0:
		return fmt.Errorf("config: DBI granularity %d not a power of two", d.Granularity)
	case d.Associativity <= 0:
		return fmt.Errorf("config: DBI associativity %d", d.Associativity)
	}
	return nil
}

// DRAMParams configures the DDR3 model. All latencies are in CPU cycles
// (the paper's 2.67GHz core against DDR3-1066 gives 5 CPU cycles per
// memory bus cycle).
type DRAMParams struct {
	Channels int
	Ranks    int
	Banks    int
	RowBytes uint64

	// Timing in CPU cycles.
	TCAS   uint64 // column access (row hit read latency to first data)
	TRCD   uint64 // activate to column access
	TRP    uint64 // precharge
	TWR    uint64 // write recovery before precharge after a write
	TBurst uint64 // data bus occupancy per 64B burst (BL8 on an 8B bus)

	WriteBufferEntries int
	// WriteDrainLow is the buffer occupancy at which a drain stops
	// (drain-when-full policy: start at full, stop at low watermark).
	WriteDrainLow int

	// RefreshInterval, when non-zero, blocks all banks for
	// RefreshLatency cycles every RefreshInterval cycles (DDR3
	// auto-refresh: tREFI ~ 7.8us, tRFC ~ 110-350ns). Zero disables
	// refresh, the default for the paper-shape experiments.
	RefreshInterval uint64
	RefreshLatency  uint64
}

// RowHitLatency is the read latency when the row is already open.
func (d DRAMParams) RowHitLatency() uint64 { return d.TCAS + d.TBurst }

// RowClosedLatency is the read latency when the bank is precharged.
func (d DRAMParams) RowClosedLatency() uint64 { return d.TRCD + d.TCAS + d.TBurst }

// RowConflictLatency is the read latency when another row is open.
func (d DRAMParams) RowConflictLatency() uint64 {
	return d.TRP + d.TRCD + d.TCAS + d.TBurst
}

// Validate reports configuration errors.
func (d DRAMParams) Validate() error {
	switch {
	case d.Channels <= 0 || d.Ranks <= 0 || d.Banks <= 0:
		return fmt.Errorf("config: DRAM topology %d/%d/%d", d.Channels, d.Ranks, d.Banks)
	case d.Banks&(d.Banks-1) != 0:
		return fmt.Errorf("config: DRAM bank count %d not a power of two", d.Banks)
	case d.RowBytes == 0 || d.RowBytes&(d.RowBytes-1) != 0:
		return fmt.Errorf("config: DRAM row size %d not a power of two", d.RowBytes)
	case d.WriteBufferEntries <= 0:
		return fmt.Errorf("config: write buffer entries %d", d.WriteBufferEntries)
	case d.WriteDrainLow < 0 || d.WriteDrainLow >= d.WriteBufferEntries:
		return fmt.Errorf("config: write drain low watermark %d with %d entries",
			d.WriteDrainLow, d.WriteBufferEntries)
	}
	return nil
}

// CoreParams configures one out-of-order core.
type CoreParams struct {
	WindowSize int // reorder-buffer entries (128 in the paper)
	IssueWidth int // instructions issued per cycle (1 in the paper)
}

// MissPredictorParams configures the Skip-Cache-style miss predictor used
// by the CLB optimization.
type MissPredictorParams struct {
	Threshold    float64 // miss-rate threshold for predicting misses (0.95)
	EpochCycles  uint64  // epoch length in cycles
	SampledSets  int     // number of sampled sets per thread
	SetSampleLog int     // sample one in 2^SetSampleLog sets
}

// SystemConfig is the complete configuration of a simulated machine.
type SystemConfig struct {
	NumCores  int
	Mechanism Mechanism
	Core      CoreParams
	L1        CacheParams
	L2        CacheParams
	L3        CacheParams
	DBI       DBIParams
	MissPred  MissPredictorParams
	DRAM      DRAMParams

	// WarmupInstructions / MeasureInstructions are per-core instruction
	// budgets (the paper uses 200M warmup + 300M measured; the default
	// presets scale this down; experiments may override).
	WarmupInstructions  uint64
	MeasureInstructions uint64
}

// Validate reports the first configuration error found.
func (s SystemConfig) Validate() error {
	if s.NumCores <= 0 {
		return fmt.Errorf("config: %d cores", s.NumCores)
	}
	for _, c := range []struct {
		name string
		p    CacheParams
	}{{"L1", s.L1}, {"L2", s.L2}, {"L3", s.L3}} {
		if err := c.p.Validate(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	if s.Mechanism.UsesDBI() {
		if err := s.DBI.Validate(); err != nil {
			return err
		}
	}
	if err := s.DRAM.Validate(); err != nil {
		return err
	}
	if s.Core.WindowSize <= 0 || s.Core.IssueWidth <= 0 {
		return fmt.Errorf("config: core window %d width %d", s.Core.WindowSize, s.Core.IssueWidth)
	}
	return nil
}

// l3Geometry returns (ways, tagLat, dataLat) for an n-core Table-1 LLC.
func l3Geometry(cores int) (ways int, tagLat, dataLat uint64) {
	switch {
	case cores <= 1:
		return 16, 10, 24
	case cores == 2:
		return 32, 12, 29
	case cores <= 4:
		return 32, 13, 31
	default:
		return 32, 14, 33
	}
}

// Paper returns the Table-1 configuration for an n-core system
// (2MB of shared L3 per core) with the given mechanism.
func Paper(cores int, mech Mechanism) SystemConfig {
	return PaperWithL3PerCore(cores, mech, 2<<20)
}

// Scaled returns the laptop-scale experiment configuration: identical
// structure to Paper but with a 1MB-per-core LLC, a half-scale private
// hierarchy and instruction budgets sized so a run completes in about a
// second. The benchmark models keep the same footprint/LLC ratios the
// paper's workloads have against the 2MB-per-core LLC, so every
// mechanism comparison preserves its shape. EXPERIMENTS.md documents
// this scaling.
func Scaled(cores int, mech Mechanism) SystemConfig {
	cfg := PaperWithL3PerCore(cores, mech, 1<<20)
	// Preserve the paper's L1:L2:LLC capacity ratios (1:8:64 per core) at
	// half scale so dirty-block residence windows keep their shape.
	cfg.L1.SizeBytes = 16 << 10
	cfg.L2.SizeBytes = 128 << 10
	cfg.WarmupInstructions = 500_000
	cfg.MeasureInstructions = 700_000
	// Keep the paper's absolute DBI entry count (128 entries for the
	// 1-core LLC): an entry's lifetime is entries divided by the
	// cold-region insert rate — an absolute quantity that halving the
	// cache would otherwise halve, making the scaled DBI prematurely
	// flush write working sets the paper's DBI retains.
	cfg.DBI.AlphaNum, cfg.DBI.AlphaDen = 1, 2
	cfg.DBI.Associativity = 8
	cfg.MissPred.EpochCycles = 600_000
	return cfg
}

// PaperWithL3PerCore is Paper with an explicit L3 capacity per core,
// used by the Table-7 cache-size sensitivity study.
func PaperWithL3PerCore(cores int, mech Mechanism, l3PerCore uint64) SystemConfig {
	ways, tagLat, dataLat := l3Geometry(cores)
	l3Repl := ReplTADIP
	if mech == Baseline {
		l3Repl = ReplLRU
	}
	cfg := SystemConfig{
		NumCores:  cores,
		Mechanism: mech,
		Core:      CoreParams{WindowSize: 128, IssueWidth: 1},
		L1: CacheParams{
			SizeBytes: 32 << 10, Ways: 2, BlockSize: 64,
			TagLatency: 2, DataLatency: 2, MSHRs: 32,
			Replacement: ReplLRU,
		},
		L2: CacheParams{
			SizeBytes: 256 << 10, Ways: 8, BlockSize: 64,
			TagLatency: 12, DataLatency: 14, MSHRs: 32,
			Replacement: ReplLRU,
		},
		L3: CacheParams{
			SizeBytes: l3PerCore * uint64(cores), Ways: ways, BlockSize: 64,
			TagLatency: tagLat, DataLatency: dataLat, SerialTagData: true,
			MSHRs: 32 * cores, Replacement: l3Repl,
		},
		DBI: DBIParams{
			AlphaNum: 1, AlphaDen: 4, Granularity: 64,
			Associativity: 16, Latency: 4,
			Replacement: DBILRW, BIPEpsilonDen: 64,
		},
		MissPred: MissPredictorParams{
			Threshold:    0.95,
			EpochCycles:  2_000_000,
			SampledSets:  32,
			SetSampleLog: 5,
		},
		DRAM: DRAMParams{
			Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10,
			// DDR3-1066 at a 2.67GHz core: 5 CPU cycles per bus cycle.
			// tCAS = tRCD = tRP = 7 bus cycles; BL8 on an 8B bus = 4 bus
			// cycles of data transfer.
			TCAS: 35, TRCD: 35, TRP: 35, TWR: 40, TBurst: 20,
			WriteBufferEntries: 64,
			WriteDrainLow:      16,
		},
		WarmupInstructions:  200_000,
		MeasureInstructions: 300_000,
	}
	return cfg
}
