// Package trace produces the instruction/memory-access streams that drive
// the simulated cores.
//
// The paper evaluates SPEC CPU2006 and STREAM traces collected with
// Pinpoints. Those traces are proprietary, so this package substitutes
// parameterized synthetic generators: each benchmark is modelled by a
// Profile whose footprint, memory intensity, store fraction and access
// pattern mix are tuned so that the simulated statistics the paper reports
// per benchmark (baseline IPC ordering, MPKI, WPKI, row hit rates) are
// reproduced in shape. The generators are deterministic given a seed.
package trace

import (
	"math"
	"math/rand/v2"

	"dbisim/internal/addr"
	"dbisim/internal/simrand"
)

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a memory read.
	Load Kind = iota
	// Store is a memory write.
	Store
)

func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Record is one memory access in an instruction stream: Gap non-memory
// instructions execute before the access itself (the access is the
// Gap+1'th instruction).
type Record struct {
	Gap  uint32
	Kind Kind
	Addr addr.Addr
}

// Generator produces an infinite access stream.
type Generator interface {
	// Name identifies the benchmark model.
	Name() string
	// Next returns the next access record.
	Next() Record
}

// Pattern describes one component of a benchmark's access mix.
type Pattern int

const (
	// Sequential walks the footprint block by block.
	Sequential Pattern = iota
	// Strided walks the footprint with a multi-block stride.
	Strided
	// Random touches uniformly random blocks of the footprint.
	Random
	// PointerChase touches a dependent random sequence (modelled as
	// random blocks flagged as serializing for the core's window).
	PointerChase
)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string

	// FootprintBytes is the total data footprint touched by the stream.
	FootprintBytes uint64

	// MemFraction is the fraction of instructions that access memory.
	MemFraction float64

	// StoreFraction is the fraction of memory accesses that are stores.
	StoreFraction float64

	// Mix gives relative weights of each access pattern.
	SeqWeight, StrideWeight, RandWeight float64

	// StrideBlocks is the stride, in blocks, of the Strided component.
	StrideBlocks int

	// SeqRepeat is how many consecutive accesses touch the same block
	// before the sequential/strided cursors advance — the word-level
	// spatial locality inside a 64B block that the L1 absorbs. Zero
	// means 1 (advance every access).
	SeqRepeat int

	// HotFraction of the footprint receives HotAccessFraction of the
	// random accesses, giving the stream temporal locality.
	HotFraction       float64
	HotAccessFraction float64

	// StoreHotBias redirects this fraction of stores into the hot
	// region regardless of the pattern mix. Real programs' write working
	// sets are much smaller and hotter than their read sets — the
	// property that lets a small DBI capture the write working set
	// (Section 4.1 of the paper). Streaming kernels (lbm, STREAM) keep
	// this at 0: their stores genuinely stream.
	StoreHotBias float64

	// ReadIntensity/WriteIntensity classify the benchmark for the
	// multiprogrammed mix generator (Section 5 of the paper).
	ReadIntensity  Intensity
	WriteIntensity Intensity
}

// Intensity is the paper's low/medium/high workload classification.
type Intensity int

const (
	// Low intensity.
	Low Intensity = iota
	// Medium intensity.
	Medium
	// High intensity.
	High
)

func (i Intensity) String() string {
	switch i {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return "unknown"
}

// pageBlocks is the number of 64B blocks in a 4KB page.
const pageBlocks = 64

// Synth is the deterministic generator built from a Profile.
//
// The generator works in the benchmark's virtual address space and
// translates to physical addresses through a randomized page table, the
// way an OS's physical page allocator does. This translation is what
// gives the paper's baseline its character: virtually-adjacent pages land
// in unrelated DRAM rows, so dirty blocks of one physical row reach the
// cache at unrelated times and are evicted far apart — writing them back
// in eviction order produces mostly row misses (Section 3.1).
type Synth struct {
	p    Profile
	pcg  rand.PCG   // rng's source, held by value
	rng  *rand.Rand // draws from pcg
	base addr.Addr  // base of this core's physical range

	pt        pageTable // virtual page -> physical page index
	used      bitset    // physical pages already handed out
	spanPages uint64    // physical pages available to this process

	blocks    uint64 // footprint size in blocks
	hotBlocks uint64

	seqCursor    uint64
	strideCursor uint64
	repeat       int
	curBlock     uint64 // block being re-accessed
	repLeft      int    // repeats remaining on curBlock
	meanGap      float64
	gapCarry     float64 // error-diffusion remainder keeping E[gap] exact
}

// pageTable is an open-addressed, linear-probed vpage→ppage map. An
// empty slot holds the key noPage, and the table is sized to at most
// 50% load (every virtual page inserted once, no deletions), keeping
// probe chains short. It replaces the Go map that dominated the
// generator's translate profile.
type pageTable struct {
	mask uint64
	keys []uint64
	vals []uint64
}

// noPage is the key of an empty page-table slot. A virtual page number
// is a block index divided by pageBlocks, so none reaches it.
const noPage = ^uint64(0)

// fibMix is the 64-bit Fibonacci-hashing multiplier (2^64/φ, odd).
const fibMix = 0x9E3779B97F4A7C15

// newPageTable returns an empty table for vpages insertions.
func newPageTable(vpages uint64) pageTable {
	n := uint64(8)
	for n < 2*vpages {
		n <<= 1
	}
	t := pageTable{mask: n - 1, keys: make([]uint64, n), vals: make([]uint64, n)}
	for i := range t.keys {
		t.keys[i] = noPage
	}
	return t
}

// bitset is a plain bit vector over physical page indices.
type bitset struct{ words []uint64 }

func newBitset(n uint64) bitset { return bitset{make([]uint64, (n+63)/64)} }

func (b *bitset) test(i uint64) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }
func (b *bitset) set(i uint64)       { b.words[i>>6] |= 1 << (i & 63) }

// New returns a deterministic generator for the profile. base offsets the
// stream in physical memory (distinct cores get disjoint footprints) and
// seed fixes the random components.
func New(p Profile, base addr.Addr, seed int64) *Synth {
	blocks := p.FootprintBytes / 64
	if blocks == 0 {
		blocks = 1
	}
	hot := uint64(float64(blocks) * p.HotFraction)
	if hot == 0 {
		hot = 1
	}
	mf := p.MemFraction
	if mf <= 0 {
		mf = 0.01
	}
	if mf > 1 {
		mf = 1
	}
	rep := p.SeqRepeat
	if rep < 1 {
		rep = 1
	}
	vpages := (blocks + pageBlocks - 1) / pageBlocks
	span := 4 * vpages // physical slack so placement stays random
	s := &Synth{
		p:         p,
		base:      base,
		pt:        newPageTable(vpages),
		used:      newBitset(span),
		spanPages: span,
		blocks:    blocks,
		hotBlocks: hot,
		repeat:    rep,
		meanGap:   1/mf - 1,
	}
	simrand.Seed(&s.pcg, seed)
	s.rng = rand.New(&s.pcg)
	return s
}

// Name implements Generator.
func (s *Synth) Name() string { return s.p.Name }

// Next implements Generator.
func (s *Synth) Next() Record {
	rec := Record{Gap: s.gap()}
	if s.rng.Float64() < s.p.StoreFraction {
		rec.Kind = Store
	}
	rec.Addr = s.base + addr.Addr(s.translate(s.pickBlock(rec.Kind))*64)
	return rec
}

// translate maps a virtual block to a physical block through the
// process's randomized page table, allocating on first touch. The probe
// loop doubles as the insertion scan: when it falls off the end of a
// cluster (empty slot), vpage is absent and that very slot receives it.
func (s *Synth) translate(vblock uint64) uint64 {
	vpage := vblock / pageBlocks
	t := &s.pt
	i := (vpage * fibMix) & t.mask
	for k := t.keys[i]; k != noPage; k = t.keys[i] {
		if k == vpage {
			return t.vals[i]*pageBlocks + vblock%pageBlocks
		}
		i = (i + 1) & t.mask
	}
	var ppage uint64
	for {
		ppage = uint64(s.rng.Int64N(int64(s.spanPages)))
		if !s.used.test(ppage) {
			break
		}
	}
	s.used.set(ppage)
	t.keys[i], t.vals[i] = vpage, ppage
	return ppage*pageBlocks + vblock%pageBlocks
}

// gap draws a geometric-ish instruction gap with mean meanGap.
func (s *Synth) gap() uint32 {
	if s.meanGap <= 0 {
		return 0
	}
	// Exponential with the target mean, truncated; deterministic given
	// rng. The fractional remainder carries to the next draw so the
	// long-run mean equals meanGap despite integer gaps.
	g := s.rng.ExpFloat64()*s.meanGap + s.gapCarry
	if g > 10000 {
		g = 10000
	}
	gi := math.Floor(g)
	s.gapCarry = g - gi
	return uint32(gi)
}

// pickBlock returns the block for the next access. Every chosen block is
// re-accessed SeqRepeat times in a row before the next choice — the
// word/field-granularity reuse within a 64B line that the L1 absorbs
// (sequential array walks and pointer-chased structs alike).
func (s *Synth) pickBlock(k Kind) uint64 {
	if k == Store && s.p.StoreHotBias > 0 && s.rng.Float64() < s.p.StoreHotBias {
		// Biased stores interleave with the current read run without
		// disturbing it (read an array element, update a hot
		// accumulator), so the streamed blocks themselves stay clean.
		return uint64(s.rng.Int64N(int64(s.hotBlocks)))
	}
	if s.repLeft > 0 {
		s.repLeft--
		return s.curBlock
	}
	total := s.p.SeqWeight + s.p.StrideWeight + s.p.RandWeight
	if total <= 0 {
		total = 1
	}
	r := s.rng.Float64() * total
	var b uint64
	switch {
	case r < s.p.SeqWeight:
		// Sequential region walk; loads and stores share the cursor so
		// that streaming writes land in the rows streaming reads opened
		// (the a[i] = b[i] + c[i] shape of STREAM).
		b = s.seqCursor
		s.seqCursor = (s.seqCursor + 1) % s.blocks
	case r < s.p.SeqWeight+s.p.StrideWeight:
		stride := uint64(s.p.StrideBlocks)
		if stride == 0 {
			stride = 2
		}
		b = s.strideCursor
		s.strideCursor = (s.strideCursor + stride) % s.blocks
	default:
		if s.rng.Float64() < s.p.HotAccessFraction {
			b = uint64(s.rng.Int64N(int64(s.hotBlocks)))
		} else {
			b = uint64(s.rng.Int64N(int64(s.blocks)))
		}
	}
	s.curBlock = b
	s.repLeft = s.repeat - 1
	return b
}
