// Package cache implements the structural model of a set-associative
// cache: the tag store, replacement bookkeeping, MSHRs and a contended
// tag port. Timing and inter-level protocol live in the llc and system
// packages; this package answers "what is in the cache and what gets
// evicted", cycle-free.
//
// The DBI paper's mechanisms differ in where the dirty bit lives: the
// conventional organizations keep it in the tag entry (Dirty on Block),
// while DBI-augmented caches leave Block.Dirty unused and consult the
// Dirty-Block Index instead.
package cache

import (
	"fmt"
	"math/bits"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/replacement"
	"dbisim/internal/stats"
)

// Block is one tag-store entry as seen by callers (a value snapshot).
type Block struct {
	Valid  bool
	Addr   addr.BlockAddr // full block address (tag + index)
	Dirty  bool           // unused when a DBI owns dirty state
	Thread int            // inserting thread (for TA-DIP and stats)
}

// Stats counts tag-store activity. TagLookups is the quantity Figure 6c
// reports per kilo-instruction.
type Stats struct {
	TagLookups stats.Counter // every tag-store access, demand or filler
	Hits       stats.Counter
	Misses     stats.Counter
	Inserts    stats.Counter
	Evictions  stats.Counter
	DirtyEvict stats.Counter
	Writebacks stats.Counter // dirty blocks handed to the next level
}

// Cache is the structural model.
//
// The tag store is struct-of-arrays: instead of a slab of
// entry{addr, dirty, thread} records, each field lives in its own dense
// column indexed by set*ways+way. The probe loop touches only the hot
// column of block addresses, so a 16-way set's probe plane is 128
// contiguous bytes (two cache lines) instead of 16 records dragging the
// cold dirty/thread bytes through the scan. Validity lives in that
// column too: an empty slot holds the address empty, which no block
// can have, so the tag compare alone decides a hit.
type Cache struct {
	params config.CacheParams
	sets   int
	ways   int

	// Hot probe plane: one block address per slot (empty when invalid).
	addrs []uint64
	// Cold payload columns, touched only on hits and state changes.
	// A thread is a core index, so a byte holds it (New enforces the
	// bound).
	dirty   []uint8
	threads []uint8

	policy replacement.Policy

	// Stats is exported for the owning level to read.
	Stats Stats
}

// empty is the address an invalid slot holds. The simulator's block
// addresses are byte addresses shifted right by the 64-byte block
// offset, so none reaches it.
const empty = ^uint64(0)

// maxThreads is the most threads a cache tracks: one byte per slot.
const maxThreads = 1 << 8

// New builds a cache from validated parameters. threads sizes the
// thread-aware policies (at most maxThreads); seed fixes their random
// components.
func New(p config.CacheParams, threads int, seed int64) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if threads > maxThreads {
		return nil, fmt.Errorf("cache: %d threads exceed the %d a thread byte holds", threads, maxThreads)
	}
	kind := replacement.KindLRU
	switch p.Replacement {
	case config.ReplLRU:
		kind = replacement.KindLRU
	case config.ReplTADIP:
		kind = replacement.KindTADIP
	case config.ReplDRRIP:
		kind = replacement.KindDRRIP
	default:
		return nil, fmt.Errorf("cache: unknown replacement kind %v", p.Replacement)
	}
	pol, err := replacement.New(kind, replacement.Config{
		Sets: p.Sets(), Ways: p.Ways, Threads: threads, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	n := p.Sets() * p.Ways
	c := &Cache{
		params:  p,
		sets:    p.Sets(),
		ways:    p.Ways,
		addrs:   make([]uint64, n),
		dirty:   make([]uint8, n),
		threads: make([]uint8, n),
		policy:  pol,
	}
	for i := range c.addrs {
		c.addrs[i] = empty
	}
	return c, nil
}

// Params returns the configured parameters.
func (c *Cache) Params() config.CacheParams { return c.params }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf maps a block address to its set index.
func (c *Cache) SetOf(b addr.BlockAddr) int {
	return int(uint64(b) & uint64(c.sets-1))
}

// slot returns the column index of (set, way).
func (c *Cache) slot(set, way int) int { return set*c.ways + way }

// validAt reports whether the slot holds a block.
func (c *Cache) validAt(i int) bool { return c.addrs[i] != empty }

// BlockAt exposes the tag entry at (set, way) for diagnostics and for
// mechanisms (VWQ, DAWB) that scan sets. Invalid slots read as the zero
// Block regardless of their stale contents.
func (c *Cache) BlockAt(set, way int) Block {
	i := c.slot(set, way)
	if !c.validAt(i) {
		return Block{}
	}
	return Block{
		Valid:  true,
		Addr:   addr.BlockAddr(c.addrs[i]),
		Dirty:  c.dirty[i] != 0,
		Thread: int(c.threads[i]),
	}
}

// b2u is the branch-free bool→uint64 the probe loops accumulate with;
// the compiler lowers it to a flag-materializing move (SETcc/CSET), not
// a jump.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// find locates a block without touching statistics or recency.
//
// The way scan is branchless: every way's tag is compared (an empty
// slot never equals a block address, so validity costs no extra
// compare) and the per-way match bits accumulate into one mask — no
// early exit, so the loop's trip count is data-independent and the
// branch predictor has nothing to mispredict. At most one way can match
// (the insert path never admits duplicates), making TrailingZeros the
// unique hit way.
func (c *Cache) find(b addr.BlockAddr) (way int, ok bool) {
	base := c.SetOf(b) * c.ways
	addrs := c.addrs[base : base+c.ways : base+c.ways]
	key := uint64(b)
	var mask uint64
	for w := range addrs {
		mask |= b2u(addrs[w] == key) << uint(w)
	}
	if mask == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(mask), true
}

// Contains reports block presence without counting a tag lookup; it is
// the oracle used by tests and by the DBI's consistency checks.
func (c *Cache) Contains(b addr.BlockAddr) bool {
	_, ok := c.find(b)
	return ok
}

// Lookup performs a tag-store lookup (counted) without updating recency.
// Mechanisms that scan for dirty row-mates (DAWB) use this.
func (c *Cache) Lookup(b addr.BlockAddr) (way int, hit bool) {
	c.Stats.TagLookups.Inc()
	return c.find(b)
}

// Access performs a demand access: a counted tag lookup that updates
// recency on a hit and dueling state on a miss.
func (c *Cache) Access(b addr.BlockAddr, thread int) (hit bool) {
	c.Stats.TagLookups.Inc()
	set := c.SetOf(b)
	if way, ok := c.find(b); ok {
		c.policy.Touch(set, way)
		c.Stats.Hits.Inc()
		return true
	}
	c.policy.OnMiss(set, thread)
	c.Stats.Misses.Inc()
	return false
}

// Touch promotes a resident block without a counted lookup (used when the
// lookup cost was already paid by the caller in the same operation).
func (c *Cache) Touch(b addr.BlockAddr) {
	if way, ok := c.find(b); ok {
		c.policy.Touch(c.SetOf(b), way)
	}
}

// Insert fills a block, returning the evicted victim (Valid=false when an
// invalid way was used). The caller decides what to do with a dirty
// victim (writeback) and with the victim's DBI state.
func (c *Cache) Insert(b addr.BlockAddr, thread int, dirty bool) (victim Block) {
	set := c.SetOf(b)
	if way, ok := c.find(b); ok {
		// Already present: refresh dirty state only.
		if dirty {
			c.dirty[c.slot(set, way)] = 1
		}
		return Block{}
	}
	way := -1
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if !c.validAt(base + w) {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set)
		victim = c.BlockAt(set, way)
		c.Stats.Evictions.Inc()
		if victim.Dirty {
			c.Stats.DirtyEvict.Inc()
		}
	}
	i := base + way
	c.addrs[i] = uint64(b)
	c.dirty[i] = b2u8(dirty)
	c.threads[i] = uint8(thread)
	c.policy.Insert(set, way, thread)
	c.Stats.Inserts.Inc()
	return victim
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Invalidate removes a block if present and returns its prior state.
func (c *Cache) Invalidate(b addr.BlockAddr) (old Block, ok bool) {
	way, ok := c.find(b)
	if !ok {
		return Block{}, false
	}
	set := c.SetOf(b)
	old = c.BlockAt(set, way)
	c.addrs[c.slot(set, way)] = empty
	return old, true
}

// SetDirty marks a resident block dirty (conventional organization).
// It reports whether the block was found.
func (c *Cache) SetDirty(b addr.BlockAddr, dirty bool) bool {
	way, ok := c.find(b)
	if !ok {
		return false
	}
	c.dirty[c.slot(c.SetOf(b), way)] = b2u8(dirty)
	return true
}

// IsDirty reports the tag-entry dirty bit (conventional organization),
// without counting a lookup.
func (c *Cache) IsDirty(b addr.BlockAddr) bool {
	way, ok := c.find(b)
	return ok && c.dirty[c.slot(c.SetOf(b), way)] != 0
}

// DirtyBlocksInto appends the addresses of all dirty blocks to dst and
// returns the extended slice, letting scan-heavy callers (flush loops,
// AWB harvests) reuse one scratch buffer instead of allocating per call.
func (c *Cache) DirtyBlocksInto(dst []addr.BlockAddr) []addr.BlockAddr {
	for i := range c.addrs {
		if c.validAt(i) && c.dirty[i] != 0 {
			dst = append(dst, addr.BlockAddr(c.addrs[i]))
		}
	}
	return dst
}

// DirtyBlocks returns the addresses of all dirty blocks (test oracle and
// cache-flush support). Allocation-sensitive callers should prefer
// DirtyBlocksInto.
func (c *Cache) DirtyBlocks() []addr.BlockAddr {
	return c.DirtyBlocksInto(nil)
}

// CountValid returns the number of valid blocks (diagnostics).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.addrs {
		if c.validAt(i) {
			n++
		}
	}
	return n
}
