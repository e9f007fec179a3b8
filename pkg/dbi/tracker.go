package dbi

import (
	"fmt"
	"sync"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	coredbi "dbisim/internal/dbi"
)

// Batcher extends Tracker with the batch forms the wire protocols are
// built on: one call per batch, results appended into caller-owned
// buffers so a pipelined server allocates nothing per request.
type Batcher interface {
	Tracker
	// SetDirtyBatch marks every key dirty in order, appending all
	// evicted keys to dst and returning it.
	SetDirtyBatch(keys []Key, dst []Key) []Key
	// IsDirtyBatch appends one answer per key to dst and returns it.
	IsDirtyBatch(keys []Key, dst []bool) []bool
	// RegionsInto appends the dirty keys of each key's row to dst, in
	// key order (a row named twice is answered twice), and returns it.
	RegionsInto(keys []Key, dst []Key) []Key
	// FlushRowsInto flushes the row of each key (duplicate rows flush
	// once — the first key wins, later ones find the row clean),
	// appending every harvested key to dst.
	FlushRowsInto(keys []Key, dst []Key) []Key
	// RowSize reports keys per row: the most keys one key of a region
	// or flush, or one eviction of a set, can return.
	RowSize() int
}

// geom maps keys to rows.
type geom struct {
	shift   uint
	rowSize int
}

func (g geom) rowOf(k Key) Row { return Row(uint64(k) >> g.shift) }

// shard is one internal/dbi core behind one mutex, plus the recycled
// scratch buffer its queries append into. The trailing pad keeps
// neighboring shards' mutexes off one cache line under striping.
type shard struct {
	mu          sync.Mutex
	d           *coredbi.DBI
	scratch     []addr.BlockAddr
	flushes     uint64
	flushedKeys uint64
	_           [32]byte
}

// The shard ops below run with s.mu held: the single-key methods take
// the lock around one call, the batch methods around many.

// set marks b dirty, appending the keys its insert evicts to dst.
func (s *shard) set(b addr.BlockAddr, dst []Key) []Key {
	ev, evicted := s.d.SetDirtyInto(b, s.scratch)
	if !evicted {
		return dst
	}
	s.scratch = ev.Blocks[:0]
	return appendKeys(dst, ev.Blocks)
}

// region appends b's row's dirty keys to dst.
func (s *shard) region(b addr.BlockAddr, dst []Key) []Key {
	s.scratch = s.d.DirtyBlocksInRegionInto(b, s.scratch[:0])
	return appendKeys(dst, s.scratch)
}

// flush harvests and clears b's row, appending its dirty keys to dst.
func (s *shard) flush(b addr.BlockAddr, dst []Key) []Key {
	s.scratch = s.d.FlushRegionInto(b, s.scratch[:0])
	s.flushes++
	s.flushedKeys += uint64(len(s.scratch))
	return appendKeys(dst, s.scratch)
}

func appendKeys(dst []Key, blocks []addr.BlockAddr) []Key {
	for _, blk := range blocks {
		dst = append(dst, Key(blk))
	}
	return dst
}

func (s *shard) addStats(st *Stats) {
	s.mu.Lock()
	c := &s.d.Stat
	st.ValidRows += s.d.ValidEntries()
	st.DirtyKeys += s.d.DirtyCount()
	st.Lookups += c.Lookups.Value()
	st.Writes += c.Writes.Value()
	st.Inserts += c.EntryInserts.Value()
	st.Evictions += c.Evictions.Value()
	st.EvictedKeys += c.EvictionBlocks.Value()
	st.Flushes += s.flushes
	st.FlushedKeys += s.flushedKeys
	s.mu.Unlock()
}

// build constructs one shard's core sized for rows entries.
func (c cfg) build(rows int, seed int64) (*coredbi.DBI, error) {
	geo, err := addr.NewGeometry(1, uint64(c.rowSize), 1)
	if err != nil {
		return nil, fmt.Errorf("dbi: row size %d: %w", c.rowSize, err)
	}
	prm := config.PaperDBI()
	prm.AlphaNum, prm.AlphaDen = 1, 1
	prm.Granularity = c.rowSize
	prm.Associativity = c.assoc
	prm.Replacement = config.DBIReplacement(c.repl)
	return coredbi.New(
		coredbi.WithGeometry(geo),
		coredbi.WithParams(prm),
		coredbi.WithRows(rows),
		coredbi.WithSeed(seed),
	)
}

func (c cfg) validate() error {
	switch {
	case c.rows < 1:
		return fmt.Errorf("dbi: row capacity %d", c.rows)
	case c.rowSize < 1 || c.rowSize&(c.rowSize-1) != 0:
		return fmt.Errorf("dbi: row size %d not a power of two", c.rowSize)
	case c.assoc < 1:
		return fmt.Errorf("dbi: associativity %d", c.assoc)
	}
	return nil
}

func (c cfg) geom() geom {
	g := geom{rowSize: c.rowSize}
	for v := uint64(c.rowSize); v > 1; v >>= 1 {
		g.shift++
	}
	return g
}

// New builds a one-shard tracker: one core behind one lock. It is
// NewSharded(1, opts...), so its answers are those of a single core
// seeded with WithSeed's seed.
func New(opts ...Option) (*Sharded, error) { return NewSharded(1, opts...) }

// fibMix is the 64-bit Fibonacci-hashing multiplier (2^64/φ, odd).
const fibMix = 0x9E3779B97F4A7C15

// Sharded stripes rows across a power-of-two number of lock-striped
// cores. Shard choice hashes the ROW, not the key, so every key of a
// row lands in the same shard: row queries and AWB flushes are
// single-lock, and a row's eviction batch never spans shards. The
// hash takes the product's top bits, disjoint from the bit range each
// core's own set index uses, so shard and set placement decorrelate.
type Sharded struct {
	g          geom
	shards     []shard
	shardShift uint
}

// NewSharded builds an n-shard tracker (n a power of two). The row
// capacity from WithRows is the total across shards, split evenly
// (rounded up, so effective capacity is never below the request).
func NewSharded(n int, opts ...Option) (*Sharded, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dbi: shard count %d not a power of two", n)
	}
	c := defaults()
	for _, fn := range opts {
		fn(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	t := &Sharded{g: c.geom(), shards: make([]shard, n), shardShift: 64}
	for v := n; v > 1; v >>= 1 {
		t.shardShift--
	}
	perShard := (c.rows + n - 1) / n
	for i := range t.shards {
		d, err := c.build(perShard, c.seed+int64(i))
		if err != nil {
			return nil, err
		}
		t.shards[i].d = d
	}
	return t, nil
}

// ShardOf returns the shard index k's row maps to.
func (t *Sharded) ShardOf(k Key) int {
	return int((uint64(t.g.rowOf(k)) * fibMix) >> t.shardShift)
}

// ShardCount returns the number of shards.
func (t *Sharded) ShardCount() int { return len(t.shards) }

// RowOf returns the row containing k.
func (t *Sharded) RowOf(k Key) Row { return t.g.rowOf(k) }

// RowSize returns keys per row.
func (t *Sharded) RowSize() int { return t.g.rowSize }

// lock locks k's shard and returns it; the caller unlocks it.
func (t *Sharded) lock(k Key) *shard {
	s := &t.shards[t.ShardOf(k)]
	s.mu.Lock()
	return s
}

// SetDirty implements Tracker.
func (t *Sharded) SetDirty(k Key) []Key {
	s := t.lock(k)
	ev := s.set(addr.BlockAddr(k), nil)
	s.mu.Unlock()
	return ev
}

// IsDirty implements Tracker.
func (t *Sharded) IsDirty(k Key) bool {
	s := t.lock(k)
	v := s.d.IsDirty(addr.BlockAddr(k))
	s.mu.Unlock()
	return v
}

// DirtyBlocksInRegion implements Tracker.
func (t *Sharded) DirtyBlocksInRegion(k Key) []Key {
	s := t.lock(k)
	ks := s.region(addr.BlockAddr(k), nil)
	s.mu.Unlock()
	return ks
}

// FlushRow implements Tracker.
func (t *Sharded) FlushRow(k Key) []Key {
	s := t.lock(k)
	ks := s.flush(addr.BlockAddr(k), nil)
	s.mu.Unlock()
	return ks
}

// SetDirtyBatch implements Batcher with one pass, and one lock, per
// shard that the batch touches. Keys are applied in order within each
// shard; cross-shard order inside one batch is unspecified (the
// answers — which keys each shard evicts — depend only on the
// per-shard subsequence, so results are deterministic for a given
// batch). With one shard, ShardOf is always 0 and the loop makes one
// pass.
func (t *Sharded) SetDirtyBatch(keys []Key, dst []Key) []Key {
	for si := range t.shards {
		s := &t.shards[si]
		locked := false
		for _, k := range keys {
			if t.ShardOf(k) != si {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			dst = s.set(addr.BlockAddr(k), dst)
		}
		if locked {
			s.mu.Unlock()
		}
	}
	return dst
}

// IsDirtyBatch implements Batcher, one lock per key. Answers stay in
// key order.
func (t *Sharded) IsDirtyBatch(keys []Key, dst []bool) []bool {
	for _, k := range keys {
		dst = append(dst, t.IsDirty(k))
	}
	return dst
}

// RegionsInto implements Batcher, one lock per key.
func (t *Sharded) RegionsInto(keys []Key, dst []Key) []Key {
	for _, k := range keys {
		s := t.lock(k)
		dst = s.region(addr.BlockAddr(k), dst)
		s.mu.Unlock()
	}
	return dst
}

// FlushRowsInto implements Batcher, one lock per key.
func (t *Sharded) FlushRowsInto(keys []Key, dst []Key) []Key {
	for _, k := range keys {
		s := t.lock(k)
		dst = s.flush(addr.BlockAddr(k), dst)
		s.mu.Unlock()
	}
	return dst
}

// Stats implements Tracker, aggregating across shards. Each shard is
// read under its own lock; the result is a consistent per-shard,
// approximate cross-shard snapshot.
func (t *Sharded) Stats() Stats {
	st := Stats{Shards: len(t.shards), RowSize: t.g.rowSize}
	for i := range t.shards {
		st.Rows += t.shards[i].d.Entries()
		t.shards[i].addStats(&st)
	}
	return st
}
