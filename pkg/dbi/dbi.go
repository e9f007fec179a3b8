// Package dbi is the service-facing Dirty-Block Index: the paper's
// row-organized dirty-metadata structure (internal/dbi) promoted to a
// concurrency-safe tracking API with no simulator types in sight — no
// event engine, no cycle domains, no cache hierarchy.
//
// The vocabulary shifts from caches to services. A Key identifies one
// dirty-trackable unit (a cache line, a page, an object); RowSize
// consecutive keys form a Row — the unit whose co-located dirty state
// the DBI returns in one query, and the write-back batch a flush
// coordinator wants (the paper's AWB insight: harvest whole rows).
// Capacity is bounded: the tracker holds at most Rows row entries, and
// inserting beyond that evicts another row, returning its dirty keys
// as write-back work the caller must perform — exactly a DBI eviction
// (Section 2.2.4), reframed as back-pressure.
//
// The one implementation, Sharded, hashes rows across N lock-striped
// internal/dbi cores, each behind its own mutex; New builds it with one
// shard. A whole row always lands in one shard, so row queries and
// flushes stay single-lock and the AWB batch never spans shards.
//
// Each shard inherits the core's struct-of-arrays layout: row entries
// live in dense region/stamp probe columns and all dirty bits in one
// flat backing array, so the steady-state SetDirty/IsDirty/row-query
// paths touch a couple of cache lines and allocate nothing (DESIGN.md
// §12).
package dbi

import (
	"fmt"

	"dbisim/internal/config"
)

// Key identifies one dirty-trackable unit in the service's key space.
type Key uint64

// Row identifies one RowSize-aligned group of keys (Key >> log2(RowSize)).
type Row uint64

// Replacement selects the row-entry replacement policy (the paper's
// Section 4.3 DBI policies). Its values are config.DBIReplacement's, so
// a tracker hands its policy to each core unchanged.
type Replacement int

const (
	// LRW evicts the least recently written row.
	LRW = Replacement(config.DBILRW)
	// LRWBIP is LRW with bimodal insertion (burst-resistant).
	LRWBIP = Replacement(config.DBILRWBIP)
	// RWIP is rewrite-interval prediction (RRIP-like).
	RWIP = Replacement(config.DBIRWIP)
	// MaxDirty evicts the row with the most dirty keys.
	MaxDirty = Replacement(config.DBIMaxDirty)
	// MinDirty evicts the row with the fewest dirty keys.
	MinDirty = Replacement(config.DBIMinDirty)
)

// ParseReplacement maps a policy name ("lrw", "lrw-bip", "rwip",
// "max-dirty", "min-dirty") to its Replacement, for CLI flags.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "lrw":
		return LRW, nil
	case "lrw-bip":
		return LRWBIP, nil
	case "rwip":
		return RWIP, nil
	case "max-dirty":
		return MaxDirty, nil
	case "min-dirty":
		return MinDirty, nil
	}
	return 0, fmt.Errorf("dbi: unknown replacement policy %q", s)
}

// Stats is a point-in-time summary of a tracker: capacity, occupancy
// and cumulative operation counts aggregated across shards.
type Stats struct {
	Shards      int    `json:"shards"`
	Rows        int    `json:"rows"`     // row-entry capacity
	RowSize     int    `json:"row_size"` // keys per row
	ValidRows   int    `json:"valid_rows"`
	DirtyKeys   int    `json:"dirty_keys"`
	Lookups     uint64 `json:"lookups"`
	Writes      uint64 `json:"writes"`
	Inserts     uint64 `json:"inserts"`
	Evictions   uint64 `json:"evictions"`
	EvictedKeys uint64 `json:"evicted_keys"`
	Flushes     uint64 `json:"flushes"`
	FlushedKeys uint64 `json:"flushed_keys"`
}

// Tracker is the dirty-tracking service API. All methods are safe for
// concurrent use.
//
// SetDirty marks a key dirty. When recording it forces out another
// row, the displaced row's dirty keys are returned: the tracker no
// longer remembers them, so the caller must write them back now (the
// DBI-eviction contract). Usually the return is nil.
//
// FlushRow harvests every dirty key of k's row and clears them in one
// step — the AWB batch. DirtyBlocksInRegion is the read-only form.
type Tracker interface {
	SetDirty(k Key) (evicted []Key)
	IsDirty(k Key) bool
	DirtyBlocksInRegion(k Key) []Key
	FlushRow(k Key) []Key
	Stats() Stats
}

// Option configures New and NewSharded.
type Option func(*cfg)

type cfg struct {
	rows    int
	rowSize int
	assoc   int
	repl    Replacement
	seed    int64
}

func defaults() cfg {
	return cfg{rows: 1 << 16, rowSize: 64, assoc: 16, repl: LRW, seed: 1}
}

// WithRows sets the total row-entry capacity (across all shards).
func WithRows(n int) Option { return func(c *cfg) { c.rows = n } }

// WithRowSize sets keys per row (power of two). Row k of the key
// space covers keys [k*RowSize, (k+1)*RowSize).
func WithRowSize(n int) Option { return func(c *cfg) { c.rowSize = n } }

// WithAssociativity sets the set associativity of each shard's index.
func WithAssociativity(n int) Option { return func(c *cfg) { c.assoc = n } }

// WithReplacement selects the row replacement policy (default LRW).
func WithReplacement(r Replacement) Option { return func(c *cfg) { c.repl = r } }

// WithSeed seeds replacement-policy randomness; same seed, same
// eviction decisions for the same operation stream.
func WithSeed(seed int64) Option { return func(c *cfg) { c.seed = seed } }
