package dbi

import (
	"dbisim/internal/addr"
	"dbisim/internal/config"
)

// Option configures New. The constructor follows the system.New
// functional-options style: every knob has a default (config.PaperDBI
// against the default geometry), capacity is the one thing
// a caller must state — either WithCacheBlocks (simulator usage: the
// DBI tracks α × the cache's blocks) or WithRows (service usage: an
// explicit entry budget, one entry per row-region).
type Option func(*options)

type options struct {
	geo         addr.Geometry
	prm         config.DBIParams
	cacheBlocks int
	rows        int
	seed        int64
}

// WithGeometry sets the address geometry the DBI maps blocks and rows
// with (default addr.Default(): 64B blocks, 8KB rows, 8 banks).
func WithGeometry(g addr.Geometry) Option {
	return func(o *options) { o.geo = g }
}

// WithParams replaces the whole parameter block — the form the
// simulator uses to pass a SystemConfig's DBI section through.
func WithParams(p config.DBIParams) Option {
	return func(o *options) { o.prm = p }
}

// WithCacheBlocks sizes the DBI for a cache of n blocks: the entry
// count is α × n / granularity (config.DBIParams.Entries).
func WithCacheBlocks(n int) Option {
	return func(o *options) { o.cacheBlocks = n; o.rows = 0 }
}

// WithRows sets the entry budget directly: the DBI can track up to n
// row-regions at once, whatever α says. This is the service-facing
// sizing — a dirty-tracking server thinks in rows, not cache blocks.
func WithRows(n int) Option {
	return func(o *options) { o.rows = n; o.cacheBlocks = 0 }
}

// WithSeed seeds the replacement policies' randomness (LRW-BIP's
// bimodal insertion). Same seed, same stream.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}
