package dbi

import (
	"math/rand/v2"

	"dbisim/internal/stats"
)

// State is a checkpoint of a DBI. It mirrors the live struct-of-arrays
// layout one-to-one — the validity-stamp, region, replacement-metadata
// columns and the flat bit-word array — so a capture is five flat
// copies, plus the LRW clock, the rng and the statistics (histogram
// included). The zero value is ready; buffers are reused across
// captures.
type State struct {
	stamps    []uint64
	regions   []RegionID
	lastWrite []uint64
	rwpv      []uint8
	words     []uint64
	clock     uint64
	pcg       rand.PCG

	lookups, writes, cleans               stats.Counter
	entryInserts, evictions, evictionBlks stats.Counter
	dirtyAtEviction                       stats.Histogram
}

// Snapshot captures the DBI into st.
func (d *DBI) Snapshot(st *State) {
	if len(st.stamps) != len(d.stamps) {
		st.stamps = make([]uint64, len(d.stamps))
		st.regions = make([]RegionID, len(d.regions))
		st.lastWrite = make([]uint64, len(d.lastWrite))
		st.rwpv = make([]uint8, len(d.rwpv))
		st.words = make([]uint64, len(d.words))
	}
	copy(st.stamps, d.stamps)
	copy(st.regions, d.regions)
	copy(st.lastWrite, d.lastWrite)
	copy(st.rwpv, d.rwpv)
	copy(st.words, d.words)
	st.clock = d.clock
	st.pcg = d.pcg
	s := &d.Stat
	st.lookups, st.writes, st.cleans = s.Lookups, s.Writes, s.Cleans
	st.entryInserts, st.evictions, st.evictionBlks = s.EntryInserts, s.Evictions, s.EvictionBlocks
	st.dirtyAtEviction.CopyFrom(s.DirtyAtEviction)
}

// Restore writes st back into the DBI that produced it (identical
// parameters; the system layer enforces the geometry match). Every
// column is restored verbatim — the stale metadata of empty slots
// included, which read paths never observe — so the index is bitwise
// the captured one.
func (d *DBI) Restore(st *State) {
	copy(d.stamps, st.stamps)
	copy(d.regions, st.regions)
	copy(d.lastWrite, st.lastWrite)
	copy(d.rwpv, st.rwpv)
	copy(d.words, st.words)
	d.clock = st.clock
	d.pcg = st.pcg
	s := &d.Stat
	s.Lookups, s.Writes, s.Cleans = st.lookups, st.writes, st.cleans
	s.EntryInserts, s.Evictions, s.EvictionBlocks = st.entryInserts, st.evictions, st.evictionBlks
	s.DirtyAtEviction.CopyFrom(&st.dirtyAtEviction)
}
