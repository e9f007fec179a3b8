package dbi

import "dbisim/internal/addr"

// Entry is a value snapshot of one DBI entry: the valid bit, the region
// (row) tag and the population of the dirty bit vector. It is how tests
// observe the columnar store, which holds no Entry records.
type Entry struct {
	Valid  bool
	Region RegionID
	Dirty  int // number of dirty blocks the entry tracks
}

// EntryAt returns a snapshot of the entry at (set, way). Invalid slots
// read as the zero Entry regardless of their stale contents.
func (d *DBI) EntryAt(set, way int) Entry {
	e := set*d.ways + way
	if !d.validAt(e) {
		return Entry{}
	}
	return Entry{Valid: true, Region: d.regions[e], Dirty: d.dirtyCountOf(e)}
}

// AllDirtyBlocks lists every dirty block the DBI tracks, grouped by
// entry (and therefore by DRAM row).
func (d *DBI) AllDirtyBlocks() []addr.BlockAddr {
	var out []addr.BlockAddr
	for e := range d.stamps {
		if d.validAt(e) {
			out = d.blocksOfInto(e, out)
		}
	}
	return out
}

// scanValidEntries and scanDirtyCount count the live entries and the
// dirty blocks by scanning the columns: the oracle for ValidEntries and
// DirtyCount, which return running counts.
func (d *DBI) scanValidEntries() int {
	n := 0
	for e := range d.stamps {
		if d.validAt(e) {
			n++
		}
	}
	return n
}

func (d *DBI) scanDirtyCount() int {
	n := 0
	for e := range d.stamps {
		if d.validAt(e) {
			n += d.dirtyCountOf(e)
		}
	}
	return n
}
