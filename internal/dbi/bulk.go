package dbi

import "dbisim/internal/addr"

// Bulk queries (Section 7 of the paper): because the DBI is a compact,
// row-organized record of all dirty state, questions like "does this
// DRAM row/bank hold dirty blocks", "flush everything" and "is any block
// of this DMA range dirty" are answered with a handful of entry scans
// instead of a full tag-store walk. The scans walk the flat columns
// directly: validity stamps first (one dense array), bit words only for
// live entries.

// RowHasDirty reports whether any block of the DRAM row is dirty
// ("Does DRAM row R have any dirty blocks?").
func (d *DBI) RowHasDirty(r addr.RowID) bool {
	d.Stat.Lookups.Inc()
	// A row spans one or more regions depending on granularity.
	perRow := d.geo.BlocksPerRow() / d.granularity
	first := RegionID(uint64(r) * uint64(perRow))
	for i := 0; i < perRow; i++ {
		if e := d.find(first + RegionID(i)); e >= 0 && d.dirtyCountOf(e) > 0 {
			return true
		}
	}
	return false
}

// BankHasDirty reports whether any dirty block maps to the DRAM bank
// ("Does bank X have any dirty blocks?") — useful for rank/bank idle-time
// write scheduling.
func (d *DBI) BankHasDirty(bank int) bool {
	d.Stat.Lookups.Inc()
	for e := range d.stamps {
		if !d.validAt(e) || d.dirtyCountOf(e) == 0 {
			continue
		}
		base := uint64(d.regions[e]) << d.regionShift
		row := d.geo.RowOf(addr.BlockAddr(base))
		if d.geo.BankOf(row) == bank {
			return true
		}
	}
	return false
}

// Flush evicts every valid entry, returning the row-grouped writeback
// work a whole-cache flush must perform (powering down a bank,
// persistent-memory commit). After Flush the DBI is empty: no block is
// dirty.
func (d *DBI) Flush() []Eviction {
	var evs []Eviction
	for e := range d.stamps {
		if d.validAt(e) {
			evs = append(evs, d.evict(e, nil))
		}
	}
	return evs
}

// FlushRegionInto harvests every dirty block of b's region, appending
// to dst, and invalidates the entry so nothing in the region is dirty
// afterwards. This is the AWB primitive a flush coordinator wants: one
// query yields the whole row's writeback batch and retires the entry
// in the same step. Unlike a capacity eviction it is deliberate, so it
// counts as a lookup, not an eviction.
func (d *DBI) FlushRegionInto(b addr.BlockAddr, dst []addr.BlockAddr) []addr.BlockAddr {
	d.Stat.Lookups.Inc()
	e := d.find(d.RegionOf(b))
	if e < 0 {
		return dst
	}
	n := len(dst)
	dst = d.blocksOfInto(e, dst)
	d.drop(e, len(dst)-n)
	return dst
}

// DirtyInRange lists dirty blocks within [lo, hi) — the coherence query
// a bulk DMA from memory must answer before reading the range.
func (d *DBI) DirtyInRange(lo, hi addr.BlockAddr) []addr.BlockAddr {
	d.Stat.Lookups.Inc()
	if hi <= lo {
		return nil
	}
	var out []addr.BlockAddr
	for r := d.RegionOf(lo); r <= d.RegionOf(hi-1); r++ {
		e := d.find(r)
		if e < 0 {
			continue
		}
		for _, b := range d.blocksOf(e) {
			if b >= lo && b < hi {
				out = append(out, b)
			}
		}
	}
	return out
}
