package llc

import (
	"dbisim/internal/addr"
	"dbisim/internal/event"
	"dbisim/internal/telemetry"
)

// FlushTimed writes back every dirty block, modelling the latency of the
// walk that finds them — the Section-7 "Cache Flushing" application.
//
// A conventional cache must look up every set of the tag store to locate
// its dirty blocks (powering down a bank, a persistent-memory commit), so
// the walk costs one tag access per set before any data moves. A
// DBI-augmented cache reads its (much smaller) DBI instead: the entries
// directly list the dirty blocks, row-grouped, and only those blocks need
// tag accesses to read their data.
//
// done receives the number of blocks written back and the cycles the
// flush took. The flush uses the tag port like any other traffic, so
// demand accesses still win arbitration.
func (l *LLC) FlushTimed(done func(blocks int, cycles event.Cycle)) {
	start := l.Eng.Now()
	if l.DBI != nil {
		l.flushViaDBI(start, done)
		return
	}
	l.flushViaTagWalk(start, done)
}

// flushViaTagWalk scans every set with a tag-port access, writing back
// dirty blocks as they are found.
func (l *LLC) flushViaTagWalk(start event.Cycle, done func(int, event.Cycle)) {
	written := 0
	set := 0
	var step func()
	step = func() {
		if set >= l.Cache.Sets() {
			done(written, l.Eng.Now()-start)
			return
		}
		s := set
		set++
		l.Attr.Charge(telemetry.ALLCTagFiller, uint64(l.tagLatency()))
		l.Port.Submit(true, l.tagLatency(), func() {
			l.Cache.Stats.TagLookups.Inc()
			for way := 0; way < l.Cache.Ways(); way++ {
				blk := l.Cache.BlockAt(s, way)
				if blk.Valid && blk.Dirty {
					l.Cache.SetDirty(blk.Addr, false)
					l.Attr.Charge(telemetry.ABytesWBFlush, l.Geo.BlockSize)
					l.mem.Write(blk.Addr)
					written++
				}
			}
			step()
		})
	}
	step()
}

// flushViaDBI drains the DBI: each valid entry is read (off the tag
// port, at the DBI's own latency) and its dirty blocks are written back
// after one tag access each to read the data.
func (l *LLC) flushViaDBI(start event.Cycle, done func(int, event.Cycle)) {
	evs := l.DBI.Flush()
	var blocks []addr.BlockAddr
	for _, ev := range evs {
		blocks = append(blocks, ev.Blocks...)
	}
	written := 0
	i := 0
	var step func()
	step = func() {
		if i >= len(blocks) {
			done(written, l.Eng.Now()-start)
			return
		}
		b := blocks[i]
		i++
		// DBI entry read + tag access for the block's data.
		l.Attr.Charge(telemetry.ADBIProbe, uint64(l.dbiLat))
		l.Eng.After(l.dbiLat, func() {
			l.Attr.Charge(telemetry.ALLCTagFiller, uint64(l.tagLatency()))
			l.Port.Submit(true, l.tagLatency(), func() {
				l.Cache.Stats.TagLookups.Inc()
				if l.Cache.Contains(b) {
					l.Attr.Charge(telemetry.ABytesWBFlush, l.Geo.BlockSize)
					l.mem.Write(b)
					written++
				}
				step()
			})
		})
	}
	step()
}
