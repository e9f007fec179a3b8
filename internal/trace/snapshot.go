package trace

import (
	"math/rand/v2"

	"dbisim/internal/addr"
)

// ptSlot is one live page-table entry: its probe position plus the
// mapping, enough to rebuild translation behavior exactly. Stale slots
// (older generations) never influence translate, so they are not saved
// — this is what keeps GenState O(live pages), not O(table capacity).
type ptSlot struct {
	idx uint64
	key uint64
	val uint64
}

// GenState is a checkpoint of a synthetic generator: cursors, the live
// page-table entries, the used-page bitset and the rng state. The zero
// value is ready; buffers are reused across captures.
type GenState struct {
	p         Profile
	base      addr.Addr
	spanPages uint64
	blocks    uint64
	hotBlocks uint64

	seqCursor    uint64
	strideCursor uint64
	repeat       int
	curBlock     uint64
	repLeft      int
	meanGap      float64
	gapCarry     float64

	ptLen uint64 // table capacity; probing depends on it, so it is pinned
	pt    []ptSlot
	used  []uint64

	pcg rand.PCG
}

// Snapshot captures the generator's full mid-stream state into st:
// after Restore(st) it produces exactly the stream it would have
// produced next.
func (s *Synth) Snapshot(st *GenState) {
	st.p = s.p
	st.base = s.base
	st.spanPages = s.spanPages
	st.blocks, st.hotBlocks = s.blocks, s.hotBlocks
	st.seqCursor, st.strideCursor = s.seqCursor, s.strideCursor
	st.repeat = s.repeat
	st.curBlock, st.repLeft = s.curBlock, s.repLeft
	st.meanGap, st.gapCarry = s.meanGap, s.gapCarry

	t := &s.pt
	st.ptLen = uint64(len(t.keys))
	st.pt = st.pt[:0]
	for i, g := range t.gens {
		if g == t.gen {
			st.pt = append(st.pt, ptSlot{uint64(i), t.keys[i], t.vals[i]})
		}
	}
	words := int((s.spanPages + 63) / 64)
	if cap(st.used) < words {
		st.used = make([]uint64, words)
	}
	st.used = st.used[:words]
	copy(st.used, s.used.words[:words])

	st.pcg = s.pcg
}

// Restore rewinds the generator to the captured state. Its tables are
// resized when the checkpoint was taken under a different profile, and
// the rng resumes the exact captured stream.
func (s *Synth) Restore(st *GenState) {
	s.p = st.p
	s.base = st.base
	s.spanPages = st.spanPages
	s.blocks, s.hotBlocks = st.blocks, st.hotBlocks
	s.seqCursor, s.strideCursor = st.seqCursor, st.strideCursor
	s.repeat = st.repeat
	s.curBlock, s.repLeft = st.curBlock, st.repLeft
	s.meanGap, s.gapCarry = st.meanGap, st.gapCarry

	// Table capacity determines probe positions, so the restored table
	// must have exactly the captured capacity. A generation bump (or a
	// fresh allocation on a size change) invalidates every slot, then
	// the live ones are written back.
	t := &s.pt
	if uint64(len(t.keys)) != st.ptLen {
		t.keys = make([]uint64, st.ptLen)
		t.vals = make([]uint64, st.ptLen)
		t.gens = make([]uint32, st.ptLen)
		t.mask = st.ptLen - 1
		t.gen = 1
	} else {
		t.gen++
		if t.gen == 0 {
			for i := range t.gens {
				t.gens[i] = 0
			}
			t.gen = 1
		}
	}
	for _, sl := range st.pt {
		t.gens[sl.idx], t.keys[sl.idx], t.vals[sl.idx] = t.gen, sl.key, sl.val
	}

	if len(s.used.words) < len(st.used) {
		s.used.words = make([]uint64, len(st.used))
	}
	n := copy(s.used.words, st.used)
	for i := n; i < len(s.used.words); i++ {
		s.used.words[i] = 0
	}

	s.pcg = st.pcg
}
