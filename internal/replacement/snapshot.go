package replacement

import "math/rand/v2"

// PolicyState is a checkpoint container shared by every policy: each
// policy fills the fields it owns and ignores the rest. One shared
// shape keeps the cache layer policy-agnostic — it holds a PolicyState
// per cache and lets the concrete policy interpret it. The zero value
// is ready; buffers are reused across captures.
type PolicyState struct {
	stamps []uint64 // LRU/TA-DIP recency stamps
	clock  uint64
	rrpv   []uint8 // (D)RRIP re-reference values
	psel   []int   // set-dueling selectors
	pcg    rand.PCG
}

func copyU64(dst []uint64, src []uint64) []uint64 {
	if len(dst) != len(src) {
		dst = make([]uint64, len(src))
	}
	copy(dst, src)
	return dst
}

func copyU8(dst []uint8, src []uint8) []uint8 {
	if len(dst) != len(src) {
		dst = make([]uint8, len(src))
	}
	copy(dst, src)
	return dst
}

func copyInt(dst []int, src []int) []int {
	if len(dst) != len(src) {
		dst = make([]int, len(src))
	}
	copy(dst, src)
	return dst
}

// Snapshot implements Policy.
func (l *LRU) Snapshot(st *PolicyState) {
	st.stamps = copyU64(st.stamps, l.s.stamps)
	st.clock = l.s.clock
}

// Restore implements Policy.
func (l *LRU) Restore(st *PolicyState) {
	copy(l.s.stamps, st.stamps)
	l.s.clock = st.clock
}

// Snapshot implements Policy.
func (d *TADIP) Snapshot(st *PolicyState) {
	st.stamps = copyU64(st.stamps, d.s.stamps)
	st.clock = d.s.clock
	st.psel = copyInt(st.psel, d.psel)
	st.pcg = d.pcg
}

// Restore implements Policy.
func (d *TADIP) Restore(st *PolicyState) {
	copy(d.s.stamps, st.stamps)
	d.s.clock = st.clock
	copy(d.psel, st.psel)
	d.pcg = st.pcg
}

// Snapshot implements Policy.
func (d *DRRIP) Snapshot(st *PolicyState) {
	st.rrpv = copyU8(st.rrpv, d.r.rrpv)
	st.psel = copyInt(st.psel, d.psel)
	st.pcg = d.pcg
}

// Restore implements Policy.
func (d *DRRIP) Restore(st *PolicyState) {
	copy(d.r.rrpv, st.rrpv)
	copy(d.psel, st.psel)
	d.pcg = st.pcg
}
