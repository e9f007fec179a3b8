package replacement

import "math/bits"

// lowRanks returns the mask of the k ways of one set (bit w = way w)
// that come first in eviction order, from a single pass over the set's
// column vals. Eviction order is key(w) = vals[w]^flip ascending, ties
// to the lower way, so bit w is set iff fewer than k ways come before
// w. flip is 0 for recency stamps (smallest first) and all ones for
// RRPVs (largest first). len(vals) must be at most 64.
//
// The first k ways are selected outright; the scan remembers the
// selected way with the largest key ("worst"). A later way replaces
// worst only if its key is strictly smaller (on a tie it loses, having
// the higher index), and the new worst is found by walking the mask's
// k bits. For k = 2 this is a two-minimum scan.
func lowRanks[T uint8 | uint64](vals []T, flip T, k int) uint64 {
	n := min(max(k, 0), len(vals))
	var mask uint64
	var worstKey T
	worst := 0
	for w, v := range vals[:n] {
		mask |= 1 << uint(w)
		if v ^= flip; v >= worstKey {
			worst, worstKey = w, v
		}
	}
	for w := n; w < len(vals); w++ {
		if vals[w]^flip >= worstKey {
			continue
		}
		mask ^= 1<<uint(worst) | 1<<uint(w)
		worstKey = 0
		for m := mask; m != 0; m &= m - 1 {
			u := bits.TrailingZeros64(m)
			if x := vals[u] ^ flip; x >= worstKey {
				worst, worstKey = u, x
			}
		}
	}
	return mask
}

// LowRanks implements Policy: smaller stamps are closer to eviction.
func (s *lruState) LowRanks(set, k int) uint64 {
	base := set * s.ways
	return lowRanks(s.stamps[base:base+s.ways], 0, k)
}

// LowRanks implements Policy: larger RRPVs are closer to eviction.
func (r *rripState) LowRanks(set, k int) uint64 {
	base := set * r.ways
	return lowRanks(r.rrpv[base:base+r.ways], ^uint8(0), k)
}
