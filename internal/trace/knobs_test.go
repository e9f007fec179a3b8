package trace

import (
	"testing"

	"dbisim/internal/addr"
)

// TestStoreHotBiasConcentratesWrites: with a strong bias, stores land in
// the hot region while loads keep streaming — the small-write-working-set
// property the DBI exploits.
func TestStoreHotBiasConcentratesWrites(t *testing.T) {
	p, _ := ByName("bzip2") // StoreHotBias 0.97
	g := New(p, 0, 3)
	hotVBlocks := g.hotBlocks
	// Track virtual blocks via reverse page map.
	rev := func(a addr.Addr) uint64 {
		pblock := uint64(a) / 64
		ppage := pblock / pageBlocks
		for vp, pp := range g.pageMap() {
			if pp == ppage {
				return vp*pageBlocks + pblock%pageBlocks
			}
		}
		t.Fatalf("unmapped physical block %d", pblock)
		return 0
	}
	hotStores, stores := 0, 0
	for i := 0; i < 20000; i++ {
		r := g.Next()
		if r.Kind != Store {
			continue
		}
		stores++
		if rev(r.Addr) < hotVBlocks {
			hotStores++
		}
	}
	if stores == 0 {
		t.Fatal("no stores")
	}
	if frac := float64(hotStores) / float64(stores); frac < 0.9 {
		t.Fatalf("hot-store fraction %.2f, want >= 0.9 at bias 0.97", frac)
	}
}

// TestRepeatRunsSurviveBiasedStores: a biased store interleaved into a
// sequential read run must not reset the run's cursor.
func TestRepeatRunsSurviveBiasedStores(t *testing.T) {
	p := Profile{
		Name: "x", FootprintBytes: 1 << 20, MemFraction: 0.5,
		StoreFraction: 0.3, SeqWeight: 1, SeqRepeat: 4,
		HotFraction: 0.01, HotAccessFraction: 0, StoreHotBias: 1,
	}
	g := New(p, 0, 9)
	// Collect the virtual blocks of loads only: they must be sequential
	// runs of length SeqRepeat.
	var loads []uint64
	for len(loads) < 64 {
		r := g.Next()
		if r.Kind == Load {
			loads = append(loads, uint64(r.Addr)/64)
		}
	}
	// Translate back to virtual via page map and check monotone groups.
	rev := map[uint64]uint64{}
	for vp, pp := range g.pageMap() {
		rev[pp] = vp
	}
	var virt []uint64
	for _, pb := range loads {
		vp, ok := rev[pb/pageBlocks]
		if !ok {
			t.Fatal("unmapped load block")
		}
		virt = append(virt, vp*pageBlocks+pb%pageBlocks)
	}
	// Every load is within +1 of the previous or equal (runs advance by
	// one block at a time).
	for i := 1; i < len(virt); i++ {
		if virt[i] != virt[i-1] && virt[i] != virt[i-1]+1 {
			t.Fatalf("load stream broken at %d: %d -> %d", i, virt[i-1], virt[i])
		}
	}
}

// TestSeqRepeatControlsBlockReuse: higher SeqRepeat means fewer distinct
// blocks for the same access count.
func TestSeqRepeatControlsBlockReuse(t *testing.T) {
	distinct := func(rep int) int {
		p := Profile{
			Name: "x", FootprintBytes: 8 << 20, MemFraction: 0.5,
			SeqWeight: 1, SeqRepeat: rep, HotFraction: 0.01,
		}
		g := New(p, 0, 4)
		seen := map[addr.Addr]bool{}
		for i := 0; i < 8000; i++ {
			seen[g.Next().Addr] = true
		}
		return len(seen)
	}
	d1, d8 := distinct(1), distinct(8)
	if d8*4 > d1 {
		t.Fatalf("SeqRepeat 8 touched %d blocks vs %d at repeat 1", d8, d1)
	}
}
