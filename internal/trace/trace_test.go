package trace

import (
	"math"
	"testing"

	"dbisim/internal/addr"
)

func TestBenchmarksOrder(t *testing.T) {
	names := Benchmarks()
	if len(names) != 14 {
		t.Fatalf("got %d benchmarks, want 14", len(names))
	}
	// Figure 6 order: first mcf, last bwaves.
	if names[0] != "mcf" || names[len(names)-1] != "bwaves" {
		t.Fatalf("order wrong: %v", names)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "libquantum" {
		t.Fatalf("got %q", p.Name)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range profiles {
		if p.FootprintBytes == 0 {
			t.Errorf("%s: zero footprint", p.Name)
		}
		if p.MemFraction <= 0 || p.MemFraction > 1 {
			t.Errorf("%s: MemFraction %v", p.Name, p.MemFraction)
		}
		if p.StoreFraction < 0 || p.StoreFraction > 1 {
			t.Errorf("%s: StoreFraction %v", p.Name, p.StoreFraction)
		}
		if w := p.SeqWeight + p.StrideWeight + p.RandWeight; math.Abs(w-1) > 1e-9 {
			t.Errorf("%s: pattern weights sum to %v", p.Name, w)
		}
	}
}

func TestByIntensityPartition(t *testing.T) {
	seen := map[string]int{}
	for _, r := range []Intensity{Low, Medium, High} {
		for _, w := range []Intensity{Low, Medium, High} {
			for _, n := range ByIntensity(r, w) {
				seen[n]++
			}
		}
	}
	if len(seen) != 14 {
		t.Fatalf("intensity classes cover %d benchmarks, want 14", len(seen))
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("%s appears in %d classes", n, c)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("mcf")
	a := New(p, 0, 42)
	b := New(p, 0, 42)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("record %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	c := New(p, 0, 43)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorRespectsFootprintAndBase(t *testing.T) {
	p, _ := ByName("stream")
	base := addr.Addr(1 << 32)
	g := New(p, base, 7)
	// Physical placement randomizes pages within a 4× footprint span.
	span := addr.Addr(4 * p.FootprintBytes)
	for i := 0; i < 20000; i++ {
		r := g.Next()
		if r.Addr < base || r.Addr >= base+span {
			t.Fatalf("address %#x outside [%#x, %#x)", r.Addr, base, base+span)
		}
	}
}

func TestPageTranslationStableAndPageAligned(t *testing.T) {
	p, _ := ByName("stream")
	g := New(p, 0, 7)
	a := g.translate(3)
	if g.translate(3) != a {
		t.Fatal("translation not stable")
	}
	// Same virtual page, same physical page; offset preserved.
	b := g.translate(4)
	if b/pageBlocks != a/pageBlocks {
		t.Fatal("blocks of one virtual page split across physical pages")
	}
	if b%pageBlocks != 4 {
		t.Fatalf("page offset not preserved: %d", b%pageBlocks)
	}
	// Different virtual pages get different physical pages.
	c := g.translate(64 * 7)
	if c/pageBlocks == a/pageBlocks {
		t.Fatal("two virtual pages share a physical page")
	}
}

func TestGeneratorStoreFraction(t *testing.T) {
	p, _ := ByName("lbm") // StoreFraction 0.45
	g := New(p, 0, 1)
	stores := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Kind == Store {
			stores++
		}
	}
	got := float64(stores) / n
	if math.Abs(got-p.StoreFraction) > 0.02 {
		t.Fatalf("store fraction %v, want ~%v", got, p.StoreFraction)
	}
}

func TestGeneratorMemFraction(t *testing.T) {
	p, _ := ByName("mcf") // MemFraction 0.40
	g := New(p, 0, 1)
	var insts, mems uint64
	const n = 50000
	for i := 0; i < n; i++ {
		r := g.Next()
		insts += uint64(r.Gap) + 1
		mems++
	}
	got := float64(mems) / float64(insts)
	if math.Abs(got-p.MemFraction) > 0.03 {
		t.Fatalf("memory fraction %v, want ~%v", got, p.MemFraction)
	}
}

func TestStreamingProfileIsSequential(t *testing.T) {
	p, _ := ByName("stream")
	g := New(p, 0, 3)
	// With SeqWeight 0.95 and block-level repeats, consecutive accesses
	// are overwhelmingly the same block or the next one.
	adjacent, total := 0, 0
	prev := g.Next().Addr >> 6
	for i := 0; i < 10000; i++ {
		cur := g.Next().Addr >> 6
		if cur == prev || cur == prev+1 {
			adjacent++
		}
		total++
		prev = cur
	}
	if frac := float64(adjacent) / float64(total); frac < 0.8 {
		t.Fatalf("stream adjacency %v, want > 0.8", frac)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind strings wrong")
	}
}

func TestIntensityString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("Intensity strings wrong")
	}
	if Intensity(9).String() != "unknown" {
		t.Fatal("unknown intensity string")
	}
}
