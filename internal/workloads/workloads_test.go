package workloads

import (
	"testing"

	"dbisim/internal/trace"
)

func TestGenerateShapeAndDeterminism(t *testing.T) {
	a := Generate(4, 20, 7)
	b := Generate(4, 20, 7)
	if len(a) != 20 {
		t.Fatalf("got %d mixes", len(a))
	}
	valid := map[string]bool{}
	for _, n := range trace.Benchmarks() {
		valid[n] = true
	}
	for i := range a {
		if len(a[i].Benches) != 4 {
			t.Fatalf("mix %d has %d benches", i, len(a[i].Benches))
		}
		for j, bench := range a[i].Benches {
			if !valid[bench] {
				t.Fatalf("unknown benchmark %q", bench)
			}
			if a[i].Benches[j] != b[i].Benches[j] {
				t.Fatal("generation not deterministic")
			}
		}
		if a[i].Name == "" {
			t.Fatal("unnamed mix")
		}
	}
	c := Generate(4, 20, 8)
	same := true
	for i := range a {
		for j := range a[i].Benches {
			if a[i].Benches[j] != c[i].Benches[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical mixes")
	}
}

func TestGenerateCoversIntensityClasses(t *testing.T) {
	mixes := Generate(8, 60, 3)
	seen := map[string]bool{}
	for _, m := range mixes {
		for _, b := range m.Benches {
			seen[b] = true
		}
	}
	// A broad sweep should touch most benchmark models.
	if len(seen) < 10 {
		t.Fatalf("only %d distinct benchmarks across 60 8-core mixes", len(seen))
	}
}

func TestRepresentative(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		mixes := Representative(cores)
		if len(mixes) == 0 {
			t.Fatal("no representative mixes")
		}
		for _, m := range mixes {
			if len(m.Benches) != cores {
				t.Fatalf("%s has %d benches, want %d", m.Name, len(m.Benches), cores)
			}
			for _, b := range m.Benches {
				if _, err := trace.ByName(b); err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
			}
		}
	}
}
