package trace

import (
	"testing"

	"dbisim/internal/addr"
)

// TestGeneratorResetMatchesFresh exhausts a generator on one profile,
// resets it onto another (different footprint, so the page table and
// used-page bitset must regrow or re-clear), and requires the record
// stream to be identical to a freshly constructed generator's — the
// generation-stamped page table must hide every stale translation.
func TestGeneratorResetMatchesFresh(t *testing.T) {
	profiles := []string{"stream", "mcf", "sphinx3"}
	for _, from := range profiles {
		for _, to := range profiles {
			pFrom, err := ByName(from)
			if err != nil {
				t.Fatal(err)
			}
			pTo, err := ByName(to)
			if err != nil {
				t.Fatal(err)
			}
			g := New(pFrom, addr.Addr(1<<36), 11)
			for i := 0; i < 50_000; i++ {
				g.Next()
			}
			g.Reset(pTo, addr.Addr(2<<36), 23)
			fresh := New(pTo, addr.Addr(2<<36), 23)
			for i := 0; i < 50_000; i++ {
				if got, want := g.Next(), fresh.Next(); got != want {
					t.Fatalf("%s->%s: record %d diverges: %+v vs %+v", from, to, i, got, want)
				}
			}
		}
	}
}
