package addr

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if g.BlockSize != 64 || g.RowSize != 8192 || g.NumBanks != 8 {
		t.Fatalf("unexpected default geometry: %v", g)
	}
	if got := g.BlocksPerRow(); got != 128 {
		t.Fatalf("BlocksPerRow = %d, want 128", got)
	}
}

func TestNewGeometryErrors(t *testing.T) {
	cases := []struct {
		name              string
		block, row, banks uint64
	}{
		{"zero block", 0, 8192, 8},
		{"non-pow2 block", 48, 8192, 8},
		{"zero row", 64, 0, 8},
		{"non-pow2 row", 64, 3000, 8},
		{"zero banks", 64, 8192, 0},
		{"non-pow2 banks", 64, 8192, 6},
		{"row smaller than block", 128, 64, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewGeometry(c.block, c.row, c.banks); err == nil {
				t.Fatalf("NewGeometry(%d,%d,%d) succeeded, want error", c.block, c.row, c.banks)
			}
		})
	}
}

func TestBlockRowMapping(t *testing.T) {
	g := Default()
	a := Addr(0x12345678)
	b := g.BlockOf(a)
	if b != BlockAddr(a>>6) {
		t.Fatalf("BlockOf(%#x) = %#x, want %#x", a, b, a>>6)
	}
	if g.RowOf(b) != RowID(a>>13) {
		t.Fatalf("RowOf(BlockOf(%#x)) = %d, want %d", a, g.RowOf(b), a>>13)
	}
}

func TestColumnAndReconstruction(t *testing.T) {
	g := Default()
	r := RowID(1234)
	for col := 0; col < g.BlocksPerRow(); col += 13 {
		b := g.BlockInRow(r, col)
		if g.RowOf(b) != r {
			t.Fatalf("RowOf(BlockInRow(%d,%d)) = %d, want %d", r, col, g.RowOf(b), r)
		}
		if g.ColumnOf(b) != col {
			t.Fatalf("ColumnOf = %d, want %d", g.ColumnOf(b), col)
		}
	}
}

func TestBankInterleaving(t *testing.T) {
	g := Default()
	// Consecutive rows must land in consecutive banks, wrapping at 8.
	for r := RowID(0); r < 32; r++ {
		want := int(r) % 8
		if got := g.BankOf(r); got != want {
			t.Fatalf("BankOf(%d) = %d, want %d", r, got, want)
		}
	}
}

// Property: block -> (row, column) -> block round-trips for any address.
func TestQuickRoundTrip(t *testing.T) {
	g := Default()
	f := func(raw uint64) bool {
		b := BlockAddr(raw % (1 << 40))
		return g.BlockInRow(g.RowOf(b), g.ColumnOf(b)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: two blocks share a DRAM row iff their block addresses agree
// above the column bits.
func TestQuickSameRow(t *testing.T) {
	g := Default()
	f := func(x, y uint64) bool {
		bx, by := BlockAddr(x%(1<<40)), BlockAddr(y%(1<<40))
		same := g.RowOf(bx) == g.RowOf(by)
		want := bx>>7 == by>>7
		return same == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonDefaultGeometry(t *testing.T) {
	g, err := NewGeometry(64, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.BlocksPerRow() != 64 {
		t.Fatalf("BlocksPerRow = %d, want 64", g.BlocksPerRow())
	}
	b := BlockAddr(64*5 + 3)
	if g.RowOf(b) != 5 {
		t.Fatalf("RowOf = %d, want 5", g.RowOf(b))
	}
	if g.ColumnOf(b) != 3 {
		t.Fatalf("ColumnOf = %d, want 3", g.ColumnOf(b))
	}
	if g.BankOf(21) != 5 {
		t.Fatalf("BankOf(21) = %d, want 5", g.BankOf(21))
	}
}
