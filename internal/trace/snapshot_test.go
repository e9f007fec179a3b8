package trace

import (
	"testing"

	"dbisim/internal/addr"
)

func TestGeneratorSnapshotRestoreContinuation(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g := New(p, addr.Addr(1<<36), 42)
	for i := 0; i < 5000; i++ {
		g.Next()
	}
	var st GenState
	g.Snapshot(&st)
	want := make([]Record, 2000)
	for i := range want {
		want[i] = g.Next()
	}
	g.Restore(&st)
	for i := range want {
		if got := g.Next(); got != want[i] {
			t.Fatalf("record %d after restore = %+v, want %+v", i, got, want[i])
		}
	}
}

func TestGeneratorRestoreAcrossProfiles(t *testing.T) {
	// A checkpoint must survive the generator being reused for a
	// different benchmark in between — the pooled-machine reality.
	pm, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	g := New(pm, addr.Addr(1<<36), 7)
	for i := 0; i < 3000; i++ {
		g.Next()
	}
	var st GenState
	g.Snapshot(&st)
	want := make([]Record, 1000)
	for i := range want {
		want[i] = g.Next()
	}

	g.Reset(ps, addr.Addr(2<<36), 99)
	for i := 0; i < 500; i++ {
		g.Next()
	}

	g.Restore(&st)
	if g.Name() != "mcf" {
		t.Fatalf("restored name = %q, want mcf", g.Name())
	}
	for i := range want {
		if got := g.Next(); got != want[i] {
			t.Fatalf("record %d after cross-profile restore = %+v, want %+v", i, got, want[i])
		}
	}
}
