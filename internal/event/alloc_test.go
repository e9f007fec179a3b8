package event

import "testing"

// TestSteadyStateDoesNotAllocate pins the zero-allocation contract of
// the scheduling hot paths: the chained schedule-fire loop through the
// ring, and the far-list path (sorted insert, fire) once the list's
// capacity has grown.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var e Engine
	if n := testing.AllocsPerRun(1000, func() {
		e.After(3, func() {})
		e.Step()
	}); n != 0 {
		t.Fatalf("schedule-fire chain allocates %.1f per op", n)
	}

	// Far steady state: each op parks one event 2^24 cycles out, then
	// fires it.
	const far = Cycle(1) << 24
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+far+5, func() {})
		e.Step()
	}); n != 0 {
		t.Fatalf("far insert/fire allocates %.1f per op", n)
	}
}
