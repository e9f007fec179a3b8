package event

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	for _, tc := range []struct{ in, want []Cycle }{
		{in: []Cycle{10, 5, 7}, want: []Cycle{5, 7, 10}},
		// 256 is the first delta past the ring: in a ring slot it would
		// share now's slot and fire before the sooner events.
		{in: []Cycle{256, 255, 10, 5, 7}, want: []Cycle{5, 7, 10, 255, 256}},
	} {
		var e Engine
		var got []Cycle
		for _, c := range tc.in {
			e.At(c, func() { got = append(got, c) })
		}
		e.Run()
		if len(got) != len(tc.want) {
			t.Fatalf("fired %v, want %v", got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
		}
		if last := tc.want[len(tc.want)-1]; e.Now() != last {
			t.Fatalf("Now = %d, want %d", e.Now(), last)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-cycle events fired out of scheduling order: %v", got)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	var e Engine
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.At(1, nil)
}

func TestScheduleAfterChains(t *testing.T) {
	var e Engine
	var ticks []Cycle
	var step func()
	step = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(4, step)
		}
	}
	e.After(4, step)
	e.Run()
	for i, c := range ticks {
		if want := Cycle(4 * (i + 1)); c != want {
			t.Fatalf("tick %d at cycle %d, want %d", i, c, want)
		}
	}
}

func TestStop(t *testing.T) {
	var e Engine
	fired := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i), func() {
			fired++
			if fired == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d, want 3 after Stop", fired)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
}

func TestStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 17; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run()
	if e.Fired() != 17 {
		t.Fatalf("Fired = %d, want 17", e.Fired())
	}
}

// Property: for any set of scheduled cycles, events fire in nondecreasing
// cycle order and the engine clock equals the max cycle at the end.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Engine
		var fireOrder []Cycle
		var max Cycle
		for _, r := range raw {
			c := Cycle(r)
			if c > max {
				max = c
			}
			e.At(c, func() { fireOrder = append(fireOrder, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fireOrder); i++ {
			if fireOrder[i] < fireOrder[i-1] {
				return false
			}
		}
		return len(raw) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEveryFiresPeriodicallyUntilCancelled(t *testing.T) {
	var e Engine
	var fired []Cycle
	cancel := e.Every(10, func() { fired = append(fired, e.Now()) })
	e.At(35, func() { cancel() })
	e.At(100, func() {}) // keeps the clock advancing past the cancel
	e.Run()
	want := []Cycle{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 || e.Now() != 100 {
		t.Fatalf("engine did not drain: pending=%d now=%d", e.Pending(), e.Now())
	}
}

func TestEveryDoesNotReorderSameCycleEvents(t *testing.T) {
	// Two engines, one with a periodic sampler interleaved: the relative
	// order of the real events must be identical.
	run := func(sample bool) []int {
		var e Engine
		var order []int
		if sample {
			e.Every(5, func() {})
		}
		for i := 0; i < 20; i++ {
			i := i
			e.At(Cycle(5*(i%4)), func() { order = append(order, i) })
		}
		e.At(16, e.Stop) // the live periodic event means Run would never drain
		e.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order perturbed at %d: %v vs %v", i, a, b)
		}
	}
}
