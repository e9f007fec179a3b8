package event

import (
	"reflect"
	"testing"
)

// script runs a fixed scheduling scenario — same-cycle FIFO ties, all
// three wheel horizons, the overflow list, a cancellation, a recurring
// tick — and returns the firing order.
func script(e *Engine) []int {
	var order []int
	mark := func(id int) Func { return func() { order = append(order, id) } }
	e.After(3, mark(0))
	e.After(3, mark(1)) // same-cycle tie: FIFO with 0
	e.At(300, mark(2))  // level-1 horizon
	e.At(70_000, mark(3))
	e.At(20_000_000, mark(4)) // beyond level 2: overflow
	h := e.After(5, mark(99))
	h.Cancel()
	n := 0
	cancel := e.Every(1000, func() {
		order = append(order, 1000+n)
		n++
		if n == 3 {
			e.Stop()
		}
	})
	defer cancel()
	e.Run()
	return order
}

// TestEngineResetReplaysIdentically fills an engine with events across
// every internal structure, drains it mid-flight (the first step of
// Restore), and requires the replayed script to fire in exactly the
// order a factory-fresh engine produces — with zeroed clock, fired
// counter, and pending count.
func TestEngineResetReplaysIdentically(t *testing.T) {
	var fresh Engine
	want := script(&fresh)

	var e Engine
	// Dirty the engine: park events everywhere, fire a few, then stop.
	for i := 0; i < 10; i++ {
		e.After(Cycle(1+i*i*i*i), func() {})
	}
	e.At(50_000_000, func() {})
	e.RunUntil(100)

	e.drain()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 {
		t.Fatalf("after drain: now=%d fired=%d pending=%d, want all zero",
			e.Now(), e.Fired(), e.Pending())
	}
	if got := script(&e); !reflect.DeepEqual(got, want) {
		t.Errorf("replay after drain fired %v, fresh engine fired %v", got, want)
	}
}

// TestEngineResetTwice guards the trivial but easy-to-break case:
// draining an already-drained (or never-used) engine is a no-op.
func TestEngineResetTwice(t *testing.T) {
	var e Engine
	e.drain()
	e.drain()
	fired := false
	e.After(1, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("event did not fire after double drain")
	}
}
