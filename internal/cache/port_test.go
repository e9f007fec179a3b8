package cache

import (
	"testing"

	"dbisim/internal/event"
)

func TestPortSerializes(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var done []event.Cycle
	for i := 0; i < 3; i++ {
		p.Submit(false, 10, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	want := []event.Cycle{10, 20, 30}
	if len(done) != 3 {
		t.Fatalf("completions: %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if p.BusyCycles.Value() != 30 {
		t.Fatalf("busy cycles = %d", p.BusyCycles.Value())
	}
}

func TestPortDemandPriority(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var order []string
	// First op occupies the port; then one background and one demand op
	// queue. Demand must dispatch first even though background queued
	// earlier.
	p.Submit(false, 5, func() { order = append(order, "first") })
	p.Submit(true, 5, func() { order = append(order, "background") })
	p.Submit(false, 5, func() { order = append(order, "demand") })
	eng.Run()
	if len(order) != 3 || order[1] != "demand" || order[2] != "background" {
		t.Fatalf("order = %v", order)
	}
}

func TestPortNoPreemption(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var bgDone, demandDone event.Cycle
	p.Submit(true, 100, func() { bgDone = eng.Now() })
	// Demand arrives at cycle 1, must wait for the background op.
	eng.At(1, func() {
		p.Submit(false, 10, func() { demandDone = eng.Now() })
	})
	eng.Run()
	if bgDone != 100 {
		t.Fatalf("background done at %d", bgDone)
	}
	if demandDone != 110 {
		t.Fatalf("demand done at %d, want 110 (no preemption)", demandDone)
	}
	if p.QueueDelay.Value() != 99 {
		t.Fatalf("queue delay = %d, want 99", p.QueueDelay.Value())
	}
}

func TestPortCounters(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	p.Submit(false, 1, nil)
	p.Submit(true, 1, nil)
	p.Submit(true, 1, nil)
	eng.Run()
	if p.DemandOps.Value() != 1 || p.BackgroundOps.Value() != 2 {
		t.Fatalf("ops = %d demand, %d background", p.DemandOps.Value(), p.BackgroundOps.Value())
	}
	if p.busy || p.QueueLen() != 0 {
		t.Fatal("port not idle after run")
	}
}
