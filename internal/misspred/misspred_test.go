package misspred

import (
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/event"
)

func prm() config.MissPredictorParams {
	return config.MissPredictorParams{
		Threshold:   0.95,
		EpochCycles: 1000,
		SampledSets: 32,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(prm(), 2048, 2); err != nil {
		t.Fatal(err)
	}
	bad := prm()
	bad.Threshold = 0
	if _, err := New(bad, 2048, 2); err == nil {
		t.Fatal("zero threshold accepted")
	}
	bad = prm()
	bad.EpochCycles = 0
	if _, err := New(bad, 2048, 2); err == nil {
		t.Fatal("zero epoch accepted")
	}
	bad = prm()
	bad.SampledSets = 0
	if _, err := New(bad, 2048, 2); err == nil {
		t.Fatal("zero sampled sets accepted")
	}
}

func TestSampledSets(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	n := 0
	for s := 0; s < 2048; s++ {
		if p.Sampled(s) {
			n++
		}
	}
	if n != 32 {
		t.Fatalf("%d sampled sets, want 32", n)
	}
}

func TestBypassAfterHighMissEpoch(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	// All sampled lookups miss during epoch 0.
	for i := 0; i < 100; i++ {
		p.Observe(0, 0, false, event.Cycle(i))
	}
	// No bypass before the epoch boundary.
	if p.PredictMiss(0, 1, 500) {
		t.Fatal("bypassing mid-epoch without evidence")
	}
	// After the boundary the thread enters bypass mode.
	if !p.PredictMiss(0, 1, 1001) {
		t.Fatal("no bypass after a 100% miss epoch")
	}
	if !p.threads[0].bypass {
		t.Fatal("thread 0 not in bypass mode")
	}
	// Sampled sets are never bypassed.
	if p.PredictMiss(0, 0, 1002) {
		t.Fatal("sampled set bypassed")
	}
}

func TestNoBypassBelowThreshold(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	// 90% miss rate: below the 0.95 threshold.
	for i := 0; i < 90; i++ {
		p.Observe(0, 0, false, event.Cycle(i))
	}
	for i := 0; i < 10; i++ {
		p.Observe(0, 0, true, event.Cycle(90+i))
	}
	if p.PredictMiss(0, 1, 1001) {
		t.Fatal("bypassing at 90% miss rate")
	}
}

func TestBypassRevoked(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	for i := 0; i < 50; i++ {
		p.Observe(0, 0, false, event.Cycle(i))
	}
	if !p.PredictMiss(0, 1, 1001) {
		t.Fatal("not bypassing")
	}
	// Next epoch: sampled sets now hit (phase change).
	for i := 0; i < 50; i++ {
		p.Observe(0, 0, true, event.Cycle(1002+uint64(i)))
	}
	if p.PredictMiss(0, 1, 2500) {
		t.Fatal("bypass not revoked after hit-heavy epoch")
	}
}

func TestInsufficientSamplesKeepDecision(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	for i := 0; i < 100; i++ {
		p.Observe(0, 0, false, event.Cycle(i))
	}
	if !p.PredictMiss(0, 1, 1001) {
		t.Fatal("not bypassing")
	}
	// Epoch with only 3 observations: decision must persist.
	p.Observe(0, 0, true, 1500)
	p.Observe(0, 0, true, 1600)
	p.Observe(0, 0, true, 1700)
	if !p.PredictMiss(0, 1, 2100) {
		t.Fatal("decision dropped on insufficient samples")
	}
}

func TestThreadsIndependent(t *testing.T) {
	p, _ := New(prm(), 2048, 2)
	for i := 0; i < 50; i++ {
		p.Observe(0, 0, false, event.Cycle(i)) // thread 0 misses
		p.Observe(1, 0, true, event.Cycle(i))  // thread 1 hits
	}
	if !p.PredictMiss(0, 1, 1001) {
		t.Fatal("thread 0 not bypassing")
	}
	if p.PredictMiss(1, 1, 1002) {
		t.Fatal("thread 1 bypassing")
	}
}

func TestUnsampledObservationsIgnored(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	// Misses in non-sampled sets must not drive the decision.
	for i := 0; i < 100; i++ {
		p.Observe(0, 3, false, event.Cycle(i))
	}
	if p.PredictMiss(0, 1, 1001) {
		t.Fatal("decision driven by unsampled sets")
	}
}

func TestEpochCounter(t *testing.T) {
	p, _ := New(prm(), 2048, 1)
	for i := 0; i < 20; i++ {
		p.Observe(0, 0, false, event.Cycle(i))
	}
	// Each epoch that closes restarts at the closing call: 1001 and
	// 2500 close one, 2600 falls inside the second.
	for _, c := range []struct{ now, start event.Cycle }{{1001, 1001}, {2500, 2500}, {2600, 2500}} {
		p.PredictMiss(0, 1, c.now)
		if p.epochStart != c.start {
			t.Fatalf("after a call at %d the epoch starts at %d, want %d", c.now, p.epochStart, c.start)
		}
	}
}

func TestTinyLLC(t *testing.T) {
	// More sampled sets than sets: every set is sampled, never bypass.
	p, err := New(prm(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if !p.Sampled(s) {
			t.Fatalf("set %d not sampled in tiny LLC", s)
		}
	}
}
