package event

import "testing"

// BenchmarkScheduleRun measures raw engine throughput: schedule-and-fire
// of chained events, the backbone cost of every simulation.
func BenchmarkScheduleRun(b *testing.B) {
	var e Engine
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	e.Run()
}

// BenchmarkScheduleFanout measures the engine with many pending
// events: up to 1,024, due up to 1,023 cycles ahead, so three quarters
// of them sit in the far list. Offsets are relative to the advancing
// clock: the engine forbids scheduling in the past.
func BenchmarkScheduleFanout(b *testing.B) {
	var e Engine
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Cycle(i%1024), func() {})
		if i%1024 == 1023 { // 1,024 events pending
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkOverflowSchedule measures the far-future path: events 2^24
// cycles out land in the sorted far list (binary-search insert) and
// fire from its head.
func BenchmarkOverflowSchedule(b *testing.B) {
	var e Engine
	horizon := Cycle(1) << 24
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+horizon+Cycle(1+i%64), fn)
		if i%256 == 255 { // 256 events pending
			e.Run()
		}
	}
	e.Run()
}
