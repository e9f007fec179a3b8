package dbi

import (
	"testing"

	"dbisim/internal/trace"
)

// BenchmarkShardedWriteReplay replays a write plan shaped like the
// serve_write benchmark on one 8-shard, 2048-row tracker: 128-key
// SetDirtyBatch requests of the stream benchmark's store blocks, with
// every 64th request instead a FlushRowsInto of the first keys of the
// first eight batches since the previous flush. Every request is built
// before the timer starts, and one untimed pass over them warms the
// tracker to steady eviction, so one op is one request in steady state.
//
// Compare tracker changes at -cpu 1, alternating runs of the two
// builds. The benchmark runs one goroutine, yet on a 2-CPU container
// six runs each read 3,958–5,198 ns/request at -cpu 1 and 5,742–7,132
// at -cpu 2, and only -cpu 1 separated a branchy dirty count (slower
// in 5 of 6 alternated pairs, against 3 of 6 at -cpu 2). Why -cpu 2 is
// slower and noisier is not established.
func BenchmarkShardedWriteReplay(b *testing.B) {
	const (
		requests   = 4096
		batchKeys  = 128
		flushEvery = 64
		flushRows  = 8
	)
	p, err := trace.ByName("stream")
	if err != nil {
		b.Fatal(err)
	}
	g := trace.New(p, 0, 1)
	type request struct {
		flush bool
		keys  []Key
	}
	reqs := make([]request, requests)
	var heads []Key
	for i := range reqs {
		if i%flushEvery == flushEvery-1 {
			reqs[i] = request{flush: true, keys: heads}
			heads = nil
			continue
		}
		keys := make([]Key, batchKeys)
		for j := range keys {
			r := g.Next()
			for r.Kind != trace.Store {
				r = g.Next()
			}
			keys[j] = Key(uint64(r.Addr) / 64)
		}
		if len(heads) < flushRows {
			heads = append(heads, keys[0])
		}
		reqs[i] = request{keys: keys}
	}

	tr, err := NewSharded(8, WithRows(2048))
	if err != nil {
		b.Fatal(err)
	}
	var out []Key
	apply := func(r request) {
		if r.flush {
			out = tr.FlushRowsInto(r.keys, out[:0])
		} else {
			out = tr.SetDirtyBatch(r.keys, out[:0])
		}
	}
	for _, r := range reqs {
		apply(r)
	}
	if tr.Stats().Evictions == 0 {
		b.Fatal("the warm-up pass evicted nothing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(reqs[i%requests])
	}
}
