package dbi

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentStress hammers a Sharded tracker from N goroutines
// mixing every operation, sized so evictions fire constantly. Run
// under -race it is the lock-striping proof; the final invariant check
// (accounting identity over aggregated stats) catches lost updates
// even without the race detector.
func TestConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 8} {
		tr, err := NewSharded(shards, WithRows(256), WithRowSize(64), WithAssociativity(8))
		if err != nil {
			t.Fatal(err)
		}
		const clients = 16
		ops := 20_000
		if testing.Short() {
			ops = 2_000
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(id)))
				var keys [32]Key
				var bools []bool
				var sink []Key
				for i := 0; i < ops; i++ {
					for j := range keys {
						keys[j] = Key(rng.Intn(1 << 18))
					}
					switch i % 5 {
					case 0, 1:
						sink = tr.SetDirtyBatch(keys[:], sink[:0])
					case 2:
						bools = tr.IsDirtyBatch(keys[:8], bools[:0])
					case 3:
						sink = tr.DirtyBlocksInRegion(keys[0])
						_ = sink
					case 4:
						sink = tr.FlushRowsInto(keys[:4], sink[:0])
					}
				}
			}(c)
		}
		wg.Wait()

		// Every key ever marked dirty is either still dirty, was
		// evicted, or was flushed. With per-shard mutexes these
		// counters can only balance if no update was lost.
		st := tr.Stats()
		recorded := st.EvictedKeys + st.FlushedKeys + uint64(st.DirtyKeys)
		if recorded > st.Writes {
			t.Fatalf("shards=%d: evicted(%d)+flushed(%d)+dirty(%d) > writes(%d)",
				shards, st.EvictedKeys, st.FlushedKeys, st.DirtyKeys, st.Writes)
		}
		if st.Writes == 0 || st.Evictions == 0 {
			t.Fatalf("shards=%d: stress produced no writes/evictions (writes=%d evictions=%d)",
				shards, st.Writes, st.Evictions)
		}
	}
}
