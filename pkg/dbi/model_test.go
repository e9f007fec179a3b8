package dbi

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTracker is the reference model: the per-key dirty map gem5's
// DBICache keeps (one dirty bit per block tag), plus the cumulative
// counts of keys handed back by evictions and flushes.
type refTracker struct {
	rowSize         Key
	dirty           map[Key]bool
	evicted, flushd uint64
}

func (r *refTracker) row(k Key) []Key {
	var out []Key
	base := k / r.rowSize * r.rowSize
	for i := Key(0); i < r.rowSize; i++ {
		if r.dirty[base+i] {
			out = append(out, base+i)
		}
	}
	return out
}

// takeEvicted checks that every evicted key was dirty in the model,
// then clears it.
func (r *refTracker) takeEvicted(t *testing.T, op string, keys []Key) {
	t.Helper()
	for _, k := range keys {
		if !r.dirty[k] {
			t.Fatalf("%s: evicted key %d was not dirty", op, k)
		}
		delete(r.dirty, k)
		r.evicted++
	}
}

// takeFlushed checks a flush of k's row returned exactly the row's
// dirty keys, then clears them.
func (r *refTracker) takeFlushed(t *testing.T, op string, k Key, got []Key) {
	t.Helper()
	if want := r.row(k); !sameKeys(got, want) {
		t.Fatalf("%s: flush of key %d's row = %v, model %v", op, k, got, want)
	}
	for _, f := range got {
		delete(r.dirty, f)
		r.flushd++
	}
}

// distinctKeys draws n distinct keys below space, none of them dirty in
// the model when clean is set.
func distinctKeys(rng *rand.Rand, ref *refTracker, n int, space Key, clean bool) []Key {
	seen := map[Key]bool{}
	var out []Key
	for tries := 0; len(out) < n && tries < 64*n; tries++ {
		k := Key(rng.Int63n(int64(space)))
		if seen[k] || (clean && ref.dirty[k]) {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// TestShardedMatchesReferenceModel drives random single-key and batched
// SetDirty, IsDirty, Region and Flush streams through Sharded and a
// per-key dirty map at once. Capacities are a handful of rows, so
// evictions are frequent. It requires that a key is dirty exactly when
// it was set and not since evicted or flushed, that every evicted or
// flushed key was dirty when returned, and that Stats' DirtyKeys,
// EvictedKeys and FlushedKeys equal the model's counts.
func TestShardedMatchesReferenceModel(t *testing.T) {
	const rowSize, keyRows, ops = 8, 48, 3000
	space := Key(rowSize * keyRows)
	policies := []Replacement{LRW, LRWBIP, RWIP, MaxDirty, MinDirty}
	for _, shards := range []int{1, 8} {
		for _, rows := range []int{4, 16} {
			for _, pol := range policies {
				name := fmt.Sprintf("shards=%d/rows=%d/policy=%d", shards, rows, pol)
				t.Run(name, func(t *testing.T) {
					tr, err := NewSharded(shards, WithRows(rows), WithRowSize(rowSize),
						WithAssociativity(2), WithReplacement(pol), WithSeed(int64(rows)))
					if err != nil {
						t.Fatal(err)
					}
					ref := &refTracker{rowSize: rowSize, dirty: map[Key]bool{}}
					rng := rand.New(rand.NewSource(int64(shards*100 + rows*10 + int(pol))))
					for i := 0; i < ops; i++ {
						op := fmt.Sprintf("op %d", i)
						switch rng.Intn(8) {
						case 0, 1:
							k := Key(rng.Int63n(int64(space)))
							ref.takeEvicted(t, op+" SetDirty", tr.SetDirty(k))
							ref.dirty[k] = true
						case 2:
							k := Key(rng.Int63n(int64(space)))
							if got := tr.IsDirty(k); got != ref.dirty[k] {
								t.Fatalf("%s: IsDirty(%d) = %v, model %v", op, k, got, ref.dirty[k])
							}
						case 3:
							k := Key(rng.Int63n(int64(space)))
							if got, want := tr.DirtyBlocksInRegion(k), ref.row(k); !sameKeys(got, want) {
								t.Fatalf("%s: DirtyBlocksInRegion(%d) = %v, model %v", op, k, got, want)
							}
						case 4:
							k := Key(rng.Int63n(int64(space)))
							ref.takeFlushed(t, op+" FlushRow", k, tr.FlushRow(k))
						case 5:
							// A batch of keys clean in the model: an evicted
							// batch key must have been set earlier in the
							// batch, so the final state is unambiguous.
							keys := distinctKeys(rng, ref, 1+rng.Intn(12), space, true)
							for _, k := range keys {
								ref.dirty[k] = true
							}
							ev := tr.SetDirtyBatch(keys, nil)
							ref.takeEvicted(t, op+" SetDirtyBatch", ev)
						case 6:
							keys := distinctKeys(rng, ref, 1+rng.Intn(12), space, false)
							got := tr.IsDirtyBatch(keys, nil)
							for j, k := range keys {
								if got[j] != ref.dirty[k] {
									t.Fatalf("%s: IsDirtyBatch key %d = %v, model %v", op, k, got[j], ref.dirty[k])
								}
							}
							for _, k := range keys {
								if got, want := tr.DirtyBlocksInRegion(k), ref.row(k); !sameKeys(got, want) {
									t.Fatalf("%s: region of batch key %d = %v, model %v", op, k, got, want)
								}
							}
						case 7:
							keys := distinctKeys(rng, ref, 1+rng.Intn(12), space, false)
							var want []Key
							for _, k := range keys {
								rowKeys := ref.row(k)
								for _, f := range rowKeys {
									delete(ref.dirty, f)
									ref.flushd++
								}
								want = append(want, rowKeys...)
							}
							if got := tr.FlushRowsInto(keys, nil); !sameKeys(got, want) {
								t.Fatalf("%s: FlushRowsInto(%v) = %v, model %v", op, keys, got, want)
							}
						}
						st := tr.Stats()
						if st.DirtyKeys != len(ref.dirty) || st.EvictedKeys != ref.evicted || st.FlushedKeys != ref.flushd {
							t.Fatalf("%s: stats dirty/evicted/flushed = %d/%d/%d, model %d/%d/%d", op,
								st.DirtyKeys, st.EvictedKeys, st.FlushedKeys, len(ref.dirty), ref.evicted, ref.flushd)
						}
					}
					for k := Key(0); k < space; k++ {
						if got := tr.IsDirty(k); got != ref.dirty[k] {
							t.Fatalf("end: IsDirty(%d) = %v, model %v", k, got, ref.dirty[k])
						}
					}
					if st := tr.Stats(); st.Evictions == 0 {
						t.Fatal("the stream forced no eviction")
					}
				})
			}
		}
	}
}
