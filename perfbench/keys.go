package main

import (
	"dbisim/internal/trace"
	"dbisim/pkg/dbiproto"
)

// Every key batch is generated from the seed before timing starts. Each
// connection owns the key range [conn<<32, (conn+1)<<32): a key is a
// block address of a trace generator's stream plus that offset, so the
// connections' rows are disjoint and any key names its owner. As in the
// repository's own dbiserved loadtest (dbiserve.RunLoad), every access
// yields its block address, so the several stores a program makes to
// one block repeat its key within a batch.

const (
	batchKeys = 128
	// poolRequests is how many requests each connection pre-generates;
	// the timed phases cycle through them in order.
	poolRequests = 4096
	// serve_write flushes as RunLoad means to: every flushEvery-th
	// request is a FlushRows of the first key of each of the first
	// flushRows SetDirty batches since the previous flush.
	flushEvery = 64
	flushRows  = 8
	// readPreAccesses is how many accesses of the mcf stream dirty the
	// read workload's tracker before timing.
	readPreAccesses = 1_000_000
)

// request is one pre-generated batch.
type request struct {
	op   byte
	keys []uint64
}

// keyPlan is one connection's inputs.
type keyPlan struct {
	base    uint64
	prefill []request // sent closed-loop before timing
	pool    []request // cycled by the timed phases
	// set holds every key the plan sets (serve_write's membership
	// check); dirty is the expected dirty set (serve_read), which the
	// connection updates as its SetDirty requests succeed.
	set, dirty *bitset
}

func connBase(conn int) uint64 { return uint64(conn) << 32 }

// keyStream turns a trace generator's accesses into keys.
type keyStream struct {
	g    trace.Generator
	base uint64
}

func newKeyStream(bench string, seed int64, conn int) (*keyStream, error) {
	p, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	// Distinct, reproducible streams per (seed, connection).
	g := trace.New(p, 0, seed*7919+int64(conn)+1)
	return &keyStream{g: g, base: connBase(conn)}, nil
}

// next returns the kind and key of the next access.
func (s *keyStream) next() (trace.Kind, uint64) {
	r := s.g.Next()
	return r.Kind, s.base + uint64(r.Addr)/64
}

// writePlan: SetDirty batches of the stream benchmark's stores, which
// walk whole rows in order, plus a FlushRows of recently written rows
// every flushEvery requests.
func writePlan(seed int64, conn int) (*keyPlan, error) {
	s, err := newKeyStream("stream", seed, conn)
	if err != nil {
		return nil, err
	}
	pl := &keyPlan{base: s.base, set: &bitset{}, pool: make([]request, poolRequests)}
	flat, err := offHeap[uint64](poolRequests * batchKeys)
	if err != nil {
		return nil, err
	}
	var heads []uint64
	for i := range pl.pool {
		if i%flushEvery == flushEvery-1 {
			pl.pool[i] = request{op: dbiproto.OpFlush, keys: heads}
			heads = nil
			continue
		}
		keys := flat[i*batchKeys : (i+1)*batchKeys]
		for j := range keys {
			kind, k := s.next()
			for kind != trace.Store {
				kind, k = s.next()
			}
			keys[j] = k
			pl.set.set(k - s.base)
		}
		if len(heads) < flushRows {
			heads = append(heads, keys[0])
		}
		pl.pool[i] = request{op: dbiproto.OpSet, keys: keys}
	}
	return pl, nil
}

// readPlan: the mcf benchmark's stores dirty the tracker before timing.
// The timed requests cut its next accesses, in order, into IsDirty
// batches of its loads and SetDirty batches of its stores, each sent
// when it fills, so the share of SetDirty requests is the trace's own
// share of stores.
func readPlan(seed int64, conn int) (*keyPlan, error) {
	s, err := newKeyStream("mcf", seed, conn)
	if err != nil {
		return nil, err
	}
	pl := &keyPlan{base: s.base, dirty: &bitset{}, pool: make([]request, poolRequests)}
	var pre []uint64
	for i := 0; i < readPreAccesses; i++ {
		if kind, k := s.next(); kind == trace.Store && !pl.dirty.test(k-s.base) {
			pl.dirty.set(k - s.base)
			pre = append(pre, k)
		}
	}
	for len(pre) > 0 {
		n := min(batchKeys, len(pre))
		pl.prefill = append(pl.prefill, request{op: dbiproto.OpSet, keys: pre[:n]})
		pre = pre[n:]
	}
	flat, err := offHeap[uint64]((poolRequests + 1) * batchKeys)
	if err != nil {
		return nil, err
	}
	var fill [2][]uint64 // by trace.Kind: Load, Store
	free := flat
	for i := 0; i < len(pl.pool); {
		kind, k := s.next()
		if fill[kind] == nil {
			fill[kind], free = free[:0:batchKeys], free[batchKeys:]
		}
		fill[kind] = append(fill[kind], k)
		if len(fill[kind]) < batchKeys {
			continue
		}
		op := byte(dbiproto.OpIsDirty)
		if kind == trace.Store {
			op = dbiproto.OpSet
		}
		pl.pool[i] = request{op: op, keys: fill[kind]}
		fill[kind] = nil
		i++
	}
	return pl, nil
}

// bitset is a growable set of key offsets.
type bitset struct{ words []uint64 }

func (b *bitset) set(i uint64) {
	w := int(i >> 6)
	if w >= len(b.words) {
		b.words = append(b.words, make([]uint64, w+1-len(b.words))...)
	}
	b.words[w] |= 1 << (i & 63)
}

func (b *bitset) test(i uint64) bool {
	w := int(i >> 6)
	return w < len(b.words) && b.words[w]&(1<<(i&63)) != 0
}
