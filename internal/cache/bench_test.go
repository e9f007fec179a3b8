package cache

import (
	"math/rand"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(config.CacheParams{
		SizeBytes: 2 << 20, Ways: 16,
		TagLatency: 10, DataLatency: 24,
		Replacement: config.ReplTADIP,
	}, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAccessHit measures the demand-hit path.
func BenchmarkAccessHit(b *testing.B) {
	c := benchCache(b)
	for i := 0; i < 1024; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.BlockAddr(i&1023), 0)
	}
}

// BenchmarkInsertEvict measures the fill+eviction path under pressure.
func BenchmarkInsertEvict(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(addr.BlockAddr(i*13), 0, i&1 == 0)
	}
}

// BenchmarkLookup measures the pure branchless tag probe: a full-set
// scan over the dense address column with no replacement update.
func BenchmarkLookup(b *testing.B) {
	c := benchCache(b)
	blocks := c.Params().Blocks()
	for i := 0; i < blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addr.BlockAddr((i * 37) & (blocks - 1)))
	}
}

// BenchmarkDirtyInLowRanks measures the Virtual Write Queue's Set State
// Vector query on Figure 6's VWQ L3 (1 MiB, 16-way TA-DIP), warmed with
// twice its capacity of fills, half of them dirty, plus a round of
// random hits: every set in turn, two LRU ways, as the VWQ harvest asks.
func BenchmarkDirtyInLowRanks(b *testing.B) {
	c, err := New(config.Scaled(1, config.VWQ).L3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	blocks := c.Params().Blocks()
	for i := 0; i < 2*blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, rng.Intn(2) == 0)
	}
	for i := 0; i < blocks; i++ {
		c.Access(addr.BlockAddr(rng.Intn(2*blocks)), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssvSink = c.DirtyInLowRanks(i&(c.Sets()-1), 2)
	}
}

var ssvSink bool
