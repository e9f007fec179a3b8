// Package simrand fixes how the simulator seeds its random sources.
// Each source (the synthetic trace generators, the DBI's LRW-BIP
// insertion, the TA-DIP/DRRIP bimodal insertion) holds a math/rand/v2
// PCG by value with a *rand.Rand drawing from it.
package simrand

import "math/rand/v2"

// Seed resets p to the stream for seed. It is the one rule mapping the
// simulator's int64 seeds onto PCG's two seed words: the seed fills
// both, so streams of nearby seeds differ in both halves of the
// 128-bit state.
func Seed(p *rand.PCG, seed int64) { p.Seed(uint64(seed), uint64(seed)) }
