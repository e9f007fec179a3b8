// Package misspred implements the Skip-Cache-style miss predictor the
// paper pairs with the cache-lookup-bypass (CLB) optimization
// (Section 3.2): execution is divided into epochs; each thread's LLC miss
// rate is monitored on a small number of sampled sets; when a thread's
// miss rate in an epoch exceeds a threshold (0.95 in the paper), all of
// its accesses in the next epoch — except those to the sampled sets,
// which keep the monitor alive — are predicted to miss.
package misspred

import (
	"fmt"

	"dbisim/internal/config"
	"dbisim/internal/event"
)

type threadState struct {
	sampledHits   uint64
	sampledMisses uint64
	bypass        bool
}

// Predictor is a per-thread epoch-based miss-rate monitor.
type Predictor struct {
	prm        config.MissPredictorParams
	samplePer  int // one sampled set every samplePer sets
	epochStart event.Cycle
	threads    []threadState
}

// New builds a predictor for an LLC with the given set count.
func New(prm config.MissPredictorParams, llcSets, threads int) (*Predictor, error) {
	if prm.Threshold <= 0 || prm.Threshold > 1 {
		return nil, fmt.Errorf("misspred: threshold %v", prm.Threshold)
	}
	if prm.EpochCycles == 0 {
		return nil, fmt.Errorf("misspred: zero epoch length")
	}
	if prm.SampledSets <= 0 || llcSets <= 0 {
		return nil, fmt.Errorf("misspred: %d sampled of %d sets", prm.SampledSets, llcSets)
	}
	if threads < 1 {
		threads = 1
	}
	per := llcSets / prm.SampledSets
	if per < 1 {
		per = 1
	}
	return &Predictor{
		prm:       prm,
		samplePer: per,
		threads:   make([]threadState, threads),
	}, nil
}

// Sampled reports whether a set is a monitored sample set. Accesses to
// sampled sets are never bypassed.
func (p *Predictor) Sampled(set int) bool { return set%p.samplePer == 0 }

// PredictMiss reports whether the access should be predicted to miss
// (and therefore have its tag lookup bypassed, dirty status permitting).
func (p *Predictor) PredictMiss(thread, set int, now event.Cycle) bool {
	p.roll(now)
	if p.Sampled(set) {
		return false
	}
	return p.threads[thread%len(p.threads)].bypass
}

// Observe records the outcome of a lookup in a sampled set.
func (p *Predictor) Observe(thread, set int, hit bool, now event.Cycle) {
	p.roll(now)
	if !p.Sampled(set) {
		return
	}
	t := &p.threads[thread%len(p.threads)]
	if hit {
		t.sampledHits++
	} else {
		t.sampledMisses++
	}
}

// roll closes the epoch if it has expired, updating bypass decisions.
func (p *Predictor) roll(now event.Cycle) {
	if now-p.epochStart < event.Cycle(p.prm.EpochCycles) {
		return
	}
	p.epochStart = now
	for i := range p.threads {
		t := &p.threads[i]
		total := t.sampledHits + t.sampledMisses
		// Require a minimum of observations before trusting the rate;
		// otherwise keep the previous decision.
		if total >= 16 {
			rate := float64(t.sampledMisses) / float64(total)
			t.bypass = rate > p.prm.Threshold
		}
		t.sampledHits, t.sampledMisses = 0, 0
	}
}
