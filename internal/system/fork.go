package system

import (
	"os"
	"sync"

	"dbisim/internal/config"
)

// NoForkEnv, when set to any non-empty value, disables checkpoint
// forking: ForkPool runs every cell whole on a pooled machine reset to
// power-on. It is the escape hatch for bisecting a suspected checkpoint
// bug and the lever CI uses to smoke both paths.
const NoForkEnv = "DBISIM_NO_FORK"

const (
	// forkMachineCap bounds how many distinct-geometry machines one
	// ForkPool keeps alive. It must cover the signature working set of
	// the recorded macro sweeps (casestudy cycles 6, the clbsens
	// thresholds 3) or the LRU thrashes: every round then repays full
	// construction, and forgets the keys and checkpoints that let the
	// next round fork. fig6 cycles 7 machines but checkpoints none.
	forkMachineCap = 12
	// forkCkptCap bounds the checkpoints retained per machine (one per
	// warmup identity).
	forkCkptCap = 8
	// sharedPoolCap bounds the process-wide free stack that carries
	// warmed machines from one sweep's workers to the next.
	sharedPoolCap = 16
)

// forkCkpt is one retained warmup checkpoint with its identity key.
type forkCkpt struct {
	key   string
	ck    Checkpoint
	stamp uint64
}

// forkMachine is one pooled System plus the checkpoints taken on it.
type forkMachine struct {
	sys   *System
	sig   config.SystemConfig
	ckpts []*forkCkpt
	stamp uint64
	// ran holds the warmup key of every cell this machine ran on a
	// checkpoint miss. A key found here recurs across sweeps, so its
	// next miss takes a checkpoint even when no later cell of its own
	// sweep shares it.
	ran map[string]bool
}

func (m *forkMachine) ckpt(key string) *forkCkpt {
	for _, c := range m.ckpts {
		if c.key == key {
			return c
		}
	}
	return nil
}

func (m *forkMachine) drop(key string) {
	for i, c := range m.ckpts {
		if c.key == key {
			m.ckpts = append(m.ckpts[:i], m.ckpts[i+1:]...)
			return
		}
	}
}

// take returns the checkpoint slot for key, creating it (evicting the
// least-recently-used one at capacity) if absent.
func (m *forkMachine) take(key string, clock uint64) *forkCkpt {
	if c := m.ckpt(key); c != nil {
		c.stamp = clock
		return c
	}
	if len(m.ckpts) >= forkCkptCap {
		lru := 0
		for i := range m.ckpts {
			if m.ckpts[i].stamp < m.ckpts[lru].stamp {
				lru = i
			}
		}
		c := m.ckpts[lru]
		m.ckpts = append(m.ckpts[:lru], m.ckpts[lru+1:]...)
		c.key, c.stamp = key, clock
		m.ckpts = append(m.ckpts, c)
		PoolStat.CkptEvictions.Add(1)
		return c
	}
	c := &forkCkpt{key: key, stamp: clock}
	m.ckpts = append(m.ckpts, c)
	return c
}

// ForkPool runs sweep cells with checkpoint forking: the first cell of
// a warmup group warms a machine, snapshots it at the warmup→measure
// boundary, and measures; every later cell with the same warmup
// identity restores the snapshot and measures only — turning
// O(N·(warmup+measure)) sweeps into O(warmup + N·measure). A checkpoint
// is taken only for a key that will fork: one the sweep plan repeats,
// or one the machine has run before. Results are bit-identical to
// New(cfg, benches, seed).Run() regardless of history; whenever a
// checkpoint is not wanted or cannot be taken, restored, or measured
// from, the pool runs the cell whole on a machine reset in place.
//
// A ForkPool is NOT safe for concurrent use: each sweep worker owns its
// own. The zero value is ready. Call Release when the worker is done to
// push the warmed machines onto a process-wide stack for the next
// sweep's workers to adopt — that is what amortizes warmup across
// repeated sweeps (a dbistat round, a clbsens-style multi-config
// macro).
//
// Every decision the pool makes increments the process-wide PoolStat
// counters and (when the ops plane installed a hook) emits a flight-
// recorder event, so fork/reset/rebuild mix, LRU evictions and refusal
// reasons are visible live.
type ForkPool struct {
	machines []*forkMachine
	clock    uint64
	adopted  bool

	// worker is the owning sweep worker's index, carried into the
	// ops-plane pool events.
	worker    int
	workerSet bool
}

// SetWorker labels the pool with its owning sweep worker's index, so
// ops-plane events attribute decisions to worker lanes. The sweep
// scheduler calls it once per worker state; it has no effect on
// simulation.
func (p *ForkPool) SetWorker(w int) { p.worker, p.workerSet = w, true }

func (p *ForkPool) workerID() int {
	if !p.workerSet {
		return -1
	}
	return p.worker
}

// sharedPools carries released machine sets across ForkPool lifetimes.
var (
	sharedPoolsMu sync.Mutex
	sharedPools   [][]*forkMachine
)

func (p *ForkPool) adopt() {
	if p.adopted {
		return
	}
	p.adopted = true
	sharedPoolsMu.Lock()
	if n := len(sharedPools); n > 0 {
		p.machines = sharedPools[n-1]
		sharedPools[n-1] = nil
		sharedPools = sharedPools[:n-1]
		PoolStat.Adopts.Add(1)
		PoolStat.AdoptStackDepth.Add(-1)
	}
	sharedPoolsMu.Unlock()
	if len(p.machines) > 0 {
		poolEvent(p.workerID(), "adopt", "")
	}
}

// Release hands the pool's machines to the process-wide stack (dropped
// if the stack is full) and empties the pool. The sweep scheduler calls
// it when a worker retires.
func (p *ForkPool) Release() {
	if len(p.machines) == 0 {
		return
	}
	m := p.machines
	p.machines = nil
	p.adopted = false
	sharedPoolsMu.Lock()
	if len(sharedPools) < sharedPoolCap {
		sharedPools = append(sharedPools, m)
		PoolStat.Releases.Add(1)
		PoolStat.AdoptStackDepth.Add(1)
	}
	sharedPoolsMu.Unlock()
	poolEvent(p.workerID(), "release", "")
}

func (p *ForkPool) machine(sig config.SystemConfig) *forkMachine {
	for _, m := range p.machines {
		if m.sig == sig {
			p.clock++
			m.stamp = p.clock
			return m
		}
	}
	return nil
}

// insert adds a machine, evicting the least-recently-used at capacity.
func (p *ForkPool) insert(sys *System, sig config.SystemConfig) *forkMachine {
	p.clock++
	m := &forkMachine{sys: sys, sig: sig, stamp: p.clock, ran: map[string]bool{}}
	if len(p.machines) >= forkMachineCap {
		lru := 0
		for i, mm := range p.machines {
			if mm.stamp < p.machines[lru].stamp {
				lru = i
			}
		}
		p.machines = append(p.machines[:lru], p.machines[lru+1:]...)
		PoolStat.MachineEvictions.Add(1)
		poolEvent(p.workerID(), "evict:machine", "")
	}
	p.machines = append(p.machines, m)
	return m
}

// ready returns a pooled machine at New(cfg, benches, seed)'s power-on
// state: m (the pool's machine for cfg's signature, or nil) reset in
// place, or a new machine when there is none.
func (p *ForkPool) ready(m *forkMachine, cfg config.SystemConfig, benches []string, seed int64) (*forkMachine, error) {
	if m != nil {
		if err := m.sys.Reset(cfg, benches, seed); err != nil {
			return nil, err
		}
		PoolStat.Resets.Add(1)
		poolEvent(p.workerID(), "reset", "")
		return m, nil
	}
	sys, err := New(cfg, benches, seed)
	if err != nil {
		return nil, err
	}
	PoolStat.Rebuilds.Add(1)
	poolEvent(p.workerID(), "rebuild", "")
	return p.insert(sys, Signature(cfg)), nil
}

// Run executes one cell, forking from a warmup checkpoint when one is
// retained. Otherwise it takes one if the key will fork — sibling
// reports that a later cell of the sweep has the same WarmupKey, or
// the machine ran this key before — and runs the cell whole if not.
func (p *ForkPool) Run(cfg config.SystemConfig, benches []string, seed int64, sibling bool) (Results, error) {
	p.adopt()
	sig := Signature(cfg)
	m := p.machine(sig)
	if os.Getenv(NoForkEnv) != "" || cfg.WarmupInstructions == 0 || cfg.MeasureInstructions == 0 {
		PoolStat.RefusedDisabled.Add(1)
		m, err := p.ready(m, cfg, benches, seed)
		if err != nil {
			return Results{}, err
		}
		return m.sys.Run(), nil
	}
	key := WarmupKey(cfg, benches, seed)

	// Fast path: restore the group's checkpoint and measure.
	if m != nil {
		if c := m.ckpt(key); c != nil {
			p.clock++
			c.stamp = p.clock
			if err := m.sys.Restore(cfg, &c.ck); err == nil {
				if res, err := m.sys.RunMeasure(); err == nil {
					PoolStat.CkptHits.Add(1)
					poolEvent(p.workerID(), "fork", "")
					return res, nil
				}
			}
			// Unusable checkpoint (or unforkable budget): drop it and
			// warm from scratch below.
			m.drop(key)
			PoolStat.RefusedRestore.Add(1)
			poolEvent(p.workerID(), "refuse:restore", "checkpoint dropped")
		}
	}
	PoolStat.CkptMisses.Add(1)

	// Slow path: get a machine at this cell's run state. Warm it and
	// checkpoint the boundary only if a later cell will fork from it;
	// otherwise run the cell whole.
	m, err := p.ready(m, cfg, benches, seed)
	if err != nil {
		return Results{}, err
	}
	recurs := m.ran[key]
	m.ran[key] = true
	if !sibling && !recurs {
		PoolStat.CkptSkipped.Add(1)
		poolEvent(p.workerID(), "skip:ckpt", "no later cell shares the key and this is its first run")
		return m.sys.Run(), nil
	}
	if err := m.sys.RunWarmup(); err != nil {
		// Phase-split refused (zero warmup is excluded above, so this
		// is unreachable in practice). The machine is untouched; run it
		// whole.
		PoolStat.RefusedWarmup.Add(1)
		poolEvent(p.workerID(), "refuse:warmup", err.Error())
		return m.sys.Run(), nil
	}
	p.clock++
	c := m.take(key, p.clock)
	if err := m.sys.Snapshot(&c.ck); err != nil {
		m.drop(key)
		PoolStat.RefusedSnapshot.Add(1)
		poolEvent(p.workerID(), "refuse:snapshot", err.Error())
	} else {
		PoolStat.CkptTaken.Add(1)
		poolEvent(p.workerID(), "warm", "checkpoint taken")
	}
	res, err := m.sys.RunMeasure()
	if err != nil {
		// A core overran its measurement budget during the warmup
		// overhang; only a scratch run reproduces that cell.
		PoolStat.RefusedOverhang.Add(1)
		poolEvent(p.workerID(), "refuse:overhang", err.Error())
		if m, err = p.ready(m, cfg, benches, seed); err != nil {
			return Results{}, err
		}
		return m.sys.Run(), nil
	}
	return res, err
}
