// Package dram models the DDR3 main memory of the evaluated system: one
// channel of banked DRAM with open-row policy, FR-FCFS scheduling, and a
// write buffer drained when full — the memory-controller organization of
// Table 1 in the DBI paper.
//
// The model works at transaction granularity with a time-reservation
// scheme that captures bank-level parallelism: each transaction's
// activate/precharge work runs on its bank (which may overlap other
// banks' work and the data bus), while the 64B data burst serializes on
// the shared channel. The row-buffer state of each bank decides whether
// a transaction pays row-hit, row-closed or row-conflict preparation
// time — the effect the paper's mechanisms exploit: writes (and reads)
// that hit open rows complete several times faster than row conflicts,
// so grouping writebacks by DRAM row raises drain throughput and keeps
// read-opened rows open.
package dram

import (
	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// request is a queued memory transaction.
type request struct {
	block    addr.BlockAddr
	row      addr.RowID
	bank     int
	enqueued event.Cycle
	done     func() // nil for writes
}

// bankState tracks one bank's row buffer and busy horizon.
type bankState struct {
	open     bool
	openRow  addr.RowID
	freeAt   event.Cycle
	twrUntil event.Cycle // write recovery: earliest allowed precharge
}

// Stats aggregates the DRAM-side statistics of Figure 6: read and write
// row hit rates, plus the command counts the energy model consumes.
type Stats struct {
	Reads           stats.Counter
	Writes          stats.Counter
	ReadRowHits     stats.Counter
	WriteRowHits    stats.Counter
	RowClosed       stats.Counter // accesses to a precharged bank
	RowConflicts    stats.Counter
	Activates       stats.Counter
	Precharges      stats.Counter
	WriteBufHits    stats.Counter // reads served from the write buffer
	DrainsStarted   stats.Counter
	WriteBufOverflw stats.Counter // writes accepted beyond nominal capacity
	ReadLatencySum  stats.Counter // summed cycles from enqueue to data
	Refreshes       stats.Counter // auto-refresh commands issued
	// DrainBurst histograms how many writes each write-drain episode
	// issued — the burst lengths AWB lengthens by handing the controller
	// whole rows of writebacks at once.
	DrainBurst *stats.Histogram
}

// Controller is the single-channel memory controller plus DRAM banks.
type Controller struct {
	Eng  *event.Engine
	Geo  addr.Geometry
	Prm  config.DRAMParams
	Stat Stats

	// Trc, when non-nil, receives bank-service duration events and
	// drain instants. Emission nil-checks inside the tracer, so the
	// disabled path costs one compare.
	Trc *telemetry.Tracer

	// Attr, when non-nil, receives the controller's attribution
	// charges: dram_bank cycle categories plus the dram_bank and
	// dram_bus domain totals. The bus total counts one block of
	// requested transfer bytes per accepted Read/Write — including
	// reads forwarded from the write buffer — so callers charging
	// per-purpose byte categories at their request sites reconcile
	// exactly against it.
	Attr *telemetry.Attribution

	banks      []bankState
	readQ      []request
	writeQ     []request
	inflight   int
	draining   bool
	drainBurst int // writes issued by the in-progress drain episode
	busFreeAt  event.Cycle
	kickAt     event.Cycle // pending wakeup, 0 = none

	// Prebound callbacks and the transaction free list keep the bank
	// service loop allocation-free: issuing, waking and refreshing reuse
	// the same function values and pooled txn records run after run.
	wakeFn    event.Func
	refreshFn event.Func
	txnFree   *txn
}

// txn is a pooled in-flight transaction: its completion callbacks are
// bound once at allocation, so issuing a transaction schedules on the
// engine without allocating a closure per event.
type txn struct {
	c       *Controller
	r       request
	isWrite bool
	next    *txn
	burstFn event.Func
	dataFn  event.Func
}

func (c *Controller) getTxn() *txn {
	t := c.txnFree
	if t == nil {
		t = &txn{c: c}
		t.burstFn = t.burstDone
		t.dataFn = t.dataDone
	} else {
		c.txnFree = t.next
	}
	return t
}

func (c *Controller) putTxn(t *txn) {
	t.r = request{}
	t.next = c.txnFree
	c.txnFree = t
}

// burstDone runs when the transaction's data burst completes on the bus.
func (t *txn) burstDone() {
	c := t.c
	c.inflight--
	if t.isWrite {
		c.Stat.Writes.Inc()
		c.putTxn(t)
		c.kick()
		return
	}
	c.Stat.Reads.Inc()
	c.kick()
	// Data reaches the requester TCAS after the burst completes.
	c.Eng.After(event.Cycle(c.Prm.TCAS), t.dataFn)
}

// dataDone delivers read data to the requester.
func (t *txn) dataDone() {
	c := t.c
	c.Stat.ReadLatencySum.Add(uint64(c.Eng.Now() - t.r.enqueued))
	done := t.r.done
	c.putTxn(t)
	if done != nil {
		done()
	}
}

// New builds a controller. The geometry's bank count must match the DRAM
// parameters.
func New(eng *event.Engine, geo addr.Geometry, p config.DRAMParams) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		Eng:   eng,
		Geo:   geo,
		Prm:   p,
		banks: make([]bankState, p.Banks),
	}
	c.Stat.DrainBurst = stats.NewHistogram(2 * p.WriteBufferEntries)
	c.wakeFn = func() {
		if c.kickAt == c.Eng.Now() {
			c.kickAt = 0
		}
		c.kick()
	}
	// refresh: all banks close and stay busy for RefreshLatency cycles
	// every RefreshInterval cycles.
	c.refreshFn = func() {
		c.Stat.Refreshes.Inc()
		// Refresh reserves every bank for RefreshLatency cycles; the
		// attribution is reservation-based (charged up front), matching
		// how the freeAt horizon models it.
		c.Attr.Charge(telemetry.ADRAMRefresh, uint64(c.Prm.Banks)*uint64(c.Prm.RefreshLatency))
		c.Attr.ChargeDomain(telemetry.DomDRAMBank, uint64(c.Prm.Banks)*uint64(c.Prm.RefreshLatency))
		until := c.Eng.Now() + event.Cycle(c.Prm.RefreshLatency)
		for i := range c.banks {
			c.banks[i].open = false
			if c.banks[i].freeAt < until {
				c.banks[i].freeAt = until
			}
		}
		if c.busFreeAt < until {
			c.busFreeAt = until
		}
		c.Eng.After(event.Cycle(c.Prm.RefreshInterval), c.refreshFn)
	}
	if p.RefreshInterval > 0 {
		c.Eng.After(event.Cycle(c.Prm.RefreshInterval), c.refreshFn)
	}
	return c, nil
}

// Read enqueues a demand read for a block; done fires when data arrives.
// A read that matches a buffered write is forwarded without a DRAM
// access.
func (c *Controller) Read(b addr.BlockAddr, done func()) {
	c.Attr.ChargeDomain(telemetry.DomDRAMBus, c.Geo.BlockSize)
	// This scan and pick's index the queue instead of ranging over
	// copies of its entries: a by-value loop copied every request
	// through the stack and, on some heap placements of the queue, ran
	// four times slower.
	for i := range c.writeQ {
		if c.writeQ[i].block == b {
			c.Stat.WriteBufHits.Inc()
			// Forwarding costs roughly a burst on the internal datapath.
			c.Eng.After(event.Cycle(c.Prm.TBurst), done)
			return
		}
	}
	row := c.Geo.RowOf(b)
	c.readQ = append(c.readQ, request{
		block: b, row: row, bank: c.Geo.BankOf(row),
		enqueued: c.Eng.Now(), done: done,
	})
	c.kick()
}

// Write enqueues a writeback. Writes are posted: the producer never
// waits. When the buffer reaches capacity the controller switches to the
// write-drain phase until the low watermark is reached (drain-when-full).
func (c *Controller) Write(b addr.BlockAddr) {
	c.Attr.ChargeDomain(telemetry.DomDRAMBus, c.Geo.BlockSize)
	row := c.Geo.RowOf(b)
	if len(c.writeQ) >= c.Prm.WriteBufferEntries {
		c.Stat.WriteBufOverflw.Inc()
	}
	c.writeQ = append(c.writeQ, request{
		block: b, row: row, bank: c.Geo.BankOf(row),
		enqueued: c.Eng.Now(),
	})
	c.kick()
}

// WriteQueueLen reports buffered writes (diagnostics and LLC throttling).
func (c *Controller) WriteQueueLen() int { return len(c.writeQ) }

// ReadQueueLen reports pending reads.
func (c *Controller) ReadQueueLen() int { return len(c.readQ) }

// Draining reports whether the controller is in its write-drain phase.
func (c *Controller) Draining() bool { return c.draining }

// Idle reports whether no transaction is in flight and no work is queued.
func (c *Controller) Idle() bool {
	return c.inflight == 0 && len(c.readQ) == 0 && len(c.writeQ) == 0
}

// lookahead is how far ahead of the bus horizon the scheduler issues,
// letting the next transaction's bank preparation overlap the current
// burst.
func (c *Controller) lookahead() event.Cycle { return event.Cycle(c.Prm.TBurst) }

// kick issues transactions while the bus reservation horizon is near.
func (c *Controller) kick() {
	now := c.Eng.Now()
	for {
		if c.busFreeAt > now+c.lookahead() {
			// Bus booked ahead; wake up when the horizon approaches.
			c.wakeAt(c.busFreeAt - c.lookahead())
			return
		}
		q, isWrite := c.selectQueue()
		if q == nil {
			return
		}
		idx := c.pick(*q)
		req := (*q)[idx]
		*q = append((*q)[:idx], (*q)[idx+1:]...)
		c.issue(req, isWrite)
	}
}

// wakeAt schedules a future kick, collapsing duplicates. The prebound
// wakeFn compares kickAt against the engine clock at fire time, which is
// exactly the cycle this call passed — so a stale wake (kickAt since
// re-armed earlier) leaves kickAt alone and still kicks, same as before.
func (c *Controller) wakeAt(at event.Cycle) {
	if c.kickAt != 0 && c.kickAt <= at {
		return
	}
	c.kickAt = at
	c.Eng.At(at, c.wakeFn)
}

// selectQueue applies the phase policy: drain writes when the buffer
// filled (until the low watermark), otherwise serve reads, otherwise
// opportunistically write.
func (c *Controller) selectQueue() (*[]request, bool) {
	if !c.draining && len(c.writeQ) >= c.Prm.WriteBufferEntries {
		c.draining = true
		c.drainBurst = 0
		c.Stat.DrainsStarted.Inc()
		c.Trc.Instant("dram", "drain_start", telemetry.TIDDRAM, uint64(c.Eng.Now()), uint64(len(c.writeQ)))
	}
	if c.draining && len(c.writeQ) <= c.Prm.WriteDrainLow {
		c.draining = false
		c.Stat.DrainBurst.Observe(c.drainBurst)
		c.Trc.Instant("dram", "drain_end", telemetry.TIDDRAM, uint64(c.Eng.Now()), uint64(c.drainBurst))
	}
	switch {
	case c.draining && len(c.writeQ) > 0:
		return &c.writeQ, true
	case len(c.readQ) > 0:
		return &c.readQ, false
	case len(c.writeQ) > 0:
		return &c.writeQ, true
	}
	return nil, false
}

// pick implements FR-FCFS within a queue: the oldest row-hit request
// wins; with no row hits, the oldest request whose bank is soonest free.
func (c *Controller) pick(q []request) int {
	for i := range q {
		b := &c.banks[q[i].bank]
		if b.open && b.openRow == q[i].row {
			return i
		}
	}
	return 0
}

// issue reserves bank and bus time for the transaction and schedules its
// completion. TCAS is command-pipeline latency, not bus occupancy:
// row-hit bursts stream back-to-back at TBurst spacing (the full channel
// bandwidth grouped writebacks achieve), while each read's data still
// arrives TCAS after its burst slot is won.
func (c *Controller) issue(r request, isWrite bool) {
	now := c.Eng.Now()
	bank := &c.banks[r.bank]
	conflict := bank.open && bank.openRow != r.row
	prep := c.prepTime(bank, r, isWrite)
	// Bank occupancy attribution: preparation cycles were charged by
	// prepTime (service or conflict); the burst itself is service. The
	// dram_bank total is the sum, charged here so the domain closes.
	c.Attr.Charge(telemetry.ADRAMBankService, uint64(c.Prm.TBurst))
	c.Attr.ChargeDomain(telemetry.DomDRAMBank, uint64(prep)+uint64(c.Prm.TBurst))
	prepStart := bank.freeAt
	if prepStart < now {
		prepStart = now
	}
	// Write recovery (tWR) delays only the next precharge of the bank;
	// same-row accesses after a write stream unimpeded.
	if conflict && bank.twrUntil > prepStart {
		prepStart = bank.twrUntil
	}
	dataStart := prepStart + prep
	if dataStart < c.busFreeAt {
		dataStart = c.busFreeAt
	}
	done := dataStart + event.Cycle(c.Prm.TBurst)
	c.busFreeAt = done
	bank.freeAt = done
	if isWrite {
		bank.twrUntil = done + event.Cycle(c.Prm.TWR)
		if c.draining {
			c.drainBurst++
		}
	}
	bank.open = true
	bank.openRow = r.row
	if c.Trc != nil {
		// Bank-service span: preparation start through burst completion.
		name := "read"
		if isWrite {
			name = "write"
		}
		c.Trc.Complete("dram", name, telemetry.TIDBank(r.bank), uint64(prepStart), uint64(done), uint64(r.block))
	}

	c.inflight++
	t := c.getTxn()
	t.r, t.isWrite = r, isWrite
	c.Eng.At(done, t.burstFn)
}

// prepTime returns the bank-preparation time implied by the row state and
// updates hit/miss statistics.
func (c *Controller) prepTime(bank *bankState, r request, isWrite bool) event.Cycle {
	switch {
	case bank.open && bank.openRow == r.row:
		if isWrite {
			c.Stat.WriteRowHits.Inc()
		} else {
			c.Stat.ReadRowHits.Inc()
		}
		return 0
	case !bank.open:
		c.Stat.RowClosed.Inc()
		c.Stat.Activates.Inc()
		c.Attr.Charge(telemetry.ADRAMBankService, uint64(c.Prm.TRCD))
		return event.Cycle(c.Prm.TRCD)
	default:
		c.Stat.RowConflicts.Inc()
		c.Stat.Precharges.Inc()
		c.Stat.Activates.Inc()
		c.Attr.Charge(telemetry.ADRAMBankConflict, uint64(c.Prm.TRP+c.Prm.TRCD))
		return event.Cycle(c.Prm.TRP + c.Prm.TRCD)
	}
}

// ReadRowHitRate returns the fraction of DRAM reads that hit an open row.
func (s *Stats) ReadRowHitRate() float64 {
	return stats.Ratio(s.ReadRowHits.Value(), s.Reads.Value())
}

// WriteRowHitRate returns the fraction of DRAM writes that hit an open
// row — the quantity Figure 6b reports.
func (s *Stats) WriteRowHitRate() float64 {
	return stats.Ratio(s.WriteRowHits.Value(), s.Writes.Value())
}

// AvgReadLatency returns mean cycles from read enqueue to data.
func (s *Stats) AvgReadLatency() float64 {
	return stats.Ratio(s.ReadLatencySum.Value(), s.Reads.Value())
}

// RegisterMetrics adds the controller's probes to a telemetry registry:
// command counters (sampled as per-epoch deltas), queue-depth gauges,
// and the drain-burst histogram.
func (c *Controller) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterStat("dram.reads", &c.Stat.Reads)
	reg.CounterStat("dram.writes", &c.Stat.Writes)
	reg.CounterStat("dram.read_row_hits", &c.Stat.ReadRowHits)
	reg.CounterStat("dram.write_row_hits", &c.Stat.WriteRowHits)
	reg.CounterStat("dram.row_conflicts", &c.Stat.RowConflicts)
	reg.CounterStat("dram.activates", &c.Stat.Activates)
	reg.CounterStat("dram.precharges", &c.Stat.Precharges)
	reg.CounterStat("dram.write_buf_hits", &c.Stat.WriteBufHits)
	reg.CounterStat("dram.drains_started", &c.Stat.DrainsStarted)
	reg.CounterStat("dram.refreshes", &c.Stat.Refreshes)
	reg.CounterStat("dram.read_latency_sum", &c.Stat.ReadLatencySum)
	reg.Gauge("dram.read_queue", func() float64 { return float64(len(c.readQ)) })
	reg.Gauge("dram.write_queue", func() float64 { return float64(len(c.writeQ)) })
	reg.Gauge("dram.draining", func() float64 {
		if c.draining {
			return 1
		}
		return 0
	})
	reg.Histogram("dram.drain_burst", c.Stat.DrainBurst)
}
