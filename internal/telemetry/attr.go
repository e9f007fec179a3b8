package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Attribution answers "where do simulated cycles and DRAM data-bus
// bytes go?" — the question the DBI paper's evaluation is built on
// (writeback bandwidth saved by aggressive writeback, lookup cycles
// avoided by cache-coarse DBI queries). Components charge simulated
// quantities to a fixed category enum; the ledger is a pair of plain
// arrays, so the hot path is an indexed add — no maps, no allocation,
// and a nil *Attribution makes every charge a predicted-not-taken
// branch (the same zero-cost-disabled contract as the Tracer).
//
// Categories are grouped into domains. A domain has a unit (cycles or
// bytes) and a closure rule:
//
//   - closed: the component owning the domain also charges a domain
//     total at the same call sites, and the category sum must equal
//     that total exactly. Reconcile enforces this; a new call site
//     that charges the total but not a category (or vice versa)
//     breaks the equation and fails the reconciliation tests.
//   - open: categories are independent terms with no meaningful total
//     (e.g. CPU issue cycles and window-stall cycles overlap other
//     activity); they are reported as-is.
//
// Because both charges happen at the same simulated instant, closed
// domains reconcile exactly within any observation window — including
// the warmup/measure split.
type Attribution struct {
	v AttrValues
}

// Category indexes one attribution bucket. The enum is fixed at
// compile time so the ledger can be an array.
type Category uint8

// Cycle categories, then byte categories. NumCategories sizes the
// ledger arrays; keep it last.
const (
	// ACPUIssue: cycles the cores spend issuing instructions
	// (per-instruction cost, including gaps). Domain cpu (open).
	ACPUIssue Category = iota
	// ACPUWindowStall: cycles a core sits stalled on a full
	// instruction window waiting for loads. Domain cpu (open).
	ACPUWindowStall
	// ALLCTagProbe: LLC tag-port cycles serving demand read lookups.
	ALLCTagProbe
	// ALLCTagWriteback: LLC tag-port cycles serving writeback lookups.
	ALLCTagWriteback
	// ALLCTagFiller: LLC tag-port cycles consumed by background scans
	// (DBI eviction drains, proactive-writeback harvests, flush walks).
	ALLCTagFiller
	// ADBIProbe: cycles spent querying the DBI (CLB dirty checks and
	// DBI-walk flushes). Domain dbi (open: probes overlap tag work).
	ADBIProbe
	// ADRAMBankService: bank-busy cycles doing useful work (activates
	// on closed rows, column bursts).
	ADRAMBankService
	// ADRAMBankConflict: bank cycles lost to row-buffer conflicts
	// (precharge + re-activate on a conflicting open row).
	ADRAMBankConflict
	// ADRAMRefresh: bank cycles reserved for refresh operations.
	ADRAMRefresh

	// ABytesReadFill: data-bus bytes for reads that fill the LLC.
	ABytesReadFill
	// ABytesReadBypass: data-bus bytes for reads bypassing the LLC.
	ABytesReadBypass
	// ABytesWBDemand: bytes written back on demand (dirty victims).
	ABytesWBDemand
	// ABytesWBWriteThrough: bytes from bypassed (skip-cache) writes.
	ABytesWBWriteThrough
	// ABytesWBProactive: bytes from DAWB/VWQ proactive writebacks.
	ABytesWBProactive
	// ABytesWBAWBHarvest: bytes from DBI-guided aggressive-writeback
	// harvests of row-hit dirty blocks.
	ABytesWBAWBHarvest
	// ABytesDBIDrain: bytes drained by DBI entry evictions.
	ABytesDBIDrain
	// ABytesWBEager: bytes from the eager-writeback ablation scans.
	ABytesWBEager
	// ABytesWBFlush: bytes written back by whole-cache flushes.
	ABytesWBFlush
	// ABytesWBDMA: bytes written back by DMA coherence requests.
	ABytesWBDMA

	// NumCategories sizes the ledger; not a real category.
	NumCategories
)

// Domain groups categories that share a unit and a closure rule.
type Domain uint8

const (
	// DomCPU: core cycles (open — issue and stall phases overlap
	// memory-system activity and each other across cores).
	DomCPU Domain = iota
	// DomLLCPort: LLC tag-port busy cycles (closed — the port is the
	// single funnel; every Submit charges the total).
	DomLLCPort
	// DomDBI: DBI probe cycles (open — probes run off-port).
	DomDBI
	// DomDRAMBank: DRAM bank busy/reserved cycles (closed — the
	// controller charges the total when it occupies a bank).
	DomDRAMBank
	// DomDRAMBus: DRAM data-bus bytes (closed — the controller
	// charges one block per accepted read/write request).
	DomDRAMBus

	// NumDomains sizes the domain arrays; not a real domain.
	NumDomains
)

// catInfo names each category and assigns its domain. Indexed by
// Category; order must match the const block above.
var catInfo = [NumCategories]struct {
	name string
	dom  Domain
}{
	ACPUIssue:            {"cpu.issue", DomCPU},
	ACPUWindowStall:      {"cpu.window_stall", DomCPU},
	ALLCTagProbe:         {"llc.tag_probe", DomLLCPort},
	ALLCTagWriteback:     {"llc.tag_writeback", DomLLCPort},
	ALLCTagFiller:        {"llc.tag_filler", DomLLCPort},
	ADBIProbe:            {"dbi.probe", DomDBI},
	ADRAMBankService:     {"dram.bank_service", DomDRAMBank},
	ADRAMBankConflict:    {"dram.bank_conflict", DomDRAMBank},
	ADRAMRefresh:         {"dram.refresh", DomDRAMBank},
	ABytesReadFill:       {"mem.read_fill", DomDRAMBus},
	ABytesReadBypass:     {"mem.read_bypass", DomDRAMBus},
	ABytesWBDemand:       {"wb.demand", DomDRAMBus},
	ABytesWBWriteThrough: {"wb.write_through", DomDRAMBus},
	ABytesWBProactive:    {"wb.proactive", DomDRAMBus},
	ABytesWBAWBHarvest:   {"wb.awb_harvest", DomDRAMBus},
	ABytesDBIDrain:       {"dbi.drain", DomDRAMBus},
	ABytesWBEager:        {"wb.eager", DomDRAMBus},
	ABytesWBFlush:        {"wb.flush", DomDRAMBus},
	ABytesWBDMA:          {"wb.dma", DomDRAMBus},
}

// domInfo names each domain, gives its unit, and marks the closed
// ones (category sum must equal the domain total).
var domInfo = [NumDomains]struct {
	name   string
	unit   string
	closed bool
}{
	DomCPU:      {"cpu", "cycles", false},
	DomLLCPort:  {"llc_port", "cycles", true},
	DomDBI:      {"dbi", "cycles", false},
	DomDRAMBank: {"dram_bank", "cycles", true},
	DomDRAMBus:  {"dram_bus", "bytes", true},
}

// catByName is the reverse of catInfo, for reconciling deserialized
// windows (dbiscope reads names back from JSON).
var catByName = func() map[string]Category {
	m := make(map[string]Category, NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		m[catInfo[c].name] = c
	}
	return m
}()

// domByName is the reverse of domInfo.
var domByName = func() map[string]Domain {
	m := make(map[string]Domain, NumDomains)
	for d := Domain(0); d < NumDomains; d++ {
		m[domInfo[d].name] = d
	}
	return m
}()

// String returns the category's dotted name.
func (c Category) String() string {
	if c < NumCategories {
		return catInfo[c].name
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Domain returns the domain the category belongs to.
func (c Category) Domain() Domain { return catInfo[c].dom }

// String returns the domain's name.
func (d Domain) String() string {
	if d < NumDomains {
		return domInfo[d].name
	}
	return fmt.Sprintf("Domain(%d)", uint8(d))
}

// Unit returns "cycles" or "bytes".
func (d Domain) Unit() string { return domInfo[d].unit }

// Closed reports whether the domain's category sum must equal its
// charged total.
func (d Domain) Closed() bool { return domInfo[d].closed }

// AttrValues is the raw ledger state: one counter per category plus
// one total per domain. It is a plain value type — arrays copy by
// assignment — so a baseline is a single struct copy.
type AttrValues struct {
	Cats [NumCategories]uint64
	Doms [NumDomains]uint64
}

// Sub returns the element-wise delta v - prev. Counters only grow
// between snapshots of the same run, so the subtraction cannot wrap.
func (v AttrValues) Sub(prev AttrValues) AttrValues {
	for i := range v.Cats {
		v.Cats[i] -= prev.Cats[i]
	}
	for i := range v.Doms {
		v.Doms[i] -= prev.Doms[i]
	}
	return v
}

// Charge adds n units to a category. Nil receivers are no-ops, so
// instrumented components charge unconditionally through a possibly
// nil pointer — the disabled path is one branch, zero allocation.
func (a *Attribution) Charge(c Category, n uint64) {
	if a == nil {
		return
	}
	a.v.Cats[c] += n
}

// ChargeDomain adds n units to a domain total. For closed domains the
// owning component calls this at the same call sites where callers
// charge categories, so the two sides reconcile exactly.
func (a *Attribution) ChargeDomain(d Domain, n uint64) {
	if a == nil {
		return
	}
	a.v.Doms[d] += n
}

// Values returns a copy of the ledger state, for window baselines.
func (a *Attribution) Values() AttrValues {
	if a == nil {
		return AttrValues{}
	}
	return a.v
}

// AttrWindow is one observation window of the ledger, serialized with
// category/domain names so result JSON is self-describing. Zero
// entries are omitted; Go marshals map keys sorted, so output is
// deterministic.
type AttrWindow struct {
	// Cycles is the simulated length of the window, the denominator
	// for cycle-domain percentages.
	Cycles     uint64            `json:"cycles"`
	Categories map[string]uint64 `json:"categories,omitempty"`
	Domains    map[string]uint64 `json:"domains,omitempty"`
}

// NewAttrWindow converts raw ledger values (typically a Sub delta)
// into a named window covering cycles simulated cycles.
func NewAttrWindow(v AttrValues, cycles uint64) AttrWindow {
	w := AttrWindow{Cycles: cycles}
	for c := Category(0); c < NumCategories; c++ {
		if n := v.Cats[c]; n != 0 {
			if w.Categories == nil {
				w.Categories = make(map[string]uint64)
			}
			w.Categories[catInfo[c].name] = n
		}
	}
	for d := Domain(0); d < NumDomains; d++ {
		if n := v.Doms[d]; n != 0 {
			if w.Domains == nil {
				w.Domains = make(map[string]uint64)
			}
			w.Domains[domInfo[d].name] = n
		}
	}
	return w
}

// Reconcile checks the window's closure rules: for every closed
// domain, the sum of its categories must equal the charged domain
// total. It also rejects unknown names, so a hand-edited or
// version-skewed file fails loudly rather than silently misreporting.
func (w AttrWindow) Reconcile() error {
	var sums [NumDomains]uint64
	for name, n := range w.Categories {
		c, ok := catByName[name]
		if !ok {
			return fmt.Errorf("attr: unknown category %q", name)
		}
		sums[catInfo[c].dom] += n
	}
	for name := range w.Domains {
		if _, ok := domByName[name]; !ok {
			return fmt.Errorf("attr: unknown domain %q", name)
		}
	}
	for d := Domain(0); d < NumDomains; d++ {
		if !domInfo[d].closed {
			continue
		}
		total := w.Domains[domInfo[d].name]
		if sums[d] != total {
			return fmt.Errorf("attr: domain %s does not reconcile: categories sum to %d %s, total charged %d",
				domInfo[d].name, sums[d], domInfo[d].unit, total)
		}
	}
	return nil
}

// AttrReport splits a run's attribution at the warmup/measure
// boundary: the instant the last core finishes its warmup, where the
// run's measured-window statistics start.
type AttrReport struct {
	Warmup  AttrWindow `json:"warmup"`
	Measure AttrWindow `json:"measure"`
}

// AttrAggregate accumulates measure-window attribution process-wide
// (across every cell of every sweep) for the live ops plane. Adds are
// per-cell, never on a simulated hot path.
type AttrAggregate struct {
	cats [NumCategories]atomic.Uint64
	doms [NumDomains]atomic.Uint64
}

// AttrTotals is the process-wide instance the system harvest folds
// measure windows into; the ops plane serves it at /metrics.
var AttrTotals AttrAggregate

// Add folds one window's raw values into the aggregate.
func (a *AttrAggregate) Add(v AttrValues) {
	for c := Category(0); c < NumCategories; c++ {
		if n := v.Cats[c]; n != 0 {
			a.cats[c].Add(n)
		}
	}
	for d := Domain(0); d < NumDomains; d++ {
		if n := v.Doms[d]; n != 0 {
			a.doms[d].Add(n)
		}
	}
}

// RegisterMetrics exposes the aggregate on a telemetry registry under
// attr.<category> / attr.domain.<domain> counter names.
func (a *AttrAggregate) RegisterMetrics(reg *Registry) {
	for c := Category(0); c < NumCategories; c++ {
		reg.Counter("attr."+catInfo[c].name, a.cats[c].Load)
	}
	for d := Domain(0); d < NumDomains; d++ {
		reg.Counter("attr.domain."+domInfo[d].name, a.doms[d].Load)
	}
}

// AttrCategoryInfo describes one category for offline consumers
// (dbiscope's report tables).
type AttrCategoryInfo struct {
	Name   string
	Domain string
}

// AttrDomainInfo describes one domain for offline consumers.
type AttrDomainInfo struct {
	Name   string
	Unit   string
	Closed bool
}

// AttrCategories returns category metadata in enum order.
func AttrCategories() []AttrCategoryInfo {
	out := make([]AttrCategoryInfo, NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		out[c] = AttrCategoryInfo{Name: catInfo[c].name, Domain: domInfo[catInfo[c].dom].name}
	}
	return out
}

// AttrDomains returns domain metadata in enum order.
func AttrDomains() []AttrDomainInfo {
	out := make([]AttrDomainInfo, NumDomains)
	for d := Domain(0); d < NumDomains; d++ {
		out[d] = AttrDomainInfo{Name: domInfo[d].name, Unit: domInfo[d].unit, Closed: domInfo[d].closed}
	}
	return out
}
