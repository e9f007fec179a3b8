package telemetry

import (
	"encoding/json"
	"testing"
)

func TestAttrNilReceiverIsNoOp(t *testing.T) {
	var a *Attribution
	a.Charge(ACPUIssue, 10)
	a.ChargeDomain(DomDRAMBus, 64)
	if v := a.Values(); v != (AttrValues{}) {
		t.Fatalf("nil Attribution returned nonzero values: %+v", v)
	}
}

func TestAttrNilChargeAllocs(t *testing.T) {
	var a *Attribution
	if n := testing.AllocsPerRun(100, func() {
		a.Charge(ALLCTagProbe, 3)
		a.ChargeDomain(DomLLCPort, 3)
	}); n != 0 {
		t.Fatalf("nil charge allocates %v per run", n)
	}
	b := &Attribution{}
	if n := testing.AllocsPerRun(100, func() {
		b.Charge(ALLCTagProbe, 3)
		b.ChargeDomain(DomLLCPort, 3)
	}); n != 0 {
		t.Fatalf("enabled charge allocates %v per run", n)
	}
}

func TestAttrChargeAndValues(t *testing.T) {
	a := &Attribution{}
	a.Charge(ADRAMBankService, 5)
	a.Charge(ADRAMBankService, 7)
	a.ChargeDomain(DomDRAMBank, 12)
	v := a.Values()
	if v.Cats[ADRAMBankService] != 12 || v.Doms[DomDRAMBank] != 12 {
		t.Fatalf("values = %+v", v)
	}
}

func TestAttrValuesSub(t *testing.T) {
	var base, cur AttrValues
	base.Cats[ABytesWBDemand] = 64
	base.Doms[DomDRAMBus] = 64
	cur.Cats[ABytesWBDemand] = 192
	cur.Doms[DomDRAMBus] = 192
	d := cur.Sub(base)
	if d.Cats[ABytesWBDemand] != 128 || d.Doms[DomDRAMBus] != 128 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestAttrCategoryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		name := c.String()
		if name == "" || seen[name] {
			t.Fatalf("category %d has empty or duplicate name %q", c, name)
		}
		seen[name] = true
		if catInfo[c].dom >= NumDomains {
			t.Fatalf("category %s has invalid domain", name)
		}
	}
	if got := ABytesWBAWBHarvest.String(); got != "wb.awb_harvest" {
		t.Fatalf("name = %q", got)
	}
	if catInfo[ALLCTagProbe].dom != DomLLCPort || !domInfo[DomLLCPort].closed {
		t.Fatal("llc.tag_probe must live in the closed llc_port domain")
	}
	if domInfo[DomDRAMBus].unit != "bytes" || domInfo[DomCPU].unit != "cycles" {
		t.Fatal("domain units wrong")
	}
	if domInfo[DomCPU].closed || domInfo[DomDBI].closed {
		t.Fatal("cpu and dbi domains must be open")
	}
}

func TestAttrWindowRoundTripAndReconcile(t *testing.T) {
	a := &Attribution{}
	a.Charge(ALLCTagProbe, 40)
	a.Charge(ALLCTagFiller, 8)
	a.ChargeDomain(DomLLCPort, 48)
	a.Charge(ABytesReadFill, 128)
	a.ChargeDomain(DomDRAMBus, 128)
	a.Charge(ACPUIssue, 1000) // open domain: no total needed

	w := NewAttrWindow(a.Values(), 5000)
	if err := w.Reconcile(); err != nil {
		t.Fatalf("consistent window failed reconcile: %v", err)
	}
	if w.Categories["llc.tag_probe"] != 40 || w.Domains["llc_port"] != 48 {
		t.Fatalf("window = %+v", w)
	}
	if _, ok := w.Categories["llc.tag_writeback"]; ok {
		t.Fatal("zero category not omitted")
	}

	// JSON round trip preserves reconcilability.
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back AttrWindow
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Reconcile(); err != nil {
		t.Fatalf("round-tripped window failed reconcile: %v", err)
	}

	// An uncharged call site (category without total) must fail.
	a.Charge(ALLCTagWriteback, 1)
	if err := NewAttrWindow(a.Values(), 5000).Reconcile(); err == nil {
		t.Fatal("unbalanced closed domain passed reconcile")
	}
}

func TestAttrWindowReconcileRejectsUnknownNames(t *testing.T) {
	w := AttrWindow{Categories: map[string]uint64{"bogus.cat": 1}}
	if err := w.Reconcile(); err == nil {
		t.Fatal("unknown category accepted")
	}
	w = AttrWindow{Domains: map[string]uint64{"bogus_dom": 1}}
	if err := w.Reconcile(); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

func TestAttrAggregate(t *testing.T) {
	var agg AttrAggregate
	var v AttrValues
	v.Cats[ADBIProbe] = 9
	v.Doms[DomDBI] = 9
	agg.Add(v)
	agg.Add(v)

	reg := NewRegistry()
	agg.RegisterMetrics(reg)
	got := map[string]uint64{}
	reg.EachScalar(func(name, kind string, val float64) {
		if kind != KindCounter {
			t.Fatalf("%s registered as %v, want counter", name, kind)
		}
		got[name] = uint64(val)
	})
	if got["attr.dbi.probe"] != 18 || got["attr.domain.dbi"] != 18 {
		t.Fatalf("aggregate counters = %v", got)
	}
	// Every category and domain family must be present even at zero.
	if len(got) < int(NumCategories)+int(NumDomains) {
		t.Fatalf("registered %d families, want %d", len(got), int(NumCategories)+int(NumDomains))
	}
}

func TestAttrMetadataExports(t *testing.T) {
	cats := AttrCategories()
	if len(cats) != int(NumCategories) {
		t.Fatalf("categories = %d", len(cats))
	}
	doms := AttrDomains()
	if len(doms) != int(NumDomains) {
		t.Fatalf("domains = %d", len(doms))
	}
	domSet := map[string]bool{}
	for _, d := range doms {
		domSet[d.Name] = true
	}
	for _, c := range cats {
		if !domSet[c.Domain] {
			t.Fatalf("category %s names unknown domain %s", c.Name, c.Domain)
		}
	}
}
