package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if !almost(Ratio(1, 4), 0.25) {
		t.Fatal("Ratio(1,4) != 0.25")
	}
	if Ratio(5, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
}

func TestPerKilo(t *testing.T) {
	if !almost(PerKilo(5, 1000), 5) {
		t.Fatal("PerKilo(5,1000) != 5")
	}
	if PerKilo(5, 0) != 0 {
		t.Fatal("PerKilo with zero units must be 0")
	}
}

func TestMeans(t *testing.T) {
	vals := []float64{1, 2, 4}
	if !almost(Mean(vals), 7.0/3) {
		t.Fatal("Mean wrong")
	}
	if !almost(GeoMean(vals), 2) {
		t.Fatalf("GeoMean = %v, want 2", GeoMean(vals))
	}
	if GeoMean(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
	if GeoMean([]float64{1, 0}) != 0 || GeoMean([]float64{1, -1}) != 0 {
		t.Fatal("non-positive values must give 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 3, 9, -2} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	// 9 clamps into overflow bucket (index 4); -2 clamps to 0.
	if b := h.Buckets(); b[0] != 2 || b[1] != 2 || b[4] != 1 {
		t.Fatalf("buckets = %v, want 2 at 0 and 1, 1 in overflow", b)
	}
	// Mean uses un-clamped sum: (0+1+1+3+9+0)/6.
	if !almost(h.Mean(), 14.0/6) {
		t.Fatalf("Mean = %v", h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10)
	for v := 0; v < 10; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Fatalf("median = %d, want 4", q)
	}
	if q := h.Quantile(1.0); q != 9 {
		t.Fatalf("p100 = %d, want 9", q)
	}
	if q := h.Quantile(-1); q != 0 {
		t.Fatalf("clamped low quantile = %d, want 0", q)
	}
	empty := NewHistogram(4)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram must be 0")
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedCopy(in)
	if in[0] != 3 {
		t.Fatal("SortedCopy mutated its input")
	}
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("SortedCopy = %v", out)
	}
}

// Property: histogram count equals number of observations and quantile is
// within bucket range.
func TestQuickHistogram(t *testing.T) {
	f := func(samples []uint8) bool {
		h := NewHistogram(16)
		for _, s := range samples {
			h.Observe(int(s))
		}
		if h.Count() != uint64(len(samples)) {
			return false
		}
		q := h.Quantile(0.9)
		return q >= 0 && q <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: GeoMean of positive values lies between min and max.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]float64, 0, len(raw))
		for _, r := range raw {
			vals = append(vals, float64(r)+1)
		}
		if len(vals) == 0 {
			return true
		}
		g := GeoMean(vals)
		sorted := SortedCopy(vals)
		return g >= sorted[0]-1e-9 && g <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsAccessor(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(1)
	h.Observe(1)
	h.Observe(9) // clamps into the overflow bucket
	b := h.Buckets()
	if len(b) != 5 {
		t.Fatalf("buckets len = %d, want 5 (0..3 + overflow)", len(b))
	}
	if b[1] != 2 || b[4] != 1 {
		t.Fatalf("buckets = %v, want [0 2 0 0 1]", b)
	}
	b[1] = 99 // the accessor must copy, not alias
	if h.Buckets()[1] != 2 {
		t.Fatal("Buckets() aliases internal state")
	}
	if h.Sum() != 1+1+9 {
		t.Fatalf("Sum = %d, want 11", h.Sum())
	}
}
