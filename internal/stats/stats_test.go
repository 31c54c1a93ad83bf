package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoreStatsDerived(t *testing.T) {
	c := CoreStats{Instructions: 2000, Cycles: 1000, L3Misses: 40,
		L3ReadMissLatSum: 5000, L3ReadMisses: 25}
	if c.IPC() != 2.0 {
		t.Fatalf("IPC = %v", c.IPC())
	}
	if c.MPKI() != 20 {
		t.Fatalf("MPKI = %v", c.MPKI())
	}
	if c.AvgL3ReadMissLatency() != 200 {
		t.Fatalf("lat = %v", c.AvgL3ReadMissLatency())
	}
	var zero CoreStats
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.AvgL3ReadMissLatency() != 0 {
		t.Fatal("zero-value stats must not divide by zero")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	cores := []CoreStats{
		{Instructions: 100, Cycles: 100}, // IPC 1
		{Instructions: 200, Cycles: 100}, // IPC 2
	}
	ws := WeightedSpeedup(cores, []float64{2, 4})
	if ws != 1.0 {
		t.Fatalf("ws = %v, want 0.5+0.5", ws)
	}
	// zero alone IPCs contribute nothing
	if got := WeightedSpeedup(cores, []float64{0, 4}); got != 0.5 {
		t.Fatalf("ws = %v", got)
	}
	// short alone slice is tolerated
	if got := WeightedSpeedup(cores, []float64{2}); got != 0.5 {
		t.Fatalf("ws = %v", got)
	}
}

func TestDAPDecisionFractions(t *testing.T) {
	d := DAPDecisions{FWB: 1, WB: 2, IFRM: 3, SFRM: 4}
	if d.Total() != 10 {
		t.Fatalf("total = %d", d.Total())
	}
	f, w, i, s := d.Fractions()
	if f != 0.1 || w != 0.2 || i != 0.3 || s != 0.4 {
		t.Fatalf("fractions = %v %v %v %v", f, w, i, s)
	}
	var zero DAPDecisions
	f, w, i, s = zero.Fractions()
	if f+w+i+s != 0 {
		t.Fatal("zero decisions must produce zero fractions")
	}
}

func TestMemSideRatios(t *testing.T) {
	m := MemSideStats{ReadHits: 70, ReadMisses: 10, WriteHits: 15, WriteMisses: 5}
	if m.HitRatio() != 0.85 {
		t.Fatalf("hit = %v", m.HitRatio())
	}
	if m.ReadHitRatio() != 0.875 {
		t.Fatalf("read hit = %v", m.ReadHitRatio())
	}
	m.TagCacheHits, m.TagCacheMisses = 3, 1
	if m.TagCacheMissRatio() != 0.25 {
		t.Fatalf("tag miss = %v", m.TagCacheMissRatio())
	}
}

func TestRunDerived(t *testing.T) {
	r := Run{MSCacheCAS: 73, MainMemCAS: 27}
	if math.Abs(r.MainMemCASFraction()-0.27) > 1e-12 {
		t.Fatalf("cas frac = %v", r.MainMemCASFraction())
	}
	r.Cores = []CoreStats{
		{L3ReadMissLatSum: 100, L3ReadMisses: 1},
		{L3ReadMissLatSum: 300, L3ReadMisses: 1},
	}
	if r.AvgL3ReadMissLatency() != 200 {
		t.Fatalf("avg lat = %v", r.AvgL3ReadMissLatency())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v", g)
	}
	// zeros and negatives are skipped
	if g := GeoMean([]float64{0, -1, 4}); g != 4 {
		t.Fatalf("geomean with junk = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("empty = %v", g)
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		var vs []float64
		lo, hi := math.Inf(1), 0.0
		for _, r := range raw {
			v := float64(r)/100 + 0.01
			vs = append(vs, v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndSorted(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
	in := []float64{3, 1, 2}
	out := SortedCopy(in)
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("sorted = %v", out)
	}
	if in[0] != 3 {
		t.Fatal("input must not be mutated")
	}
}
