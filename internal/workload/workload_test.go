package workload

import (
	"testing"
	"testing/quick"

	"dap/internal/mem"
)

func TestSuiteComposition(t *testing.T) {
	if n := len(Sensitive()); n != 12 {
		t.Fatalf("sensitive = %d, want 12", n)
	}
	if n := len(Insensitive()); n != 5 {
		t.Fatalf("insensitive = %d, want 5", n)
	}
	if n := len(All()); n != 17 {
		t.Fatalf("all = %d, want 17", n)
	}
	for _, s := range Sensitive() {
		if !s.BandwidthSensitive {
			t.Errorf("%s must be marked bandwidth-sensitive", s.Name)
		}
	}
	for _, s := range Insensitive() {
		if s.BandwidthSensitive {
			t.Errorf("%s must not be marked bandwidth-sensitive", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("mcf")
	if !ok || s.Name != "mcf" {
		t.Fatal("mcf must resolve")
	}
	if _, ok := ByName("no-such-benchmark"); ok {
		t.Fatal("unknown name must fail")
	}
	if len(Names()) != 17 {
		t.Fatal("Names must list all 17")
	}
}

func TestMixCounts(t *testing.T) {
	hm := HeterogeneousMixes(8)
	if len(hm) != 27 {
		t.Fatalf("heterogeneous mixes = %d, want 27", len(hm))
	}
	for _, m := range hm {
		if len(m.Specs) != 8 {
			t.Fatalf("%s has %d specs", m.Name, len(m.Specs))
		}
	}
	all := AllMixes(8)
	if len(all) != 44 {
		t.Fatalf("all mixes = %d, want 44", len(all))
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, _ := ByName("mcf")
	a := NewStream(spec, 1<<36, 42)
	b := NewStream(spec, 1<<36, 42)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("streams diverge at access %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	spec, _ := ByName("mcf")
	a := NewStream(spec, 1<<36, 1)
	b := NewStream(spec, 1<<36, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical addresses", same)
	}
}

func TestAddressesStayInFootprint(t *testing.T) {
	for _, spec := range All() {
		base := mem.Addr(3) * CoreSpacing
		s := NewStream(spec, base, 7)
		limit := base + mem.Addr(spec.Footprint())
		for i := 0; i < 20000; i++ {
			a := s.Next()
			if a.Addr < base || a.Addr >= limit+mem.Addr(4096) {
				t.Fatalf("%s: address %#x outside [%#x, %#x)", spec.Name, a.Addr, base, limit)
			}
			if a.Addr%mem.LineBytes != 0 {
				t.Fatalf("%s: address %#x not line-aligned", spec.Name, a.Addr)
			}
		}
	}
}

func TestWriteFractionRoughlyHonored(t *testing.T) {
	spec, _ := ByName("parboil-lbm") // WriteFrac 0.45
	s := NewStream(spec, 1<<36, 3)
	stores := 0
	n := 50000
	for i := 0; i < n; i++ {
		if s.Next().Store {
			stores++
		}
	}
	frac := float64(stores) / float64(n)
	if frac < 0.40 || frac > 0.50 {
		t.Fatalf("store fraction = %.3f, want ~0.45", frac)
	}
}

func TestMeanGapMatchesIntensity(t *testing.T) {
	spec, _ := ByName("mcf") // 42 mem per kilo -> mean gap ~22.8
	s := NewStream(spec, 1<<36, 3)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += float64(s.Next().Gap)
	}
	meanGap := sum / float64(n)
	want := 1000/spec.MemPerKilo - 1
	if meanGap < want*0.85 || meanGap > want*1.15 {
		t.Fatalf("mean gap = %.1f, want ~%.1f", meanGap, want)
	}
}

func TestSectorDensityLimitsBlocks(t *testing.T) {
	spec, _ := ByName("omnetpp") // density 0.20 -> <= 13 blocks per sector
	s := NewStream(spec, 0, 3)
	blocks := make(map[uint64]map[uint64]bool)
	for i := 0; i < 100000; i++ {
		a := s.Next()
		sector := uint64(a.Addr) / 4096
		if blocks[sector] == nil {
			blocks[sector] = make(map[uint64]bool)
		}
		blocks[sector][uint64(a.Addr.Line())%64] = true
	}
	max := int(spec.SectorDensity*64 + 0.5)
	for sector, bs := range blocks {
		if len(bs) > max {
			t.Fatalf("sector %d uses %d blocks, density cap is %d", sector, len(bs), max)
		}
	}
}

func TestDependentOnlyFromChase(t *testing.T) {
	spec, _ := ByName("libquantum") // no chase fraction
	s := NewStream(spec, 0, 3)
	for i := 0; i < 20000; i++ {
		if s.Next().Dependent {
			t.Fatal("libquantum must not emit dependent accesses")
		}
	}
	spec2, _ := ByName("mcf")
	s2 := NewStream(spec2, 0, 3)
	dep := 0
	for i := 0; i < 20000; i++ {
		if s2.Next().Dependent {
			dep++
		}
	}
	if dep < 20000/4 {
		t.Fatalf("mcf chase fraction 0.40 but only %d/20000 dependent", dep)
	}
}

func TestRateNPrivateRegions(t *testing.T) {
	spec, _ := ByName("hpcg")
	streams := RateMix(spec, 8).StreamsSeeded(0)
	if len(streams) != 8 {
		t.Fatal("want 8 streams")
	}
	for i, s := range streams {
		a := s.Next()
		region := a.Addr / CoreSpacing
		if int(region) != i+1 {
			t.Fatalf("stream %d emits region %d", i, region)
		}
	}
}

func TestSkewConcentratesMass(t *testing.T) {
	spec := Spec{Name: "skewtest", FootprintMB: 8, SkewAlpha: 3, MemPerKilo: 20, SectorDensity: 1}
	s := NewStream(spec, 0, 5)
	lines := spec.Footprint() / mem.LineBytes
	inFirstQuarter := 0
	n := 50000
	for i := 0; i < n; i++ {
		if uint64(s.Next().Addr.Line()) < lines/4 {
			inFirstQuarter++
		}
	}
	// With alpha=3, P(first quarter) = 0.25^(1/3) ~ 0.63.
	if frac := float64(inFirstQuarter) / float64(n); frac < 0.5 {
		t.Fatalf("skewed stream put only %.2f of mass in first quarter", frac)
	}
}

// Property: every generated access is inside the core's region and gaps are
// bounded.
func TestStreamInvariants(t *testing.T) {
	f := func(seed uint16, which uint8) bool {
		specs := All()
		spec := specs[int(which)%len(specs)]
		s := NewStream(spec, CoreSpacing, uint64(seed)+1)
		for i := 0; i < 500; i++ {
			a := s.Next()
			if a.Addr < CoreSpacing || a.Addr >= 2*CoreSpacing {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWorkloadGen measures access-stream generation cost.
func BenchmarkWorkloadGen(b *testing.B) {
	spec, _ := ByName("mcf")
	s := NewStream(spec, CoreSpacing, 1)
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
