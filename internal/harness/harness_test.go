package harness

import (
	"fmt"
	"strings"
	"testing"

	"dap/internal/dram"
	"dap/internal/workload"
)

func quickMix() workload.Mix {
	spec, _ := workload.ByName("libquantum")
	return workload.RateMix(spec, 8)
}

// quickCkpt is the in-memory warmup-checkpoint cache that the Quick-scale
// run tests and the figure-shape tests share. Their configurations differ
// in runtime-only fields (policy, audit, BEAR, DAP parameters), so each
// (mix, architecture, warmup) warms once for all of them, and a resumed
// run is bit-identical to a straight one. TestCheckpointResumeBitIdentical
// and TestGoldenTiny check the straight path.
var quickCkpt = MemCheckpoints()

// runQuick is RunMix resuming from quickCkpt.
func runQuick(cfg Config, mix workload.Mix) Result {
	return simulate(cfg, mix, 0, quickCkpt)
}

func TestParseArchPolicyRoundTrip(t *testing.T) {
	for _, a := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache} {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseArch("bogus"); err == nil {
		t.Fatal("ParseArch accepted bogus")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	r := runQuick(Quick(), quickMix())
	if r.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if len(r.Cores) != 8 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	for i, c := range r.Cores {
		if c.Instructions == 0 || c.IPC() <= 0 || c.IPC() > 4.05 {
			t.Fatalf("core %d: %+v", i, c)
		}
	}
	if r.MSCacheCAS == 0 {
		t.Fatal("memory-side cache saw no traffic")
	}
	if f := r.MainMemCASFraction(); f < 0 || f > 1 {
		t.Fatalf("CAS fraction = %v", f)
	}
	if r.DAP.Total() != 0 {
		t.Fatal("baseline must not record DAP decisions")
	}
}

func TestDAPRunPartitionsUnderPressure(t *testing.T) {
	cfg := Quick()
	cfg.Policy = DAP
	r := runQuick(cfg, quickMix())
	if r.DAP.Total() == 0 {
		t.Fatal("DAP made no decisions on a bandwidth-saturated workload")
	}
	if r.MainMemCASFraction() <= 0.01 {
		t.Fatal("DAP must move traffic to main memory")
	}
}

func TestArchitecturesRun(t *testing.T) {
	for _, arch := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache} {
		cfg := Quick()
		cfg.Arch = arch
		r := runQuick(cfg, quickMix())
		if r.Cycles == 0 || r.Cores[0].Instructions == 0 {
			t.Fatalf("arch %d produced empty run", arch)
		}
	}
}

func TestPoliciesRun(t *testing.T) {
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		cfg := Quick()
		cfg.Policy = p
		r := runQuick(cfg, quickMix())
		if r.Cycles == 0 {
			t.Fatalf("policy %v produced empty run", p)
		}
	}
}

func TestDAPPoliciesOnAllArchitectures(t *testing.T) {
	// Each architecture gets a workload whose working set gives it the
	// paper's operating point: high hit rates, so the cache is the
	// bottleneck and partitioning engages.
	cases := []struct {
		arch Arch
		name string
	}{
		{SectoredDRAM, "libquantum"},
		{AlloyCache, "libquantum"},
		{SectoredEDRAM, "hpcg"},
	}
	for _, c := range cases {
		cfg := Quick()
		cfg.Arch = c.arch
		cfg.Policy = DAP
		spec, _ := workload.ByName(c.name)
		r := runQuick(cfg, workload.RateMix(spec, cfg.CPU.Cores))
		if r.DAP.Total() == 0 {
			t.Errorf("arch %d (%s): DAP idle under saturation", c.arch, c.name)
		}
	}
}

// TestOptimalMainMemFraction: the optimal share printed beside a run's
// main-memory CAS fraction follows its system's source bandwidths
// (Equations 3 and 4), not the default sectored cache's.
func TestOptimalMainMemFraction(t *testing.T) {
	at := func(arch Arch) Config {
		cfg := Quick()
		cfg.Arch = arch
		return cfg
	}
	hbm204 := Quick()
	hbm204.Sectored.Array = dram.HBM204()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sectored", at(SectoredDRAM), "0.273"},
		{"alloy", at(AlloyCache), "0.360"},
		{"edram", at(SectoredEDRAM), "0.273"},
		{"none", at(NoMSCache), "1.000"},
		{"sectored-hbm204", hbm204, "0.158"},
	} {
		r := Result{Config: tc.cfg}
		if got := fmt.Sprintf("%.3f", r.OptimalMainMemFraction()); got != tc.want {
			t.Errorf("%s: optimal main-memory fraction %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestAloneIPCPositive(t *testing.T) {
	spec, _ := workload.ByName("gcc.expr")
	v := AloneIPC(Quick(), spec)
	if v <= 0 || v > 4 {
		t.Fatalf("alone IPC = %v", v)
	}
}

func TestHeterogeneousMixRuns(t *testing.T) {
	mixes := workload.HeterogeneousMixes(8)
	r := RunMix(Quick(), mixes[0])
	if r.Cycles == 0 {
		t.Fatal("heterogeneous mix failed")
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{
		ID:    "Fig. X",
		Title: "test",
		Series: []Series{
			{Label: "a", Names: []string{"w1", "w2"}, Values: []float64{1, 2}, Summary: 1.41, SummaryKind: "GMEAN"},
			{Label: "b", Names: []string{"w1", "w2"}, Values: []float64{3, 4}, Summary: 3.46, SummaryKind: "GMEAN"},
		},
		Notes: "hello",
	}
	s := f.String()
	for _, want := range []string{"Fig. X", "w1", "w2", "GMEAN", "1.410", "hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFig01Shape(t *testing.T) {
	f := Fig01(Options{Quick: true})
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	dram, edram := f.Series[0].Values, f.Series[1].Values
	// DRAM cache: monotone non-decreasing with hit rate; saturates high
	if dram[5] < dram[0] || dram[5] < 80 {
		t.Fatalf("DRAM$ shape wrong: %v", dram)
	}
	// eDRAM: 100%-hit point is LOWER than the mid-range peak (the paper's
	// key observation) and equals roughly the read-channel bandwidth
	peak := 0.0
	for _, v := range edram {
		if v > peak {
			peak = v
		}
	}
	if edram[5] >= peak {
		t.Fatalf("eDRAM must lose bandwidth at 100%% hits: %v", edram)
	}
	if edram[5] < 40 || edram[5] > 55 {
		t.Fatalf("eDRAM at 100%% should deliver ~51.2 GB/s: %v", edram)
	}
}

func TestBandwidthKernelZeroHitIsMemoryBound(t *testing.T) {
	r := BandwidthKernel(KernelDRAMCache, 0, 128, 500_000)
	if r.DeliveredGBps > 38.4 {
		t.Fatalf("0%% hits cannot exceed main-memory bandwidth: %v", r.DeliveredGBps)
	}
	if r.DeliveredGBps < 25 {
		t.Fatalf("0%% hits should still stream near memory peak: %v", r.DeliveredGBps)
	}
}
