package harness

import (
	"testing"

	"dap/internal/mem"
	"dap/internal/workload"
)

// TestDeterminism: the event engine's deterministic tie-break plus seeded
// streams must make every run exactly reproducible.
func TestDeterminism(t *testing.T) {
	cfg := Quick()
	cfg.Policy = DAP
	cfg.MeasureInstr = 150_000
	spec, _ := workload.ByName("soplex.ref")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	a := RunMix(cfg, mix)
	b := RunMix(cfg, mix)
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.MSCacheCAS != b.MSCacheCAS || a.MainMemCAS != b.MainMemCAS {
		t.Fatalf("CAS differ: %d/%d vs %d/%d", a.MSCacheCAS, a.MainMemCAS, b.MSCacheCAS, b.MainMemCAS)
	}
	if a.DAP != b.DAP {
		t.Fatalf("decisions differ: %+v vs %+v", a.DAP, b.DAP)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d stats differ", i)
		}
	}
}

// TestBandwidthCeiling: no run may deliver more bandwidth than the sum of
// its sources' peaks.
func TestBandwidthCeiling(t *testing.T) {
	cfg := Quick()
	cfg.Policy = DAP
	spec, _ := workload.ByName("libquantum")
	r := RunMix(cfg, workload.RateMix(spec, cfg.CPU.Cores))
	limit := cfg.Sectored.Array.PeakGBps() + cfg.MainMemory.PeakGBps()
	if r.DeliveredGBps > limit {
		t.Fatalf("delivered %.1f GB/s exceeds the %.1f GB/s ceiling", r.DeliveredGBps, limit)
	}
}

// TestDAPRespectsOptimalFraction: with DAP, the main-memory CAS fraction
// must move toward (and never far beyond) the optimal B_MM/(B_MM+B_MS$).
func TestDAPRespectsOptimalFraction(t *testing.T) {
	base := Quick()
	dapCfg := base
	dapCfg.Policy = DAP
	spec, _ := workload.ByName("libquantum")
	mix := workload.RateMix(spec, base.CPU.Cores)
	rb := RunMix(base, mix)
	rd := RunMix(dapCfg, mix)
	optimal := base.MainMemory.PeakGBps() /
		(base.MainMemory.PeakGBps() + base.Sectored.Array.PeakGBps())
	if rd.MainMemCASFraction() <= rb.MainMemCASFraction() {
		t.Fatalf("DAP did not raise the CAS fraction: %.3f -> %.3f",
			rb.MainMemCASFraction(), rd.MainMemCASFraction())
	}
	if rd.MainMemCASFraction() > optimal+0.15 {
		t.Fatalf("DAP overshot the optimal fraction: %.3f vs %.3f",
			rd.MainMemCASFraction(), optimal)
	}
}

// TestInsensitiveWorkloadsUnaffected: DAP must rarely partition for
// low-demand workloads (the paper: "DAP seldom invokes partitioning for
// these workloads" and none lose performance).
func TestInsensitiveWorkloadsUnaffected(t *testing.T) {
	cfg := Quick()
	cfg.Policy = DAP
	spec, _ := workload.ByName("parboil-histo")
	r := RunMix(cfg, workload.RateMix(spec, cfg.CPU.Cores))
	// decisions per 1000 cycles should be tiny compared to saturated runs
	rate := float64(r.DAP.Total()) / float64(r.Cycles) * 1000
	if rate > 20 {
		t.Fatalf("DAP partitions an insensitive workload heavily: %.1f decisions/kcycle", rate)
	}
}

// TestEveryMixRunsShort exercises all 44 mixes end to end (very short runs)
// so that no combination of specs can break the pipeline.
func TestEveryMixRunsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := Quick()
	cfg.WarmAccesses = 20_000
	cfg.MeasureInstr = 40_000
	cfg.Policy = DAP
	for _, m := range workload.AllMixes(cfg.CPU.Cores) {
		r := RunMix(cfg, m)
		if r.Cycles == 0 {
			t.Fatalf("mix %s: empty run", m.Name)
		}
		for i := range r.Cores {
			if r.Cores[i].Instructions == 0 {
				t.Fatalf("mix %s: core %d made no progress", m.Name, i)
			}
		}
	}
}

// TestCASConservation: on the baseline, every demand read miss must produce
// at least one main-memory read, and main-memory traffic must be fully
// attributable (reads >= misses, writes >= dirty write-outs).
func TestCASConservation(t *testing.T) {
	cfg := Quick()
	spec, _ := workload.ByName("parboil-lbm")
	sys := Build(cfg, workload.RateMix(spec, cfg.CPU.Cores))
	sys.Warmup()
	r := sys.Measure()
	mmStats := sys.MM.Stats()
	if mmStats.Reads < r.MemSide.ReadMisses {
		t.Fatalf("MM reads %d < MS$ read misses %d", mmStats.Reads, r.MemSide.ReadMisses)
	}
	// a few hundred victim-read -> memory-write chains may still be in
	// flight when the run ends
	const inflightSlack = 1024
	if mmStats.Writes+inflightSlack < r.MemSide.DirtyWriteouts {
		t.Fatalf("MM writes %d << dirty write-outs %d", mmStats.Writes, r.MemSide.DirtyWriteouts)
	}
}

// TestCapacityMonotonicity: a larger memory-side cache must not lower the
// hit ratio for a capacity-pressured workload.
func TestCapacityMonotonicity(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	var hits []float64
	for _, capMB := range []int{32, 64, 128} {
		cfg := Quick()
		cfg.Sectored.CapacityBytes = capMB * mem.MiB
		r := RunMix(cfg, workload.RateMix(spec, cfg.CPU.Cores))
		hits = append(hits, r.MemSide.HitRatio())
	}
	if hits[1] < hits[0]-0.02 || hits[2] < hits[1]-0.02 {
		t.Fatalf("hit ratio not monotone with capacity: %v", hits)
	}
}

// TestBATMANReachesTargetHitRate: with the corrected feedback, BATMAN's
// equilibrium overall hit rate should sit near B_MS$/(B_MS$+B_MM), not
// collapse to half the cache.
func TestBATMANReachesTargetHitRate(t *testing.T) {
	cfg := Quick()
	cfg.Policy = BATMAN
	cfg.MeasureInstr = 800_000
	spec, _ := workload.ByName("libquantum") // baseline hit ~1.0
	r := RunMix(cfg, workload.RateMix(spec, cfg.CPU.Cores))
	hit := r.MemSide.HitRatio()
	if hit < 0.55 || hit > 0.95 {
		t.Fatalf("BATMAN equilibrium hit ratio = %.3f, want near 0.73 target", hit)
	}
}

// TestSeedRobustness: the DAP speedup must hold across independent stream
// seeds, not just the default draw.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := Quick()
	spec, _ := workload.ByName("libquantum")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	aggIPC := func(r Result) float64 { return r.AggregateIPC() }
	_, baseMean, _ := ReplicateParallel(1, cfg, mix, 3, aggIPC)
	dapCfg := cfg
	dapCfg.Policy = DAP
	vals, dapMean, std := ReplicateParallel(1, dapCfg, mix, 3, aggIPC)
	if dapMean <= baseMean {
		t.Fatalf("DAP mean %.3f must beat baseline %.3f (runs %v)", dapMean, baseMean, vals)
	}
	if std > dapMean*0.15 {
		t.Fatalf("excessive seed variance: std %.3f of mean %.3f", std, dapMean)
	}
}

// TestSeedsProduceDistinctRuns: a non-zero seed must change the simulation.
func TestSeedsProduceDistinctRuns(t *testing.T) {
	cfg := Quick()
	cfg.MeasureInstr = 100_000
	spec, _ := workload.ByName("gcc.expr")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	a := RunSeeded(cfg, mix, 0)
	b := RunSeeded(cfg, mix, 1)
	if a.Cycles == b.Cycles && a.MSCacheCAS == b.MSCacheCAS {
		t.Fatal("different seeds should produce different runs")
	}
	c := RunMix(cfg, mix)
	if a.Cycles != c.Cycles {
		t.Fatal("seed 0 must match the default run")
	}
}
