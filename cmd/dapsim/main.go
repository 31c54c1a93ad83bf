// Command dapsim runs a single memory-hierarchy simulation and prints the
// measured statistics: per-core IPC, weighted speedup inputs, memory-side
// cache behaviour, CAS fractions and DAP decision counts.
//
// Examples:
//
//	dapsim -workload mcf -policy dap
//	dapsim -workload omnetpp -arch alloy -policy dap -instr 2000000
//	dapsim -mix hetero-dis-03 -policy batman
//	dapsim -workload mcf -replicate 8 -j 4
//	dapsim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dap"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/stats"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list workloads and mixes, then exit")
		wl      = flag.String("workload", "mcf", "rate-mode workload name")
		mixName = flag.String("mix", "", "heterogeneous mix name (overrides -workload)")
		arch    = flag.String("arch", "sectored", "memory-side cache: sectored | alloy | edram | none")
		policy  = flag.String("policy", "baseline", "policy: baseline | dap | dap-fwb-wb | sbd | sbd-wt | batman")
		cores   = flag.Int("cores", 8, "core count")
		instr   = flag.Uint64("instr", 0, "instructions per core (0 = config default)")
		warm    = flag.Int("warm", 0, "functional warmup accesses per core (0 = config default: 400000, or 180000 with -quick)")
		quick   = flag.Bool("quick", false, "use the shortened quick configuration")
		capMB   = flag.Int("capacity", 0, "memory-side cache capacity in MiB (0 = default)")
		bwPoint = flag.Float64("cachebw", 0, "HBM cache bandwidth in GB/s with -arch sectored or alloy: 102.4 | 128 | 204.8 (0 = default)")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		audit   = flag.Bool("audit", false, "enable the runtime invariant auditor (aborts on the first violation)")
		wdog    = flag.Int("watchdog", 0, "forward-progress watchdog deadline in events (0 = default, -1 = off)")
		seed    = flag.Uint64("seed", 0, "workload address-stream seed (0 = default streams)")
		ckptDir = flag.String("ckpt-dir", "", "reuse warmup checkpoints under this directory: the post-warmup state is snapshotted once per (workload, arch, warmup, seed, SRAM, prefetcher and memory-side tag geometry) and later runs — any policy — resume from it bit-identically")
		replic  = flag.Int("replicate", 0, "run N replicas over seeds 0..N-1 and report mean/std aggregate IPC (takes none of -seed, -ckpt-dir or the artifact and profile flags)")
		jobs    = flag.Int("j", 0, "max concurrent replica simulations (0 = GOMAXPROCS, 1 = serial)")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON of L3-miss lifecycles to this file (load in Perfetto)")
		traceSample  = flag.Int("trace-sample", 0, "with -trace, trace every Nth L3 miss (0 = tracer default of 1)")
		decisionsOut = flag.String("decisions", "", "with -policy dap or dap-fwb-wb, record per-window DAP decisions (window counts, K, credit refills, access fractions, optimality gap) and write them as CSV to this file")
		metricsEvery = flag.Uint64("metrics-every", 0, "sample windowed metrics every N cycles (0 = off)")
		metricsOut   = flag.String("metrics-out", "", "with -metrics-every, write the sampled metric series as CSV to this file (default stdout)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads (rate mode):")
		for _, n := range dap.WorkloadNames() {
			fmt.Println("  " + n)
		}
		fmt.Println("mixes:")
		for _, m := range dap.Workloads(*cores) {
			fmt.Println("  " + m.Name)
		}
		return
	}
	cfg := dap.DefaultConfig()
	if *quick {
		cfg = dap.QuickConfig()
	}
	cfg.CPU.Cores = *cores
	if *instr > 0 {
		cfg.MeasureInstr = *instr
	}
	if *warm > 0 {
		cfg.WarmAccesses = *warm
	}
	archVal, err := dap.ParseArchitecture(*arch)
	fatalIf(err)
	cfg.Arch = archVal
	polVal, err := dap.ParsePolicyName(*policy)
	fatalIf(err)
	cfg.Policy = polVal
	hasDAP := polVal == dap.PolicyDAP || polVal == dap.PolicyDAPFWBWB
	if msg := ignoredFlags(*replic > 0, *metricsEvery > 0, *tracePath != "", hasDAP); msg != "" {
		fatalf("%s", msg)
	}
	if *capMB > 0 {
		cfg.Sectored.CapacityBytes = *capMB << 20
		cfg.Alloy.CapacityBytes = *capMB << 20
		cfg.EDRAM.CapacityBytes = *capMB << 20
	}
	if *bwPoint > 0 {
		fatalIf(setCacheBW(&cfg, *bwPoint))
	}
	cfg.Audit = *audit
	cfg.WatchdogEvents = *wdog
	if *tracePath != "" {
		cfg.Observe.TraceEvery = *traceSample
		if *traceSample == 0 {
			cfg.Observe.TraceEvery = 1
		}
	}
	cfg.Observe.MetricsEvery = mem.Cycle(*metricsEvery)
	cfg.Observe.Decisions = *decisionsOut != ""
	// The flight recorder changes no result and no fingerprint (cfgKey
	// ignores Observe); an aborted run prints its entries.
	cfg.Observe.Flight = true

	var ckpts *dap.WarmupCheckpoints
	if *ckptDir != "" {
		var err error
		ckpts, err = dap.NewWarmupCheckpoints(*ckptDir)
		fatalIf(err)
	}

	var mix dap.Workload
	if *mixName != "" {
		found := false
		for _, m := range dap.Workloads(*cores) {
			if m.Name == *mixName {
				mix, found = m, true
				break
			}
		}
		if !found {
			fatalf("unknown mix %q (see -list)", *mixName)
		}
	} else {
		var err error
		mix, err = dap.WorkloadByNameE(*wl, *cores)
		fatalIf(err)
	}

	if *replic > 0 {
		// Replicated mode: N runs over seeds 0..N-1, fanned across -j
		// workers. Per-seed values are seed-ordered and identical at any -j.
		aggIPC := func(r dap.Result) float64 { return r.AggregateIPC() }
		vals, mean, std, err := dap.Replicate(*jobs, cfg, mix, *replic, aggIPC)
		if err != nil {
			// An aborted replica prints its diagnostic, then its flight
			// recording, as a single run does below.
			fmt.Fprintf(os.Stderr, "dapsim: %v\n", err)
			var fe *obs.FlightError
			if errors.As(err, &fe) {
				printFlight(fe.Flight)
			}
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			fatalIf(enc.Encode(struct {
				Mix    string    `json:"mix"`
				Seeds  int       `json:"seeds"`
				AggIPC []float64 `json:"agg_ipc"`
				Mean   float64   `json:"mean"`
				StdDev float64   `json:"std_dev"`
			}{mix.Name, *replic, vals, mean, std}))
			return
		}
		fmt.Printf("dapsim %s: %d replicas (seeds 0..%d), -j %d\n", mix.Name, *replic, *replic-1, *jobs)
		for s, v := range vals {
			fmt.Printf("  seed %2d: aggregate IPC %.4f\n", s, v)
		}
		fmt.Printf("aggregate IPC: mean %.4f, std %.4f\n", mean, std)
		return
	}

	// One-line effective configuration so a pasted log is self-describing.
	header := fmt.Sprintf(
		"dapsim %s: arch=%s policy=%s cores=%d instr=%d warm=%d seed=%d dap-window=%d trace=%v metrics-every=%d decisions=%v",
		mix.Name, *arch, *policy, *cores, cfg.MeasureInstr, cfg.WarmAccesses,
		*seed, dap.EffectiveDAPWindow(cfg), cfg.Observe.TraceEvery > 0, cfg.Observe.MetricsEvery,
		cfg.Observe.Decisions)
	if !*asJSON {
		fmt.Println(header)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	r, err := dap.RunCheckpointedE(cfg, mix, *seed, ckpts)
	if err != nil {
		// A validation error prints one line per problem; an aborted run
		// prints the stall/audit diagnostic with its state snapshot, then
		// the flight recording that led up to it, oldest entry first.
		fmt.Fprintf(os.Stderr, "dapsim: %v\n", err)
		printFlight(r.Flight)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		fatalIf(err)
		runtime.GC()
		fatalIf(pprof.WriteHeapProfile(f))
		fatalIf(f.Close())
	}
	writeArtifacts(r, *tracePath, *metricsOut, *decisionsOut, *asJSON,
		exportStamp(cfg, mix.Name, *seed, *ckptDir))
	if ckpts != nil && !*asJSON {
		cs := ckpts.Stats()
		fmt.Printf("warmup checkpoint: built %d, disk hits %d, load failures %d\n",
			cs.Builds, cs.StoreHits, cs.LoadFailures)
	}

	if *asJSON {
		reportJSON(r, mix.Name, *arch, *policy, header)
		return
	}
	report(r)
	if r.Breakdown != nil && r.Breakdown.Spans() > 0 {
		fmt.Print(r.Breakdown.String())
	}
}

// exportStamp renders the self-describing provenance header stamped onto
// metrics and decision exports: workload, seed, configuration fingerprint,
// build version, and the warmup-checkpoint directory the run resumed from
// (a resumed run's rows equal a straight run's bit for bit). A file
// carrying this line can always be reproduced from its header alone.
func exportStamp(cfg dap.Config, mixName string, seed uint64, ckptDir string) string {
	return fmt.Sprintf("mix=%s seed=%d fingerprint=%s version=%s ckpt=%v ckpt-dir=%q",
		mixName, seed, dap.ConfigFingerprint(cfg), dap.BuildVersion(),
		ckptDir != "", ckptDir)
}

// writeArtifacts persists the observability outputs: the Chrome trace JSON,
// the per-window decision records, and the sampled metric series (to a
// file, or to stdout in text mode when no -metrics-out was given), the last
// two as CSV stamped with their provenance.
func writeArtifacts(r dap.Result, tracePath, metricsOut, decisionsOut string, asJSON bool, stamp string) {
	if tracePath != "" && r.Trace != nil {
		f, err := os.Create(tracePath)
		fatalIf(err)
		fatalIf(r.Trace.WriteChromeTrace(f))
		fatalIf(f.Close())
		if !asJSON {
			fmt.Printf("trace: %d spans -> %s (dropped %d)\n",
				len(r.Trace.Spans()), tracePath, r.Trace.Dropped())
		}
	}
	if decisionsOut != "" && r.Decisions != nil {
		exportFile(decisionsOut, stamp, r.Decisions.WriteCSV)
		if !asJSON {
			fmt.Printf("decisions: %d windows -> %s (evicted %d)\n",
				len(r.Decisions.Records()), decisionsOut, r.Decisions.Evicted())
		}
	}
	if r.Metrics == nil {
		return
	}
	switch {
	case metricsOut != "":
		exportFile(metricsOut, stamp, r.Metrics.WriteCSV)
		if !asJSON {
			fmt.Printf("metrics: %d windows -> %s (dropped %d)\n",
				r.Metrics.Samples(), metricsOut, r.Metrics.Dropped())
		}
	case !asJSON:
		fmt.Println("metrics (CSV):")
		fmt.Printf("# %s\n", stamp)
		fatalIf(r.Metrics.WriteCSV(os.Stdout))
	}
}

// exportFile writes one observer's CSV export to path, led by the
// provenance stamp as a `# ...` comment line.
func exportFile(path, stamp string, csv func(io.Writer) error) {
	f, err := os.Create(path)
	fatalIf(err)
	fmt.Fprintf(f, "# %s\n", stamp)
	fatalIf(csv(f))
	fatalIf(f.Close())
}

// jsonReport is the machine-readable result schema.
type jsonReport struct {
	Mix        string    `json:"mix"`
	Arch       string    `json:"arch"`
	Policy     string    `json:"policy"`
	Config     string    `json:"config"`
	Cycles     uint64    `json:"cycles"`
	CoreIPC    []float64 `json:"core_ipc"`
	CoreMPKI   []float64 `json:"core_mpki"`
	HitRatio   float64   `json:"ms_hit_ratio"`
	TagMiss    float64   `json:"tag_cache_miss_ratio"`
	MSCacheCAS uint64    `json:"ms_cache_cas"`
	MainMemCAS uint64    `json:"main_mem_cas"`
	CASFrac    float64   `json:"main_mem_cas_fraction"`
	Delivered  float64   `json:"delivered_gbps"`
	DAP        struct {
		FWB, WB, IFRM, SFRM uint64
	} `json:"dap_decisions"`
}

func reportJSON(r dap.Result, mixName, arch, policy, header string) {
	out := jsonReport{
		Mix: mixName, Arch: arch, Policy: policy, Config: header,
		Cycles:     uint64(r.Cycles),
		HitRatio:   r.MemSide.HitRatio(),
		TagMiss:    r.MemSide.TagCacheMissRatio(),
		MSCacheCAS: r.MSCacheCAS,
		MainMemCAS: r.MainMemCAS,
		CASFrac:    r.MainMemCASFraction(),
		Delivered:  r.DeliveredGBps,
	}
	for _, c := range r.Cores {
		out.CoreIPC = append(out.CoreIPC, c.IPC())
		out.CoreMPKI = append(out.CoreMPKI, c.MPKI())
	}
	out.DAP.FWB, out.DAP.WB = r.DAP.FWB, r.DAP.WB
	out.DAP.IFRM, out.DAP.SFRM = r.DAP.IFRM, r.DAP.SFRM
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatalf("encoding JSON: %v", err)
	}
}

func report(r dap.Result) {
	fmt.Printf("cycles: %d\n", r.Cycles)
	for i, c := range r.Cores {
		fmt.Printf("  core %2d: IPC %.3f  L3 MPKI %6.2f  avg L3 read-miss latency %6.0f cycles\n",
			i, c.IPC(), c.MPKI(), c.AvgL3ReadMissLatency())
	}
	fmt.Printf("aggregate IPC: %.3f\n", r.AggregateIPC())
	var lat stats.Histogram
	for i := range r.Cores {
		lat.Merge(&r.Cores[i].L3MissLat)
	}
	if lat.Count > 0 {
		fmt.Printf("L3 read-miss latency: mean %.0f, p50 <%d, p99 <%d cycles\n",
			lat.Mean(), lat.Percentile(50), lat.Percentile(99))
	}
	ms := r.MemSide
	fmt.Printf("memory-side cache: hit %.3f (reads %.3f), tag-cache miss %.3f\n",
		ms.HitRatio(), ms.ReadHitRatio(), ms.TagCacheMissRatio())
	fmt.Printf("  fills %d (bypassed %d), write bypasses %d, forced misses %d, speculative %d (wasted %d)\n",
		ms.Fills, ms.FillBypasses, ms.WriteBypasses, ms.ForcedMisses, ms.SpecForced, ms.SpecWasted)
	fmt.Printf("  sector evicts %d, dirty writeouts %d, metadata r/w %d/%d\n",
		ms.SectorEvicts, ms.DirtyWriteouts, ms.MetaReads, ms.MetaWrites)
	fmt.Printf("CAS: cache %d, main memory %d -> main-memory fraction %.3f (optimal %.3f)\n",
		r.MSCacheCAS, r.MainMemCAS, r.MainMemCASFraction(), r.OptimalMainMemFraction())
	if t := r.DAP.Total(); t > 0 {
		f, w, ifrm, sfrm := r.DAP.Fractions()
		fmt.Printf("DAP decisions: %d (FWB %.0f%%, WB %.0f%%, IFRM %.0f%%, SFRM %.0f%%)\n",
			t, f*100, w*100, ifrm*100, sfrm*100)
	}
	fmt.Printf("delivered bandwidth: %.1f GB/s\n", r.DeliveredGBps)
}

// ignoredFlags returns one line naming the flags set on the command line
// that the chosen mode would silently ignore, or "" when it reads them all.
// A replicated run measures seeds 0..N-1 with no checkpoint cache, artifact
// or profile. Only a replicated run reads -j, and a single run reads
// -metrics-out only when sampling, -trace-sample only when tracing, and
// -decisions only when a DAP policy makes decisions to record.
func ignoredFlags(replicate, sampling, tracing, hasDAP bool) string {
	singleOnly := map[string]bool{
		"seed": true, "ckpt-dir": true, "trace": true, "trace-sample": true, "decisions": true,
		"metrics-every": true, "metrics-out": true, "cpuprofile": true, "memprofile": true,
	}
	needs := map[string]string{"j": "-replicate"}
	if !sampling {
		needs["metrics-out"] = "-metrics-every"
	}
	if !tracing {
		needs["trace-sample"] = "-trace"
	}
	if !hasDAP {
		needs["decisions"] = "-policy dap or dap-fwb-wb"
	}
	var dropped, unmet []string
	flag.Visit(func(f *flag.Flag) {
		switch {
		case replicate && singleOnly[f.Name]:
			dropped = append(dropped, "-"+f.Name)
		case !replicate && needs[f.Name] != "":
			unmet = append(unmet, "-"+f.Name+" needs "+needs[f.Name])
		}
	})
	if len(dropped) > 0 {
		return "-replicate runs seeds 0..N-1 with no checkpoint cache, artifacts or profiles; drop " + strings.Join(dropped, ", ")
	}
	return strings.Join(unmet, "; ")
}

// setCacheBW gives the selected HBM cache (sectored or Alloy) the paper's
// 102.4, 128 or 204.8 GB/s stack.
func setCacheBW(cfg *dap.Config, gbps float64) error {
	var arr dram.Config
	switch gbps {
	case 102.4:
		arr = dram.HBM102()
	case 128:
		arr = dram.HBM128()
	case 204.8:
		arr = dram.HBM204()
	default:
		return fmt.Errorf("unsupported cache bandwidth %.1f (use 102.4, 128 or 204.8)", gbps)
	}
	switch cfg.Arch {
	case dap.SectoredDRAMCache:
		cfg.Sectored.Array = arr
	case dap.AlloyCache:
		cfg.Alloy.Array = arr
	default:
		return fmt.Errorf("-cachebw sets an HBM cache's bandwidth; -arch %s has no HBM cache", cfg.Arch)
	}
	return nil
}

// printFlight prints an aborted run's flight recording on stderr, oldest
// entry first; an empty or nil recording prints nothing.
func printFlight(fr *obs.FlightRecorder) {
	entries := fr.Entries()
	if len(entries) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "flight recording (%d entries, %d older dropped):\n", len(entries), fr.Dropped())
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "%d: %s\n", e.Cycle, e.Note)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dapsim: "+format+"\n", args...)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}
