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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dap"
	"dap/internal/mem"
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
		bwPoint = flag.Float64("cachebw", 0, "cache bandwidth in GB/s: 102.4 | 128 | 204.8 (0 = default)")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		audit   = flag.Bool("audit", false, "enable the runtime invariant auditor (aborts on the first violation)")
		wdog    = flag.Int("watchdog", 0, "forward-progress watchdog deadline in events (0 = default, -1 = off)")
		seed    = flag.Uint64("seed", 0, "workload address-stream seed (0 = default streams)")
		ckptDir = flag.String("ckpt-dir", "", "reuse warmup checkpoints under this directory: the post-warmup state is snapshotted once per (workload, arch, warmup, seed, SRAM, prefetcher and memory-side tag geometry) and later runs — any policy — resume from it bit-identically")
		sampled = flag.Bool("sampled", false, "SMARTS-style interval sampling: alternate functional fast-forward with short measured intervals and report means with 95% confidence intervals (falls back to the full run if they do not converge)")
		replic  = flag.Int("replicate", 0, "run N replicas over seeds 0..N-1 and report mean/std aggregate IPC")
		jobs    = flag.Int("j", 0, "max concurrent replica simulations (0 = GOMAXPROCS, 1 = serial)")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON of L3-miss lifecycles to this file (load in Perfetto); with -decisions, per-window gap/fraction counter tracks are merged in")
		traceSample  = flag.Int("trace-sample", 0, "trace every Nth L3 miss (0 = tracer default of 1)")
		decisionsOut = flag.String("decisions", "", "record per-window DAP decisions (window counts, K, credit refills, access fractions, optimality gap) and write them to this file (.jsonl/.json = JSON Lines, else CSV)")
		metricsEvery = flag.Uint64("metrics-every", 0, "sample windowed metrics every N cycles (0 = off)")
		metricsOut   = flag.String("metrics-out", "", "write the sampled metric series as CSV to this file (default stdout when sampling)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		serveAddr    = flag.String("serve", "", "serve live telemetry (/metrics, /runs, dashboard) on this address (e.g. :8080, :0 = any free port); keeps serving after the run until interrupted")
		sweepDir     = flag.String("sweep-dir", "", "run as a crash-safe sweep service: sweep specs + result store under this directory, API on the -serve address (requires -serve)")
		sweepWorkers = flag.Int("sweep-workers", 0, "sweep service worker count (0 = GOMAXPROCS)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat    = flag.String("log-format", "text", "structured log format: text | json")
	)
	flag.Parse()

	// Structured logs go to stderr so stdout keeps carrying results and the
	// service banner lines scripts grep for.
	logger := dap.NewLogger(os.Stderr, *logLevel, *logFormat)

	if *sweepDir != "" {
		if *serveAddr == "" {
			fatalf("-sweep-dir requires -serve (the API mounts on the telemetry address)")
		}
		runSweepService(*serveAddr, *sweepDir, *sweepWorkers, logger)
		return
	}

	if *serveAddr != "" {
		srv, bound, err := dap.ServeLogged(*serveAddr, logger)
		fatalIf(err)
		fmt.Printf("telemetry: serving on http://%s\n", bound)
		defer func() {
			fmt.Println("telemetry: run complete; serving until interrupt (Ctrl-C)")
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			<-ctx.Done()
			stop()
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "dapsim: telemetry shutdown: %v\n", err)
			}
		}()
	}

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
	cfg.Sampled = *sampled

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
		fatalIf(err)
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
		"dapsim %s: arch=%s policy=%s cores=%d instr=%d warm=%d seed=%d dap-window=%d trace=%v metrics-every=%d sampled=%v decisions=%v",
		mix.Name, *arch, *policy, *cores, cfg.MeasureInstr, cfg.WarmAccesses,
		*seed, dap.EffectiveDAPWindow(cfg), cfg.Observe.TraceEvery > 0, cfg.Observe.MetricsEvery,
		cfg.Sampled, cfg.Observe.Decisions)
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
		// prints the stall/audit diagnostic with its state snapshot.
		fatalf("%v", err)
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

// runSweepService runs dapsim as the sweep service until interrupted:
// telemetry + sweep API on addr, sweep specs and result store under dir.
// Shutdown lets executing jobs finish and store their results, then exits
// 0; a SIGKILLed process instead runs the persisted sweeps again on the
// next start, skipping every job whose outcome is stored.
func runSweepService(addr, dir string, workers int, logger *slog.Logger) {
	srv, svc, bound, err := dap.ServeSweeps(addr, dir, workers, logger)
	fatalIf(err)
	fmt.Printf("sweep service: serving on http://%s (state in %s)\n", bound, dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()

	fmt.Println("sweep service: draining in-flight jobs")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "dapsim: sweep service close: %v\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "dapsim: telemetry shutdown: %v\n", err)
	}
}

// exportStamp renders the self-describing provenance header stamped onto
// metrics and decision exports: workload, seed, configuration fingerprint,
// build version, plus the run-acceleration knobs (warmup-checkpoint reuse
// and interval sampling) that decide whether the rows are bit-exact full-run
// values or checkpoint-resumed/sampled estimates. A file carrying this line
// can always be reproduced from its header alone.
func exportStamp(cfg dap.Config, mixName string, seed uint64, ckptDir string) string {
	return fmt.Sprintf("mix=%s seed=%d fingerprint=%s version=%s ckpt=%v ckpt-dir=%q sampled=%v",
		mixName, seed, dap.ConfigFingerprint(cfg), dap.BuildVersion(),
		ckptDir != "", ckptDir, cfg.Sampled)
}

// writeArtifacts persists the observability outputs: the Chrome trace JSON
// (with decision counter tracks merged in when recording was on), the
// per-window decision records, and the sampled metric series (to a file, or
// to stdout in text mode when no -metrics-out was given), the last two
// stamped with their provenance.
func writeArtifacts(r dap.Result, tracePath, metricsOut, decisionsOut string, asJSON bool, stamp string) {
	if tracePath != "" && r.Trace != nil {
		f, err := os.Create(tracePath)
		fatalIf(err)
		fatalIf(r.WriteTrace(f))
		fatalIf(f.Close())
		if !asJSON {
			fmt.Printf("trace: %d spans -> %s (dropped %d)\n",
				len(r.Trace.Spans()), tracePath, r.Trace.Dropped())
		}
	}
	if decisionsOut != "" && r.Decisions != nil {
		exportFile(decisionsOut, stamp, r.Decisions.WriteJSONL, r.Decisions.WriteCSV)
		if !asJSON {
			fmt.Printf("decisions: %d windows, %d policy events -> %s (evicted %d)\n",
				len(r.Decisions.Records()), len(r.Decisions.Events()), decisionsOut, r.Decisions.Evicted())
		}
	}
	if r.Metrics == nil {
		return
	}
	switch {
	case metricsOut != "":
		exportFile(metricsOut, stamp, r.Metrics.WriteJSONL, r.Metrics.WriteCSV)
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

// exportFile writes one observer export to path, led by the provenance
// stamp: JSON Lines (jsonl) under a {"header": ...} object for a
// `.jsonl`/`.json` suffix, CSV (csv) under a `# ...` comment line otherwise.
func exportFile(path, stamp string, jsonl, csv func(io.Writer) error) {
	f, err := os.Create(path)
	fatalIf(err)
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		hdr, _ := json.Marshal(stamp) // a string always marshals
		fmt.Fprintf(f, "{\"header\":%s}\n", hdr)
		fatalIf(jsonl(f))
	} else {
		fmt.Fprintf(f, "# %s\n", stamp)
		fatalIf(csv(f))
	}
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
	Sampling *dap.SamplingReport `json:"sampling,omitempty"`
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
		Sampling:   r.Sampling,
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
	if sr := r.Sampling; sr != nil {
		switch {
		case sr.FellBack:
			fmt.Printf("sampling: %d intervals did not converge; numbers below are the full-run fallback\n", sr.Intervals)
		default:
			fmt.Printf("sampling: %d intervals of %d instr (ff %d accesses), converged=%v\n",
				sr.Intervals, sr.IntervalInstr, sr.FFAccesses, sr.Converged)
			fmt.Printf("  aggregate IPC %s  delivered GB/s %s  hit ratio %s\n",
				sr.IPC, sr.DeliveredGBps, sr.HitRatio)
		}
	}
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
		r.MSCacheCAS, r.MainMemCAS, r.MainMemCASFraction(), 38.4/(38.4+102.4))
	if t := r.DAP.Total(); t > 0 {
		f, w, ifrm, sfrm := r.DAP.Fractions()
		fmt.Printf("DAP decisions: %d (FWB %.0f%%, WB %.0f%%, IFRM %.0f%%, SFRM %.0f%%)\n",
			t, f*100, w*100, ifrm*100, sfrm*100)
	}
	fmt.Printf("delivered bandwidth: %.1f GB/s\n", r.DeliveredGBps)
}

func setCacheBW(cfg *dap.Config, gbps float64) error {
	switch gbps {
	case 102.4:
		// default
	case 128:
		cfg.Sectored.Array.Name = "HBM-128"
		cfg.Sectored.Array.FreqMHz = 1000
		cfg.Sectored.Array.TCAS, cfg.Sectored.Array.TRCD, cfg.Sectored.Array.TRP, cfg.Sectored.Array.TRAS = 12, 12, 12, 32
	case 204.8:
		cfg.Sectored.Array.Channels = 8
	default:
		return fmt.Errorf("unsupported cache bandwidth %.1f (use 102.4, 128 or 204.8)", gbps)
	}
	return nil
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
