package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dap/internal/harness"
)

// setupReps is how many times an untraced run repeats its set-up; setup_s is
// the median.
const setupReps = 3

// profileHz is the traced ops' CPU sampling rate. At pprof's default 100 Hz
// a layer below 1% of an op often gets no sample at all; above 250 Hz a
// kernel ticking at 250 Hz delivers fewer samples than the profile assumes,
// and profile.coverage drops below 1.
const profileHz = 250

// minOps is the fewest timed ops a run makes, however short --seconds is.
const minOps = 2

type options struct {
	seed     uint64
	seconds  float64 // measure ops until this much time has passed
	trace    bool
	traceOut string // where a traced run writes its Chrome trace ("" = nowhere)
	scale    scale
}

// bench is one run of one workload.
type bench struct {
	w      spec
	opt    options
	cfgs   []harness.Config
	blob   []byte // the resume workload's checkpoint
	ref    uint64 // the resume workload's cold reference digest
	origin time.Time
	spans  []span

	attempted, failed int
}

// tracedOp is one traced op: a set-up op or a timed one, with what its
// instruments and the CPU profile recorded.
type tracedOp struct {
	setup bool
	in    *instr
	wall  float64     // host seconds
	cpu   float64     // process CPU seconds while profiled
	raw   float64     // CPU seconds the profile sampled
	attr  attribution // raw, scaled to cpu
	alloc float64     // MiB allocated
	gcs   float64     // GC cycles
	pause float64     // GC pause seconds
	out   opOut
	pair  *pairOp // the untraced op of the same seed
}

type pairOp struct {
	wall, cpu float64
	out       opOut
}

// summary is a metric's samples, their quartiles, and the value reported.
type summary struct {
	Unit    string    `json:"unit"`
	Stat    string    `json:"stat"` // how Value is drawn from Samples
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit,omitempty"`
}

// result is one workload's run, as written to the result file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	Metrics   map[string]summary `json:"metrics"`
	Names     []string           `json:"names"` // metric names in report order
	TraceFile string             `json:"trace_file,omitempty"`
}

// run measures workload w. Op failures are counted in the result; an error
// means the run could not continue.
func run(w spec, opt options) (*result, error) {
	b := &bench{w: w, opt: opt, cfgs: w.configs(opt.scale), origin: time.Now()}
	res := &result{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Host: hostInfo(), Metrics: map[string]summary{}}
	var err error
	if w.kind == resume {
		b.ref, err = b.reference()
		err = b.check(opOut{digest: b.ref}, err)
	}
	if err == nil {
		if opt.trace {
			err = b.traceRun(res)
		} else {
			err = b.untracedRun(res)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.FailFrac = ratio(float64(b.failed), float64(b.attempted))
	res.Correct = err == nil && b.failed == 0
	return res, err
}

// opSeed is op i's stream seed: the resume workload always restores --seed,
// the others give every op a fresh one so no two ops share warm state.
func (b *bench) opSeed(i int) uint64 {
	if b.w.kind == resume {
		return b.opt.seed
	}
	return b.opt.seed + uint64(i)
}

// setupSeed is the seed of set-up op rep, below every timed op's seed.
func (b *bench) setupSeed(rep int) uint64 { return b.opt.seed - 1 - uint64(rep) }

// check records an op and reports why it failed, if it did.
func (b *bench) check(out opOut, err error) error {
	b.attempted++
	if err == nil && b.w.kind == resume && out.digest != b.ref {
		err = fmt.Errorf("resumed run %016x differs from the cold reference %016x", out.digest, b.ref)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: op failed: %v\n", b.w.name, err)
	}
	return err
}

// setup is the work done once before timing: the resume workload's
// checkpoint, then one discarded op.
func (b *bench) setup(rep int, in *instr) error {
	seed := b.setupSeed(rep)
	if b.w.kind == resume {
		var err error
		if _, b.blob, err = b.warmed(b.opt.seed, in); err != nil {
			return b.check(opOut{}, err)
		}
		seed = b.opt.seed
	}
	return b.check(b.op(seed, in))
}

// loop runs timed ops until the run's time is up. Every op starts from a
// collected heap, as a fresh process would; otherwise whether the last op's
// garbage happened to be collected yet would sway the op's time and the
// process's peak RSS.
func (b *bench) loop(op func(seed uint64)) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < b.opt.seconds; i++ {
		runtime.GC()
		op(b.opSeed(i))
	}
}

func (b *bench) untracedRun(res *result) error {
	var setup, walls, cpus []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t := time.Now()
		if err := b.setup(rep, nil); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	b.loop(func(seed uint64) {
		t, c := time.Now(), cpuSeconds()
		out, err := b.op(seed, nil)
		wall, cpu := time.Since(t).Seconds(), cpuSeconds()-c
		if b.check(out, err) == nil {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
		}
	})
	// Other tenants of the host only ever slow an op down, so the fastest op
	// is the steadiest estimate of what the code costs.
	res.add("run_s", "s", statMin, walls)
	res.add("cpu_s", "s", statMin, cpus)
	res.add("setup_s", "s", statMedian, setup)
	res.add("peak_rss_mb", "MiB", statMedian, []float64{peakRSS()})
	return nil
}

func (b *bench) traceRun(res *result) error {
	var set, ops []*tracedOp
	u, err := b.traced(true, nil, func(in *instr) (opOut, error) { return opOut{}, b.setup(0, in) })
	if err != nil {
		return err
	}
	set = append(set, u)
	if b.w.kind == cold {
		u, err := b.traced(true, nil, func(in *instr) (opOut, error) {
			return opOut{}, b.check(opOut{}, b.roundTrip(b.setupSeed(1), in))
		})
		if err != nil {
			return err
		}
		set = append(set, u)
	}
	var ferr error
	b.loop(func(seed uint64) {
		if ferr != nil {
			return
		}
		args := map[string]any{"seed": seed}
		t, c := time.Now(), cpuSeconds()
		pout, perr := b.op(seed, nil)
		pair := &pairOp{wall: time.Since(t).Seconds(), cpu: cpuSeconds() - c, out: pout}
		b.spans = append(b.spans, spanSince("op (untraced)", b.origin, t, args))
		if b.check(pout, perr) != nil {
			return
		}
		u, err := b.traced(false, args, func(in *instr) (opOut, error) { return b.op(seed, in) })
		if u == nil {
			ferr = err
			return
		}
		if err == nil && u.out.digest != pout.digest {
			err = fmt.Errorf("traced run %016x differs from the untraced run %016x", u.out.digest, pout.digest)
		}
		if b.check(u.out, err) == nil {
			u.pair = pair
			ops = append(ops, u)
		}
	})
	if ferr != nil {
		return ferr
	}
	for _, m := range layerMetrics {
		var vals []float64
		for _, group := range [][]*tracedOp{ops, set} {
			for _, u := range group {
				if v, ok := m.of(u); ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				break
			}
		}
		res.add(m.name, m.unit, statMean, vals)
	}
	if b.opt.traceOut == "" {
		return nil
	}
	res.TraceFile = b.opt.traceOut
	return writeChromeTrace(res.TraceFile, b.spans)
}

// traced runs fn as one instrumented op under the CPU profiler. It returns
// nil when the profile cannot be taken or read, and fn's error with the op
// otherwise.
func (b *bench) traced(setup bool, args map[string]any, fn func(in *instr) (opOut, error)) (*tracedOp, error) {
	in := &instr{phases: map[string]phaseTime{}, spans: &b.spans, origin: b.origin}
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	// pprof samples at 100 Hz; setting the rate first raises it, and the
	// profile records the rate in force. The runtime then warns on stderr
	// that StartCPUProfile could not set its own.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	t, c := time.Now(), cpuSeconds()
	out, err := fn(in)
	cpu := cpuSeconds() - c
	name := "op"
	if setup {
		name = "set-up"
	}
	op := spanSince(name, b.origin, t, args)
	b.spans = append(b.spans, op)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	attr, perr := attribute(buf.Bytes())
	if perr != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", perr)
	}
	raw := attr.total()
	return &tracedOp{
		setup: setup, in: in, wall: op.Dur / 1e6, cpu: cpu, raw: raw, attr: attr.scaled(ratio(cpu, raw)),
		alloc: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:   float64(m1.NumGC - m0.NumGC),
		pause: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		out:   out,
	}, err
}

// Ways a metric's value is drawn from its samples.
const (
	statMin    = "min"
	statMedian = "median"
	statMean   = "mean"
)

func (r *result) add(name, unit, stat string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	s := summary{Unit: unit, Stat: stat, Value: med, N: len(samples), Q1: q1, Median: med, Q3: q3, Samples: samples}
	switch {
	case len(samples) == 0:
	case stat == statMin:
		s.Value = slices.Min(samples)
	case stat == statMean:
		var sum float64
		for _, x := range samples {
			sum += x
		}
		s.Value = sum / float64(len(samples))
	}
	r.Metrics[name] = s
	r.Names = append(r.Names, name)
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them, and the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// layerMetric is one per-layer metric: its value for a traced op, and
// whether that op did the work it measures. Each metric is the mean over
// the timed ops that did; failing that, over the set-up ops that did. A
// mean, not a median, so that a layer sampled in only some ops does not
// read zero.
type layerMetric struct {
	name, unit string
	of         func(u *tracedOp) (float64, bool)
}

func perOp(f func(u *tracedOp) float64) func(*tracedOp) (float64, bool) {
	return func(u *tracedOp) (float64, bool) { return f(u), !u.setup }
}

// perCall is the mean host time of one call of a harness phase.
func perCall(phase string) func(*tracedOp) (float64, bool) {
	return func(u *tracedOp) (float64, bool) {
		p := u.in.phases[phase]
		return ratio(p.sec, float64(p.n)), p.n > 0
	}
}

// perWarmup is a layer's CPU time in one functional warmup.
func perWarmup(layer string) func(*tracedOp) (float64, bool) {
	return func(u *tracedOp) (float64, bool) {
		n := u.in.phases["warm"].n
		return ratio(u.attr.in(layer, warmPhase), float64(n)), n > 0
	}
}

func selfTime(layer string) layerMetric {
	return layerMetric{layer + ".self_s", "s", perOp(func(u *tracedOp) float64 { return u.attr.self(layer) })}
}

func measureTime(layer string) layerMetric {
	return layerMetric{layer + ".measure_s", "s", perOp(func(u *tracedOp) float64 { return u.attr.in(layer, measurePhase) })}
}

func warmTime(layer string) layerMetric {
	return layerMetric{layer + ".warm_s", "s", perWarmup(layer)}
}

func model(name, unit string, f func(r harness.Result) float64) layerMetric {
	return layerMetric{name, unit, perOp(func(u *tracedOp) float64 { return f(u.out.res) })}
}

func cpuFrac(layer string) layerMetric {
	return layerMetric{layer + ".cpu_frac", "frac", perOp(func(u *tracedOp) float64 { return ratio(u.attr.self(layer), u.cpu) })}
}

var layerMetrics = []layerMetric{
	// warm path: per functional warmup
	warmTime("cache"), warmTime("cpu"), warmTime("workload"), warmTime("mscache"),
	{"workload.next_calls", "count", perOp(func(u *tracedOp) float64 { return float64(u.in.cnt.next) })},
	{"workload.next_ns", "ns", func(u *tracedOp) (float64, bool) {
		return ratio(float64(u.in.cnt.nextNs), float64(u.in.cnt.nextTimed)), u.in.cnt.nextTimed > 0
	}},
	{"mscache.warm_calls", "count", func(u *tracedOp) (float64, bool) {
		n := u.in.phases["warm"].n
		return ratio(float64(u.in.cnt.warm), float64(n)), n > 0
	}},
	{"mscache.call_ns", "ns", func(u *tracedOp) (float64, bool) {
		return ratio(float64(u.in.cnt.warmNs), float64(u.in.cnt.warmTimed)), u.in.cnt.warmTimed > 0
	}},

	// timed path: CPU seconds per op in Measure
	measureTime("sim"), measureTime("dram"), measureTime("mscache"),
	measureTime("cpu"), measureTime("cache"), measureTime("workload"),
	{"mscache.timed_calls", "count", perOp(func(u *tracedOp) float64 { return float64(u.in.cnt.timed) })},
	{"sim.events", "count", perOp(func(u *tracedOp) float64 { return float64(u.in.events) })},
	{"sim.ns_per_event", "ns", perOp(func(u *tracedOp) float64 {
		return ratio(u.in.phases["measure"].sec*1e9, float64(u.in.events))
	})},
	{"sim.mips", "MIPS", perOp(func(u *tracedOp) float64 {
		return ratio(float64(u.out.instr)/1e6, u.in.phases["measure"].sec)
	})},
	model("cpu.ipc", "ipc", func(r harness.Result) float64 {
		var s float64
		for i := range r.Cores {
			s += r.Cores[i].IPC()
		}
		return s
	}),
	model("cpu.sim_cycles", "cycles", func(r harness.Result) float64 { return float64(r.Cycles) }),
	model("cache.l3_mpki", "mpki", func(r harness.Result) float64 {
		var miss, ins float64
		for _, c := range r.Cores {
			miss += float64(c.L3Misses)
			ins += float64(c.Instructions)
		}
		return ratio(miss*1000, ins)
	}),
	model("mscache.hit_ratio", "frac", func(r harness.Result) float64 { return r.MemSide.HitRatio() }),
	model("mscache.tag_miss_ratio", "frac", func(r harness.Result) float64 { return r.MemSide.TagCacheMissRatio() }),
	model("dram.mm_cas_frac", "frac", func(r harness.Result) float64 { return r.MainMemCASFraction() }),
	model("dram.delivered_gbps", "GB/s", func(r harness.Result) float64 { return r.DeliveredGBps }),
	{"dram.mm_read_lat", "cycles", perOp(func(u *tracedOp) float64 { return u.out.mmLat })},
	model("core.fwb", "count", func(r harness.Result) float64 { return float64(r.DAP.FWB) }),
	model("core.wb", "count", func(r harness.Result) float64 { return float64(r.DAP.WB) }),
	model("core.ifrm", "count", func(r harness.Result) float64 { return float64(r.DAP.IFRM) }),
	model("core.sfrm", "count", func(r harness.Result) float64 { return float64(r.DAP.SFRM) }),

	// phases: host seconds per call of each harness entry point
	{"harness.build_s", "s", perCall("build")},
	{"harness.warm_s", "s", perCall("warm")},
	{"harness.measure_s", "s", perCall("measure")},
	{"ckpt.save_s", "s", perCall("save")},
	{"ckpt.load_s", "s", perCall("load")},
	{"ckpt.blob_mb", "MiB", func(u *tracedOp) (float64, bool) {
		return float64(u.in.blobBytes) / (1 << 20), u.in.blobBytes > 0
	}},

	// CPU seconds per op, by layer. The layers that can take less than one
	// profile sample per op on some workload are given as shares of the
	// op's CPU instead.
	selfTime("cache"), selfTime("cpu"), selfTime("workload"), selfTime("mscache"),
	selfTime("sim"), selfTime("dram"), selfTime("runtime"), selfTime("other"),
	cpuFrac("mem"), cpuFrac("core"), cpuFrac("harness"), cpuFrac("policy"), cpuFrac("ckpt"),

	{"runner.busy_frac", "frac", func(u *tracedOp) (float64, bool) {
		if u.pair == nil {
			return 0, false
		}
		return ratio(u.pair.out.simWall.Seconds(), float64(u.pair.out.workers)*u.pair.wall), true
	}},
	{"runtime.alloc_mb", "MiB", perOp(func(u *tracedOp) float64 { return u.alloc })},
	{"runtime.gc_count", "count", perOp(func(u *tracedOp) float64 { return u.gcs })},
	{"runtime.gc_pause_s", "s", perOp(func(u *tracedOp) float64 { return u.pause })},

	// reconciliation
	{"harness.phase_frac", "frac", perOp(func(u *tracedOp) float64 {
		var sec float64
		for _, p := range u.in.phases {
			sec += p.sec
		}
		return ratio(sec, u.wall)
	})},
	{"profile.coverage", "frac", perOp(func(u *tracedOp) float64 { return ratio(u.raw, u.cpu) })},
	{"trace.overhead", "frac", func(u *tracedOp) (float64, bool) {
		if u.pair == nil {
			return 0, false
		}
		return ratio(u.cpu, u.pair.cpu) - 1, true
	}},
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSS is the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	if kb, ok := procField("/proc/self/status", "VmHWM"); ok {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64); err == nil {
			return v / 1024
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procField returns the value of the first "key: value" line of a /proc file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	h.CPUModel, _ = procField("/proc/cpuinfo", "model name")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value + h.Commit
			case s.Key == "vcs.modified" && s.Value == "true":
				h.Commit += "-dirty"
			}
		}
	}
	return h
}
