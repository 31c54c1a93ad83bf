package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"dap/internal/cpu"
	"dap/internal/harness"
	"dap/internal/mem"
	"dap/internal/runner"
	"dap/internal/workload"
)

// kind is the shape of a workload's op.
type kind int

const (
	// cold: Build + Warmup + Measure from empty caches.
	cold kind = iota
	// resume: Build + LoadCheckpoint + Measure from a checkpoint made in set-up.
	resume
	// figure: one figure point, six policies sharing one fresh checkpoint cache.
	figure
)

// spec describes one workload. Why each exists is in README.md.
type spec struct {
	name     string
	kind     kind
	arch     harness.Arch
	mix      workload.Mix
	policies []harness.Policy
}

func rate(name string) workload.Mix {
	s, ok := workload.ByName(name)
	if !ok {
		panic("bench: unknown workload spec " + name)
	}
	return workload.RateMix(s, harness.Quick().CPU.Cores)
}

var workloads = []spec{
	{"cold-sectored-dap", cold, harness.SectoredDRAM, rate("libquantum"), []harness.Policy{harness.DAP}},
	{"cold-edram-dap-lbm", cold, harness.SectoredEDRAM, rate("parboil-lbm"), []harness.Policy{harness.DAP}},
	{"resume-alloy-dap-mcf", resume, harness.AlloyCache, rate("mcf"), []harness.Policy{harness.DAP}},
	{"figure-point-sectored", figure, harness.SectoredDRAM, workload.HeterogeneousMixes(harness.Quick().CPU.Cores)[0],
		[]harness.Policy{harness.Baseline, harness.DAP, harness.DAPFWBWB, harness.SBD, harness.SBDWT, harness.BATMAN}},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scale sets the simulated run lengths.
type scale struct {
	warm        int    // functional warmup accesses per core
	instr       uint64 // measured instructions per core
	resumeInstr uint64 // measured instructions per core of a resumed op
}

// quick is the Quick configuration every benchmark run uses.
var quick = scale{warm: 180_000, instr: 400_000, resumeInstr: 1_600_000}

// configs returns one configuration per simulation of an op.
func (w spec) configs(sc scale) []harness.Config {
	base := harness.Quick()
	base.Arch = w.arch
	base.WarmAccesses = sc.warm
	base.MeasureInstr = sc.instr
	if w.kind == resume {
		base.MeasureInstr = sc.resumeInstr
	}
	out := make([]harness.Config, len(w.policies))
	for i, p := range w.policies {
		out[i] = base
		out[i].Policy = p
	}
	return out
}

// opOut is what one op produced.
type opOut struct {
	digest  uint64         // FNV-64a over the op's stats.Run values
	instr   uint64         // simulated instructions retired, all simulations
	res     harness.Result // the primary simulation: the only one, or the figure's dap run
	mmLat   float64        // main-memory mean read latency of the primary simulation, cycles
	simWall time.Duration  // summed wall time of the op's simulations
	workers int            // simulations run concurrently
}

// digest hashes a run's simulated statistics; equal digests mean equal runs.
func digest(r harness.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r.Run)
	return h.Sum64()
}

func retired(r harness.Result) uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// primary is the index of the simulation whose model statistics are reported.
func (w spec) primary() int {
	for i, p := range w.policies {
		if p == harness.DAP {
			return i
		}
	}
	return 0
}

// build assembles a system running the mix with stream seed seed. With
// instruments, the CPU is rebuilt over counting wrappers of the memory-side
// controller and the streams.
func (b *bench) build(cfg harness.Config, seed uint64, in *instr) *harness.System {
	var sys *harness.System
	in.phase("build", func() { sys = harness.Build(cfg, b.w.mix) })
	streams := b.w.mix.StreamsSeeded(seed)
	if in != nil {
		for i, s := range streams {
			streams[i] = &countingStream{s: s.(workload.StatefulStream), c: &in.cnt}
		}
		sys.CPU = cpu.New(cfg.CPU, sys.Eng, &countingBackend{b: sys.Ctrl, c: &in.cnt})
	}
	sys.CPU.SetStreams(streams)
	return sys
}

// measure runs the timed region and checks it ended normally.
func (b *bench) measure(sys *harness.System, in *instr) (harness.Result, error) {
	if in != nil {
		sys.Eng.SetFlightSampler(1, func(mem.Cycle) { in.events++ })
	}
	var r harness.Result
	in.phase("measure", func() { r = sys.Measure() })
	if r.Abort != nil {
		return r, fmt.Errorf("%s: %w", r.Config.Policy, r.Abort)
	}
	return r, nil
}

func (b *bench) save(sys *harness.System, in *instr) ([]byte, error) {
	var blob []byte
	var err error
	in.phase("save", func() { blob, err = sys.SaveCheckpoint() })
	if in != nil {
		in.blobBytes = len(blob)
	}
	return blob, err
}

func (b *bench) load(sys *harness.System, blob []byte, in *instr) error {
	var err error
	in.phase("load", func() { err = sys.LoadCheckpoint(blob) })
	return err
}

// mmLatency is the main memory's mean read latency in cycles.
func mmLatency(sys *harness.System) float64 {
	mm := sys.MM.Stats()
	return ratio(float64(mm.ReadLatSum), float64(mm.Reads))
}

// single wraps the result of a one-simulation op.
func single(r harness.Result, sys *harness.System, wall time.Duration) opOut {
	return opOut{digest: digest(r), instr: retired(r), res: r, mmLat: mmLatency(sys), simWall: wall, workers: 1}
}

// op runs one op with stream seed seed, instrumented when in is non-nil.
func (b *bench) op(seed uint64, in *instr) (opOut, error) {
	start := time.Now()
	switch b.w.kind {
	case cold:
		sys := b.build(b.cfgs[0], seed, in)
		in.phase("warm", sys.Warmup)
		r, err := b.measure(sys, in)
		return single(r, sys, time.Since(start)), err
	case resume:
		sys := b.build(b.cfgs[0], seed, in)
		if err := b.load(sys, b.blob, in); err != nil {
			return opOut{}, err
		}
		r, err := b.measure(sys, in)
		return single(r, sys, time.Since(start)), err
	}
	if in == nil {
		return b.figurePoint(seed)
	}
	return b.figurePointSerial(seed, in)
}

// figurePoint runs the figure point the way `figures -ckpt -j` does: every
// policy through RunSeededCkptE on one fresh checkpoint cache, fanned across
// GOMAXPROCS workers.
func (b *bench) figurePoint(seed uint64) (opOut, error) {
	ck := harness.MemCheckpoints()
	walls := make([]time.Duration, len(b.cfgs))
	rs, err := runner.MapE(0, len(b.cfgs), func(i int) (harness.Result, error) {
		t := time.Now()
		r, err := harness.RunSeededCkptE(b.cfgs[i], b.w.mix, seed, ck)
		walls[i] = time.Since(t)
		return r, err
	})
	if err != nil {
		return opOut{}, err
	}
	out := opOut{workers: min(runner.Parallelism(0), len(b.cfgs))}
	h := fnv.New64a()
	for i, r := range rs {
		fmt.Fprintf(h, "%016x", digest(r))
		out.instr += retired(r)
		out.simWall += walls[i]
	}
	out.digest = h.Sum64()
	out.res = rs[b.w.primary()]
	return out, nil
}

// figurePointSerial is the instrumented figure point: the same public calls
// RunSeededCkptE makes (one warmed system saved once, then each policy built,
// restored and measured), spelled out so every phase is visible, on one
// worker.
func (b *bench) figurePointSerial(seed uint64, in *instr) (opOut, error) {
	_, blob, err := b.warmed(seed, in)
	if err != nil {
		return opOut{}, err
	}
	out := opOut{workers: 1}
	h := fnv.New64a()
	for i, cfg := range b.cfgs {
		t := time.Now()
		sys := b.build(cfg, seed, in)
		if err := b.load(sys, blob, in); err != nil {
			return opOut{}, err
		}
		r, err := b.measure(sys, in)
		if err != nil {
			return opOut{}, err
		}
		out.simWall += time.Since(t)
		fmt.Fprintf(h, "%016x", digest(r))
		out.instr += retired(r)
		if i == b.w.primary() {
			out.res, out.mmLat = r, mmLatency(sys)
		}
	}
	out.digest = h.Sum64()
	return out, nil
}

// warmed builds the first configuration's system for seed, warms it, and
// saves its checkpoint.
func (b *bench) warmed(seed uint64, in *instr) (*harness.System, []byte, error) {
	sys := b.build(b.cfgs[0], seed, in)
	in.phase("warm", sys.Warmup)
	blob, err := b.save(sys, in)
	return sys, blob, err
}

// roundTrip checks that a warmed system saved and restored into a fresh one
// measures exactly what the original measures. It gives the cold workloads'
// traced runs their checkpoint metrics.
func (b *bench) roundTrip(seed uint64, in *instr) error {
	orig, blob, err := b.warmed(seed, in)
	if err != nil {
		return err
	}
	fresh := b.build(b.cfgs[0], seed, in)
	if err := b.load(fresh, blob, in); err != nil {
		return err
	}
	want, err := b.measure(orig, in)
	if err != nil {
		return err
	}
	got, err := b.measure(fresh, in)
	if err != nil {
		return err
	}
	if digest(got) != digest(want) {
		return fmt.Errorf("checkpoint round trip: restored run %016x, original %016x", digest(got), digest(want))
	}
	return nil
}

// reference is the resume workload's correctness reference: the same
// simulation run cold, from empty caches, outside any timing.
func (b *bench) reference() (uint64, error) {
	r := harness.RunSeeded(b.cfgs[0], b.w.mix, b.opt.seed)
	if r.Abort != nil {
		return 0, fmt.Errorf("reference run: %w", r.Abort)
	}
	return digest(r), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
