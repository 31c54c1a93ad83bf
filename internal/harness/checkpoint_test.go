package harness

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dap/internal/ckpt"
	"dap/internal/dram"
	"dap/internal/faultinject"
	"dap/internal/mem"
	"dap/internal/store"
	"dap/internal/workload"
)

// tinyCkptCfg mirrors the unexported tiny driver scale: long enough to
// exercise every warm path, short enough to run three architectures with a
// straight-run control each.
func tinyCkptCfg(arch Arch, pol Policy) Config {
	c := Quick()
	c.WarmAccesses = 40_000
	c.MeasureInstr = 80_000
	c.Arch = arch
	c.Policy = pol
	return c
}

// TestCheckpointResumeBitIdentical is the tentpole correctness claim: for
// each architecture, a run resumed from a warmup checkpoint is byte-identical
// to the same run warmed directly. DAP is enabled so the dap section (and on
// sectored the tag cache + footprint state) is exercised too; the sectored
// cache also runs without its footprint prefetcher (the abl-footprint
// variant), which checkpoints an empty history table.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	mix := quickMix()
	for _, tc := range []struct {
		name        string
		arch        Arch
		noFootprint bool
	}{
		{"sectored", SectoredDRAM, false},
		{"sectored-no-footprint", SectoredDRAM, true},
		{"alloy", AlloyCache, false},
		{"edram", SectoredEDRAM, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCkptCfg(tc.arch, DAP)
			if tc.noFootprint {
				cfg.Sectored.Footprint = false
			}
			straight := RunSeeded(cfg, mix, 7)
			ck := MemCheckpoints()
			resumed := simulate(cfg, mix, 7, ck)
			if !reflect.DeepEqual(straight.Run, resumed.Run) {
				t.Fatalf("resumed run diverged from straight run:\nstraight %+v\nresumed  %+v",
					straight.Run, resumed.Run)
			}
			if got := ck.Builds(); got != 1 {
				t.Fatalf("builds = %d, want 1", got)
			}
		})
	}
}

// TestCheckpointSaveRejectsTimedState guards the envelope's precondition:
// once the engine has advanced past warmup, a checkpoint would capture timed
// state the restore path cannot reproduce, so SaveCheckpoint must refuse.
func TestCheckpointSaveRejectsTimedState(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, Baseline)
	s := Build(cfg, quickMix())
	s.Warmup()
	if _, err := s.SaveCheckpoint(); err != nil {
		t.Fatalf("post-warmup save: %v", err)
	}
	s.Measure()
	if _, err := s.SaveCheckpoint(); err == nil {
		t.Fatal("save after the timed region should fail")
	}
}

// TestCheckpointSharedParallelVariants drives eight concurrent policy/DRAM
// variants of one figure point through a shared cache (the make ckpt-race
// workload): the warmup must build exactly once and every variant must stay
// bit-identical to its straight run. The two DDR4-3200 variants additionally
// exercise the devTag skip — their main-memory section tag disagrees with the
// stored blob, so restore leaves the freshly built device untouched.
func TestCheckpointSharedParallelVariants(t *testing.T) {
	mix := quickMix()
	variants := make([]Config, 0, 8)
	for _, pol := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		variants = append(variants, tinyCkptCfg(SectoredDRAM, pol))
	}
	for _, pol := range []Policy{Baseline, DAP} {
		c := tinyCkptCfg(SectoredDRAM, pol)
		c.MainMemory = dram.DDR4_3200()
		variants = append(variants, c)
	}

	key := WarmKey(variants[0], mix, 0)
	for i, v := range variants[1:] {
		if got := WarmKey(v, mix, 0); got != key {
			t.Fatalf("variant %d has warm key %s, want shared %s", i+1, got, key)
		}
	}

	straight := make([]Result, len(variants))
	for i, v := range variants {
		straight[i] = RunMix(v, mix)
	}

	ck := MemCheckpoints()
	resumed := make([]Result, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v Config) {
			defer wg.Done()
			resumed[i] = simulate(v, mix, 0, ck)
		}(i, v)
	}
	wg.Wait()

	if got := ck.Builds(); got != 1 {
		t.Fatalf("builds = %d, want 1 (single-flight across 8 variants)", got)
	}
	for i := range variants {
		if !reflect.DeepEqual(straight[i].Run, resumed[i].Run) {
			t.Fatalf("variant %d (%s, mm=%.0fGB/s) diverged after checkpoint resume",
				i, variants[i].Policy, variants[i].MainMemory.PeakGBps())
		}
	}
}

// TestCheckpointFigureDriverSingleFlight runs a multi-variant figure grid
// (the grid and speedup series every speedup figure uses) with and without
// the checkpoint cache: the series must be bit-identical, and the cache
// must have built exactly one checkpoint per mix.
func TestCheckpointFigureDriverSingleFlight(t *testing.T) {
	mixes := []workload.Mix{quickMix()}
	if s, ok := workload.ByName("lbm"); ok {
		mixes = append(mixes, workload.RateMix(s, 8))
	}
	cfgs := []Config{
		tinyCkptCfg(SectoredDRAM, Baseline),
		tinyCkptCfg(SectoredDRAM, DAP),
		tinyCkptCfg(SectoredDRAM, SBD),
	}
	series := func(o Options) []Series {
		return speedups(o, []string{"DAP", "SBD"}, mixes, grid(o, cfgs, mixes))
	}
	plain := series(Options{Parallel: 1})
	ck := MemCheckpoints()
	ckpt := series(Options{Parallel: 4, Ckpt: ck})
	if !reflect.DeepEqual(plain, ckpt) {
		t.Fatalf("figure series diverged:\nplain %+v\nckpt  %+v", plain, ckpt)
	}
	if got, want := ck.Builds(), uint64(len(mixes)); got != want {
		t.Fatalf("builds = %d, want %d (one per mix across %d variants)",
			got, want, len(cfgs)*len(mixes))
	}
}

// TestCheckpointStoreReuseAndCorruption covers the disk-backed cache: a
// second process (fresh Checkpoints on the same dir) restores from disk
// without rebuilding, and a damaged file — one flipped byte inside the
// trailing checksum, then a torn tail — is quarantined as a miss, the warmup
// re-runs, and the result is still bit-identical.
func TestCheckpointStoreReuseAndCorruption(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, DAP)
	mix := quickMix()
	straight := RunMix(cfg, mix)
	dir := t.TempDir()

	check := func(stage string, ck *Checkpoints, wantBuilds, wantHits uint64) {
		t.Helper()
		r := simulate(cfg, mix, 0, ck)
		if !reflect.DeepEqual(straight.Run, r.Run) {
			t.Fatalf("%s: run diverged from straight run", stage)
		}
		st := ck.Stats()
		if st.Builds != wantBuilds || st.StoreHits != wantHits {
			t.Fatalf("%s: builds=%d hits=%d, want builds=%d hits=%d (stats %+v)",
				stage, st.Builds, st.StoreHits, wantBuilds, wantHits, st)
		}
	}

	ck1, err := NewCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("cold cache", ck1, 1, 0)

	ck2, err := NewCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("disk reuse", ck2, 0, 1)

	ckptFile := func() string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "*.res"))
		if err != nil || len(files) != 1 {
			t.Fatalf("checkpoint files in %s: %v (err %v)", dir, files, err)
		}
		return files[0]
	}

	if err := faultinject.FlipByte(ckptFile(), -3); err != nil {
		t.Fatal(err)
	}
	ck3, err := NewCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("flipped byte", ck3, 1, 0)
	if st := ck3.Stats(); st.Store.Corrupt == 0 {
		t.Fatalf("flipped byte not quarantined: store stats %+v", st.Store)
	}

	// The rebuild re-put the blob; tear its tail off and recover again.
	if err := faultinject.TruncateTail(ckptFile(), 16); err != nil {
		t.Fatal(err)
	}
	ck4, err := NewCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("torn tail", ck4, 1, 0)
	if st := ck4.Stats(); st.Store.Corrupt == 0 {
		t.Fatalf("torn tail not quarantined: store stats %+v", st.Store)
	}
}

// TestCheckpointStoreRebuildsStaleVersion: a store entry whose envelope is
// intact but whose checkpoint has another format version, as every entry
// has after a version bump, is rebuilt once and overwritten. It must not be
// served, fail to load and re-warm on every run.
func TestCheckpointStoreRebuildsStaleVersion(t *testing.T) {
	cfg := tinyCkptCfg(AlloyCache, DAP)
	mix := quickMix()
	straight := RunMix(cfg, mix)
	dir := t.TempDir()

	// Plant a real checkpoint relabelled as the previous version, its
	// checksum repaired so that only the version is wrong.
	s := newSystem(cfg, mix, 0)
	s.Warmup()
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[len(ckpt.Magic):], ckpt.Version-1)
	h := fnv.New64a()
	h.Write(blob[:len(blob)-8])
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], h.Sum64())
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(WarmKey(cfg, mix, 0), blob); err != nil {
		t.Fatal(err)
	}

	for i, want := range []CkptStats{{Builds: 1}, {StoreHits: 1}} {
		ck, err := NewCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			if r := simulate(cfg, mix, 0, ck); !reflect.DeepEqual(straight.Run, r.Run) {
				t.Fatalf("process %d run %d diverged from the straight run", i, run)
			}
		}
		if got := ck.Stats(); got.Builds != want.Builds || got.StoreHits != want.StoreHits || got.LoadFailures != 0 {
			t.Fatalf("process %d: builds=%d hits=%d load failures=%d, want builds=%d hits=%d and no load failure",
				i, got.Builds, got.StoreHits, got.LoadFailures, want.Builds, want.StoreHits)
		}
	}
}

// TestCheckpointFailedRestoreWarmsFresh: a store entry whose envelope
// verifies but whose controller section fails to load counts one load
// failure, and the run still measures exactly the straight run. The cpu
// section loads before the controller section fails, so warming the
// half-restored system would run the warmup twice over its streams; the
// run must warm a freshly built system instead.
func TestCheckpointFailedRestoreWarmsFresh(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, DAP)
	mix := quickMix()
	straight := RunMix(cfg, mix)

	s := newSystem(cfg, mix, 0)
	s.Warmup()
	w := ckpt.NewWriter()
	if err := s.CPU.SaveState(w.Section("cpu")); err != nil {
		t.Fatal(err)
	}
	w.Section("ctrl.sectored").U32(1) // far too short for the sector tags
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(WarmKey(cfg, mix, 0), w.Bytes()); err != nil {
		t.Fatal(err)
	}

	ck, err := NewCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSeededCkptE(cfg, mix, 0, ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.Stats(); got.StoreHits != 1 || got.LoadFailures != 1 {
		t.Fatalf("store hits=%d load failures=%d, want the damaged entry served once and failed once",
			got.StoreHits, got.LoadFailures)
	}
	if !reflect.DeepEqual(straight.Run, r.Run) {
		t.Fatalf("run after a failed restore diverged from the straight run:\nstraight %+v\ngot      %+v",
			straight.Run, r.Run)
	}
}

// TestCheckpointFootprintOverBudget: a sectored cache whose footprint
// history table has passed its entry budget (shrunk here, with a small
// cache so a tiny warmup evicts enough sectors) saves, restores into a
// fresh system and measures the same stats.Run as the original. The table
// must round-trip slot for slot: once it is at its budget, each new sector
// evicts whatever holds its home slot.
func TestCheckpointFootprintOverBudget(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, DAP)
	cfg.Sectored.CapacityBytes = 4 * mem.MiB
	cfg.Sectored.FootprintEntries = 64
	mix := quickMix()

	orig := newSystem(cfg, mix, 0)
	orig.Warmup()
	blob, err := orig.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	fresh := newSystem(cfg, mix, 0)
	if err := fresh.LoadCheckpoint(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want, got := orig.Measure(), fresh.Measure()
	if want.MemSide.SectorEvicts <= uint64(cfg.Sectored.FootprintEntries) {
		t.Fatalf("%d sector evictions in the timed region: too few to keep the table past its budget of %d",
			want.MemSide.SectorEvicts, cfg.Sectored.FootprintEntries)
	}
	if !reflect.DeepEqual(want.Run, got.Run) {
		t.Fatalf("restored run diverged:\noriginal %+v\nrestored %+v", want.Run, got.Run)
	}
}

// TestCheckpointTraceStreamCursor proves the trace cursor serializes: two
// systems fed from freshly opened copies of the same recorded trace — one
// warmed directly, one restored from the first's checkpoint (which must put
// the restored cursors mid-trace, exactly where warmup left them) — measure
// bit-identically.
func TestCheckpointTraceStreamCursor(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, DAP)
	mix := quickMix()

	// Record one trace per core from the mix's own streams, then re-open a
	// fresh cursor-at-zero copy for every system under test.
	var traces [][]byte
	for _, src := range mix.Streams() {
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, src, 2048); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, buf.Bytes())
	}
	openAll := func() []workload.Stream {
		t.Helper()
		out := make([]workload.Stream, len(traces))
		for i, raw := range traces {
			ts, err := workload.ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = ts
		}
		return out
	}

	s1 := Build(cfg, mix)
	s1.CPU.SetStreams(openAll())
	s1.Warmup()
	blob, err := s1.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	r1 := s1.Measure()

	s2 := Build(cfg, mix)
	s2.CPU.SetStreams(openAll())
	if err := s2.LoadCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	r2 := s2.Measure()

	if !reflect.DeepEqual(r1.Run, r2.Run) {
		t.Fatal("trace-fed run diverged after checkpoint restore")
	}
}

// TestSampledRunBracketsFullRun checks the estimator's contract on a quick
// configuration: a converged sampled run's IPC confidence interval must
// bracket the full run's aggregate IPC (with modest slack for the estimator's
// systematic interval-boundary bias), and a fallback must return the full
// run's numbers bit-identically with FellBack set.
func TestSampledRunBracketsFullRun(t *testing.T) {
	cfg := Quick()
	cfg.Policy = DAP
	mix := quickMix()
	full := RunMix(cfg, mix)
	var fullIPC float64
	for i := range full.Cores {
		fullIPC += full.Cores[i].IPC()
	}

	sc := cfg
	sc.Sampled = true
	r := RunMix(sc, mix)
	rep := r.Sampling
	if rep == nil {
		t.Fatal("sampled run carries no sampling report")
	}
	t.Logf("full IPC %.4f; sampled %s over %d intervals (converged=%v fellback=%v)",
		fullIPC, rep.IPC, rep.Intervals, rep.Converged, rep.FellBack)
	if rep.FellBack {
		if !reflect.DeepEqual(full.Run, r.Run) {
			t.Fatal("fallback run diverged from the plain full run")
		}
		return
	}
	if !rep.Converged {
		t.Fatalf("sampled run neither converged nor fell back: %+v", rep)
	}
	slack := 0.15 * rep.IPC.Mean
	if fullIPC < rep.IPC.Lo()-slack || fullIPC > rep.IPC.Hi()+slack {
		t.Fatalf("full-run IPC %.4f outside sampled CI %s (+%.4f slack)",
			fullIPC, rep.IPC, slack)
	}
	if r.Cycles >= full.Cycles {
		t.Fatalf("sampled run simulated %d detailed cycles, full run %d — no savings",
			r.Cycles, full.Cycles)
	}
}
