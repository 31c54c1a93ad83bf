package harness

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dap/internal/ckpt"
	"dap/internal/core"
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
// to the same run warmed directly. DAP is enabled, so the DAP state the
// checkpoint leaves out must come back from its freshly built form; the
// sectored cache also runs without its footprint prefetcher (the
// abl-footprint variant), which checkpoints an empty history table. The
// checkpoint must hold exactly the warm state: the cpu section plus the
// memory-side controller's section, if the system has one.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	mix := quickMix()
	for _, tc := range []struct {
		name        string
		arch        Arch
		pol         Policy
		noFootprint bool
		sections    []string
	}{
		{"sectored", SectoredDRAM, DAP, false, []string{"cpu", "ctrl.sectored"}},
		{"sectored-no-footprint", SectoredDRAM, DAP, true, []string{"cpu", "ctrl.sectored"}},
		{"alloy", AlloyCache, DAP, false, []string{"cpu", "ctrl.alloy"}},
		{"edram", SectoredEDRAM, DAP, false, []string{"cpu", "ctrl.edram"}},
		{"none", NoMSCache, Baseline, false, []string{"cpu"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCkptCfg(tc.arch, tc.pol)
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
			blob, err := ck.get(WarmKey(cfg, mix, 7), cfg, mix, 7)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ckpt.NewReader(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Names(); !reflect.DeepEqual(got, tc.sections) {
				t.Fatalf("checkpoint sections %q, want %q", got, tc.sections)
			}
		})
	}
}

// TestCheckpointSaveRejectsTimedState guards the envelope's precondition:
// a checkpoint holds only what functional warmup writes, so SaveCheckpoint
// must refuse once timed state exists — a request queued at a DRAM device,
// or an engine advanced past warmup.
func TestCheckpointSaveRejectsTimedState(t *testing.T) {
	cfg := tinyCkptCfg(SectoredDRAM, Baseline)
	s := Build(cfg, quickMix())
	s.Warmup()
	if _, err := s.SaveCheckpoint(); err != nil {
		t.Fatalf("post-warmup save: %v", err)
	}
	s.MM.Access(0, mem.ReadKind, nil)
	if _, err := s.SaveCheckpoint(); err == nil {
		t.Fatal("save with a request queued at main memory should fail")
	}
	s.Measure()
	if _, err := s.SaveCheckpoint(); err == nil {
		t.Fatal("save after the timed region should fail")
	}
}

// TestCheckpointSharedParallelVariants drives eight concurrent policy/DRAM
// variants of one figure point through a shared cache (the make ckpt-race
// workload): the warmup must build exactly once and every variant must stay
// bit-identical to its straight run. The two DDR4-3200 variants share the
// blob too: the checkpoint holds no DRAM state, so each variant keeps the
// main-memory device it was built with.
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

// TestWarmKeyClassifiesEveryConfigField pins what WarmKey covers. The
// checkpoint holds no DRAM or policy state, so the key alone decides which
// variants share a warmup blob: every field functional warmup can observe
// must change it, and every runtime-only field must leave it alone, or
// ablation variants stop sharing one warmup. The cpu and memory-side cache
// configurations are classified field by field; a Config field the table
// does not name fails the test until it is classified.
func TestWarmKeyClassifiesEveryConfigField(t *testing.T) {
	all := []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache}
	var (
		warm     = all
		sectored = []Arch{SectoredDRAM}
		alloy    = []Arch{AlloyCache}
		edram    = []Arch{SectoredEDRAM}
		runtime  []Arch
	)
	// Each field lists the architectures under which changing it must
	// change the key; a memory-side cache's geometry is visible only while
	// that cache is the active one.
	fields := map[string]struct {
		warmUnder []Arch
		mutate    func(*Config)
	}{
		"CPU.Cores":         {warm, func(c *Config) { c.CPU.Cores++ }},
		"CPU.ROB":           {runtime, func(c *Config) { c.CPU.ROB++ }},
		"CPU.Width":         {runtime, func(c *Config) { c.CPU.Width++ }},
		"CPU.L1Bytes":       {warm, func(c *Config) { c.CPU.L1Bytes *= 2 }},
		"CPU.L1Ways":        {warm, func(c *Config) { c.CPU.L1Ways *= 2 }},
		"CPU.L2Bytes":       {warm, func(c *Config) { c.CPU.L2Bytes *= 2 }},
		"CPU.L2Ways":        {warm, func(c *Config) { c.CPU.L2Ways *= 2 }},
		"CPU.L3Bytes":       {warm, func(c *Config) { c.CPU.L3Bytes *= 2 }},
		"CPU.L3Ways":        {warm, func(c *Config) { c.CPU.L3Ways *= 2 }},
		"CPU.L2Lat":         {runtime, func(c *Config) { c.CPU.L2Lat++ }},
		"CPU.L3Lat":         {runtime, func(c *Config) { c.CPU.L3Lat++ }},
		"CPU.PFStreams":     {warm, func(c *Config) { c.CPU.PFStreams++ }},
		"CPU.PFDegree":      {warm, func(c *Config) { c.CPU.PFDegree++ }},
		"CPU.PFDistance":    {warm, func(c *Config) { c.CPU.PFDistance++ }},
		"CPU.PFOutstanding": {runtime, func(c *Config) { c.CPU.PFOutstanding++ }},
		"MainMemory":        {runtime, func(c *Config) { c.MainMemory = dram.DDR4_3200() }},
		"Arch":              {warm, func(c *Config) { c.Arch = (c.Arch + 1) % (NoMSCache + 1) }},

		"Sectored.CapacityBytes":    {sectored, func(c *Config) { c.Sectored.CapacityBytes *= 2 }},
		"Sectored.SectorBytes":      {sectored, func(c *Config) { c.Sectored.SectorBytes *= 2 }},
		"Sectored.Ways":             {sectored, func(c *Config) { c.Sectored.Ways *= 2 }},
		"Sectored.TagCacheEntries":  {sectored, func(c *Config) { c.Sectored.TagCacheEntries *= 2 }},
		"Sectored.TagCacheWays":     {sectored, func(c *Config) { c.Sectored.TagCacheWays *= 2 }},
		"Sectored.TagCacheLat":      {runtime, func(c *Config) { c.Sectored.TagCacheLat++ }},
		"Sectored.Replacement":      {sectored, func(c *Config) { c.Sectored.Replacement++ }},
		"Sectored.Footprint":        {sectored, func(c *Config) { c.Sectored.Footprint = !c.Sectored.Footprint }},
		"Sectored.FootprintEntries": {sectored, func(c *Config) { c.Sectored.FootprintEntries *= 2 }},
		"Sectored.Array":            {runtime, func(c *Config) { c.Sectored.Array = dram.DDR4_3200() }},

		"Alloy.CapacityBytes": {alloy, func(c *Config) { c.Alloy.CapacityBytes *= 2 }},
		"Alloy.TADBurst":      {runtime, func(c *Config) { c.Alloy.TADBurst++ }},
		"Alloy.BEAR":          {runtime, func(c *Config) { c.Alloy.BEAR = !c.Alloy.BEAR }},
		"Alloy.DBCEntries":    {alloy, func(c *Config) { c.Alloy.DBCEntries *= 2 }},
		"Alloy.DBCWays":       {alloy, func(c *Config) { c.Alloy.DBCWays *= 2 }},
		"Alloy.DBCLat":        {runtime, func(c *Config) { c.Alloy.DBCLat++ }},
		"Alloy.Array":         {runtime, func(c *Config) { c.Alloy.Array = dram.DDR4_3200() }},

		"EDRAM.CapacityBytes": {edram, func(c *Config) { c.EDRAM.CapacityBytes *= 2 }},
		"EDRAM.SectorBytes":   {edram, func(c *Config) { c.EDRAM.SectorBytes *= 2 }},
		"EDRAM.Ways":          {edram, func(c *Config) { c.EDRAM.Ways *= 2 }},
		"EDRAM.TagLat":        {runtime, func(c *Config) { c.EDRAM.TagLat++ }},
		"EDRAM.ReadArray":     {runtime, func(c *Config) { c.EDRAM.ReadArray = dram.DDR4_3200() }},
		"EDRAM.WriteArray":    {runtime, func(c *Config) { c.EDRAM.WriteArray = dram.DDR4_3200() }},

		"Policy":          {runtime, func(c *Config) { c.Policy = SBD }},
		"DAPOverride":     {runtime, func(c *Config) { c.DAPOverride = &core.Config{} }},
		"ThreadAwareIFRM": {runtime, func(c *Config) { c.ThreadAwareIFRM = !c.ThreadAwareIFRM }},
		"WarmAccesses":    {warm, func(c *Config) { c.WarmAccesses++ }},
		"MeasureInstr":    {runtime, func(c *Config) { c.MeasureInstr++ }},
		"MaxCycles":       {runtime, func(c *Config) { c.MaxCycles++ }},
		"Audit":           {runtime, func(c *Config) { c.Audit = !c.Audit }},
		"AuditEvery":      {runtime, func(c *Config) { c.AuditEvery++ }},
		"WatchdogEvents":  {runtime, func(c *Config) { c.WatchdogEvents++ }},
		"Faults":          {runtime, func(c *Config) { c.Faults = &faultinject.Plan{DropReadEvery: 1} }},
		"Observe":         {runtime, func(c *Config) { c.Observe.TraceEvery = 1 }},
		"Sampled":         {runtime, func(c *Config) { c.Sampled = !c.Sampled }},
		"SampleMin":       {runtime, func(c *Config) { c.SampleMin++ }},
		"SampleMax":       {runtime, func(c *Config) { c.SampleMax++ }},
		"SampleCI":        {runtime, func(c *Config) { c.SampleCI += 0.01 }},
	}

	// The leaves of Config: its own fields, with the cpu and memory-side
	// cache configurations opened up into theirs.
	var leaves []string
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if pkg := f.Type.PkgPath(); f.Type.Kind() == reflect.Struct &&
				(pkg == "dap/internal/cpu" || pkg == "dap/internal/mscache") {
				walk(f.Type, prefix+f.Name+".")
				continue
			}
			leaves = append(leaves, prefix+f.Name)
		}
	}
	walk(reflect.TypeOf(Config{}), "")
	for _, name := range leaves {
		if _, ok := fields[name]; !ok {
			t.Errorf("Config field %s is not classified as warm-visible or runtime-only", name)
		}
	}
	if len(fields) != len(leaves) {
		t.Fatalf("the table names %d fields, Config has %d leaves: %q", len(fields), len(leaves), leaves)
	}

	mix := quickMix()
	lbm, ok := workload.ByName("parboil-lbm")
	if !ok {
		t.Fatal("no parboil-lbm workload")
	}
	for _, arch := range all {
		base := Quick()
		base.Arch = arch
		key := WarmKey(base, mix, 0)
		if WarmKey(base, workload.RateMix(lbm, 8), 0) == key {
			t.Errorf("%s: another mix keeps the warm key", arch)
		}
		if WarmKey(base, mix, 1) == key {
			t.Errorf("%s: another seed keeps the warm key", arch)
		}
		for _, name := range leaves {
			f := fields[name]
			c := base
			f.mutate(&c)
			if reflect.DeepEqual(c, base) {
				t.Fatalf("the %s mutation leaves the configuration unchanged", name)
			}
			want := slices.Contains(f.warmUnder, arch)
			if got := WarmKey(c, mix, 0) != key; got != want {
				t.Errorf("%s: changing %s changes the warm key = %v, want %v", arch, name, got, want)
			}
		}
	}
}

// TestCheckpointFigureDriverSingleFlight runs a multi-variant figure grid
// (the grid and speedup series every speedup figure uses) with and without
// the checkpoint cache: the series must be bit-identical, and the cache
// must have built exactly one checkpoint per mix.
func TestCheckpointFigureDriverSingleFlight(t *testing.T) {
	lbm, ok := workload.ByName("parboil-lbm")
	if !ok {
		t.Fatal("no parboil-lbm workload")
	}
	mixes := []workload.Mix{quickMix(), workload.RateMix(lbm, 8)}
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
