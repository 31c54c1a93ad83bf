package harness

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dap/internal/ckpt"
	"dap/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_tiny.txt from this tree's results")

const goldenTinyPath = "testdata/golden_tiny.txt"

// runDigest is an FNV-64a digest of a run's simulated statistics; equal
// digests mean equal runs. It is bench's digest definition.
func runDigest(r Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r.Run)
	return h.Sum64()
}

// goldenRun is one tiny-scale simulation pinned by the golden file.
type goldenRun struct {
	name string
	cfg  Config
	mix  workload.Mix
	// exercises, when set, checks that the run reaches the mechanism it is
	// in the file for; goldenTiny fails, -update included, when it does not.
	exercises func(Result) error
}

// goldenSeed is the stream seed of every golden run.
const goldenSeed = 7

// goldenRuns are the benchmark's configurations at bench's tiny scale (5k
// warmup accesses and 20k measured instructions per core): the three cold
// and resumed workloads, the figure point's six policies, and one sectored
// DAP run warmed long enough (40k accesses per core) to hit in the cache
// and take all four DAP techniques.
func goldenRuns() []goldenRun {
	base := Quick()
	base.WarmAccesses = 5_000
	base.MeasureInstr = 20_000
	rate := func(name string) workload.Mix {
		spec, ok := workload.ByName(name)
		if !ok {
			panic("golden: unknown workload " + name)
		}
		return workload.RateMix(spec, base.CPU.Cores)
	}
	with := func(arch Arch, pol Policy) Config {
		c := base
		c.Arch, c.Policy = arch, pol
		return c
	}
	runs := []goldenRun{
		{"libquantum/sectored/dap", with(SectoredDRAM, DAP), rate("libquantum"), nil},
		{"parboil-lbm/edram/dap", with(SectoredEDRAM, DAP), rate("parboil-lbm"), nil},
		{"mcf/alloy/dap", with(AlloyCache, DAP), rate("mcf"), nil},
	}
	hetero := workload.HeterogeneousMixes(base.CPU.Cores)[0]
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		runs = append(runs, goldenRun{hetero.Name + "/sectored/" + p.String(), with(SectoredDRAM, p), hetero, nil})
	}
	warm := with(SectoredDRAM, DAP)
	warm.WarmAccesses = 40_000
	runs = append(runs, goldenRun{"mcf/sectored/dap/warm40k", warm, rate("mcf"), hitsAndTakesEveryTechnique})
	return runs
}

// hitsAndTakesEveryTechnique requires read hits in the memory-side cache
// and at least one decision of each DAP technique: FWB, WB, IFRM and SFRM.
func hitsAndTakesEveryTechnique(r Result) error {
	if d := r.DAP; r.MemSide.ReadHits == 0 || d.FWB == 0 || d.WB == 0 || d.IFRM == 0 || d.SFRM == 0 {
		return fmt.Errorf("read hits %d, FWB %d, WB %d, IFRM %d, SFRM %d; want each non-zero",
			r.MemSide.ReadHits, d.FWB, d.WB, d.IFRM, d.SFRM)
	}
	return nil
}

// goldenTiny renders the golden file: a header naming the checkpoint format
// version, one line per run (fingerprint, digest of stats.Run, aggregate
// IPC, memory-side hit rate), then one line per distinct warmup with the
// digest of its checkpoint blob.
func goldenTiny(t *testing.T) string {
	var b strings.Builder
	b.WriteString("# Tiny-scale golden results, written by `go test ./internal/harness -run TestGoldenTiny -update`.\n")
	b.WriteString("# Generated on GOARCH=amd64, which never fuses x*y+z; other GOARCHes may round differently.\n")
	fmt.Fprintf(&b, "# Warm lines digest checkpoint blobs of format version %d.\n", ckpt.Version)
	warmed := map[string]string{}
	var keys []string
	for _, g := range goldenRuns() {
		r := RunSeeded(g.cfg, g.mix, goldenSeed)
		if r.Abort != nil {
			t.Fatalf("%s: %v", g.name, r.Abort)
		}
		if g.exercises != nil {
			if err := g.exercises(r); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}
		fmt.Fprintf(&b, "run %s fingerprint=%s digest=%016x ipc=%.6f hit=%.6f\n",
			g.name, Fingerprint(g.cfg), runDigest(r), r.AggregateIPC(), r.MemSide.HitRatio())
		key := WarmKey(g.cfg, g.mix, goldenSeed)
		if _, ok := warmed[key]; ok {
			continue
		}
		s := newSystem(g.cfg, g.mix, goldenSeed)
		s.Warmup()
		blob, err := s.SaveCheckpoint()
		if err != nil {
			t.Fatalf("%s: save: %v", g.name, err)
		}
		h := fnv.New64a()
		h.Write(blob)
		warmed[key] = fmt.Sprintf("warm %s %s blob=%016x\n", key, g.mix.Name+"/"+g.cfg.Arch.String(), h.Sum64())
		keys = append(keys, key)
	}
	for _, k := range keys {
		b.WriteString(warmed[k])
	}
	return b.String()
}

// TestGoldenTiny checks that this tree's tiny-scale results equal the
// committed ones: a change that moves a simulated number, a fingerprint or a
// warmup checkpoint fails here, even if it moves every path alike. A change
// that moves them on purpose rewrites the file with -update.
func TestGoldenTiny(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden results were generated on amd64; GOARCH=%s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	if raceEnabled {
		// the detector changes no result, and it slows these runs from
		// 0.7 s to 8.5 s in make runner-race's time-boxed step
		t.Skip("results are checked by the build without the race detector")
	}
	got := goldenTiny(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTinyPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTinyPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTinyPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
