package harness

import (
	"os"
	"reflect"
	"testing"
)

// determinismSubset is the representative slice of Drivers the default
// test sweeps: the kernel path (fig1), the grid and its speedup and mean
// series over two architectures (fig2, fig6), a DAP-decision driver (fig7), an ablation with a
// DAPOverride (abl-techniques) and the traced observability driver
// (breakdown). Set DAP_DETERMINISM_ALL=1 to sweep every driver instead.
var determinismSubset = map[string]bool{
	"fig1": true, "fig2": true, "fig6": true, "fig7": true,
	"abl-techniques": true, "breakdown": true,
}

// TestParallelFiguresBitIdentical asserts the tentpole guarantee: a figure
// produced with eight workers is deep-equal — bit-identical floats — to the
// one produced strictly serially. Runs at tiny scale so whole drivers stay
// affordable; the scheduling paths exercised are exactly the ones full-length
// runs use.
func TestParallelFiguresBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	all := os.Getenv("DAP_DETERMINISM_ALL") == "1"
	// Under the race detector simulations run ~10x slower; keep the two
	// cheapest drivers (which still fan out through the pool and the memo)
	// so `go test -race` gets real concurrency coverage at bounded cost.
	raceSubset := map[string]bool{"fig1": true, "breakdown": true}
	want := len(determinismSubset)
	if raceEnabled {
		want = len(raceSubset)
	}
	ran := 0
	for _, d := range Drivers {
		if !all && !determinismSubset[d.Key] {
			continue
		}
		if raceEnabled && !raceSubset[d.Key] {
			continue
		}
		ran++
		d := d
		t.Run(d.Key, func(t *testing.T) {
			par := d.Run(Options{Quick: true, Parallel: 8, tiny: true})
			ser := d.Run(Options{Quick: true, Parallel: 1, tiny: true})
			if !reflect.DeepEqual(par, ser) {
				t.Fatalf("parallel figure differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
					par.String(), ser.String())
			}
		})
	}
	if !all && ran != want {
		t.Fatalf("swept %d drivers, want %d: a subset key is not in Drivers", ran, want)
	}
}

// TestAloneMemoSharing asserts the process-wide alone-IPC memo serves
// repeated (config, workload) pairs from one simulation: a second identical
// driver invocation must not grow the memo.
func TestAloneMemoSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("simulation-bound; the determinism sweep covers the memo under race")
	}
	o := Options{Quick: true, Parallel: 4, tiny: true}
	Fig06(o)
	alone.ipc.mu.Lock()
	n := len(alone.ipc.m)
	alone.ipc.mu.Unlock()
	if n == 0 {
		t.Fatal("alone memo empty after a weighted-speedup driver")
	}
	Fig06(o)
	alone.ipc.mu.Lock()
	n2 := len(alone.ipc.m)
	alone.ipc.mu.Unlock()
	if n2 != n {
		t.Fatalf("memo grew on an identical rerun: %d -> %d entries", n, n2)
	}
}

// TestAloneFingerprintSeparates guards the memo key: configurations that
// change the alone-IPC denominator (cache capacity, architecture, main
// memory) must not collide, while fields that cannot affect a single-core
// alone run on the baseline policy (core count is normalized to 1) must.
func TestAloneFingerprintSeparates(t *testing.T) {
	base := Quick()
	cap := base
	cap.Sectored.CapacityBytes *= 2
	arch := base
	arch.Arch = AlloyCache
	if aloneFingerprint(base) == aloneFingerprint(cap) {
		t.Fatal("capacity change must change the fingerprint")
	}
	if aloneFingerprint(base) == aloneFingerprint(arch) {
		t.Fatal("architecture change must change the fingerprint")
	}
	cores := base
	cores.CPU.Cores = 16
	if aloneFingerprint(base) != aloneFingerprint(cores) {
		t.Fatal("core count is normalized to 1 and must not change the fingerprint")
	}
	observed := base
	observed.Observe = Observe{MetricsEvery: 1000, TraceEvery: 1, Flight: true, Decisions: true}
	if aloneFingerprint(base) != aloneFingerprint(observed) || Fingerprint(base) != Fingerprint(observed) {
		t.Fatal("observers change no result and must not change the fingerprint")
	}
}
