package harness

import (
	"reflect"
	"testing"

	"dap/internal/core"
	"dap/internal/workload"
)

// simsStarted counts the simulations f starts: every one goes through
// simulate, which counts it. Tests that run in parallel with f would be
// counted too; none in this package calls t.Parallel.
func simsStarted(f func()) int64 {
	before := simulations.Load()
	f()
	return simulations.Load() - before
}

// TestGridRunsEachDistinctConfigOnce: configurations with equal cfgKey and
// equal Observe are one simulation per mix, even when their DAPOverride
// pointers differ, and they share one row.
func TestGridRunsEachDistinctConfigOnce(t *testing.T) {
	o := Options{Quick: true, Parallel: 2, tiny: true}
	base := o.base()
	cfgs := []Config{
		withDAP(base, func(*core.Config) {}),
		withDAP(base, func(*core.Config) {}),
		base,
	}
	if cfgs[0].DAPOverride == cfgs[1].DAPOverride {
		t.Fatal("the equal configurations must not share an override pointer")
	}
	spec, _ := workload.ByName("mcf")
	mixes := []workload.Mix{quickMix(), workload.RateMix(spec, base.CPU.Cores)}

	var rs [][]Result
	if n := simsStarted(func() { rs = grid(o, cfgs, mixes) }); n != 4 {
		t.Fatalf("grid started %d simulations, want 4 (2 distinct configurations x 2 mixes)", n)
	}
	if len(rs) != len(cfgs) || len(rs[0]) != len(mixes) {
		t.Fatalf("grid shape %dx%d, want %dx%d", len(rs), len(rs[0]), len(cfgs), len(mixes))
	}
	if !reflect.DeepEqual(rs[0], rs[1]) {
		t.Fatal("equal configurations read different rows")
	}
	if reflect.DeepEqual(rs[0][0].Run, rs[2][0].Run) {
		t.Fatal("DAP and baseline rows are identical: the grid merged distinct configurations")
	}
}
