package harness

import "testing"

// Quick-scale structural checks on the experiment drivers that are not
// exercised elsewhere. These are integration tests over the whole stack;
// they are skipped in -short mode.

// The four figure-shape tests pass quickCkpt (harness_test.go) as
// Options.Ckpt. Their configurations differ only in runtime-only fields
// (policy, DAP parameters, cache array), so each mix warms once for all
// four, and a checkpointed figure is bit-identical to a straight one.
// TestParallelFiguresBitIdentical runs without it: the straight parallel
// path is what it checks.

func TestFig08Relations(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := Fig08(Options{Quick: true, Ckpt: quickCkpt})
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	casBase, casDAP := f.Series[0], f.Series[1]
	hitBase, hitDAP := f.Series[2], f.Series[4]
	if casDAP.Summary <= casBase.Summary {
		t.Fatalf("DAP must raise the mean CAS fraction: %.3f -> %.3f",
			casBase.Summary, casDAP.Summary)
	}
	if hitDAP.Summary > hitBase.Summary+0.01 {
		t.Fatalf("DAP must not raise the mean hit ratio: %.3f -> %.3f",
			hitBase.Summary, hitDAP.Summary)
	}
	if casDAP.Summary > 0.45 {
		t.Fatalf("DAP CAS fraction %.3f implausibly beyond the 0.27 optimum", casDAP.Summary)
	}
}

func TestTab01Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := Tab01(Options{Quick: true, Ckpt: quickCkpt})
	if len(f.Series) != 6 {
		t.Fatalf("series = %d, want 6 (3 windows + 3 efficiencies)", len(f.Series))
	}
	for _, s := range f.Series {
		if s.Summary < 0.8 || s.Summary > 1.6 {
			t.Fatalf("series %s gmean %.3f out of plausible range", s.Label, s.Summary)
		}
	}
}

func TestFig04SensitiveVsInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := Fig04(Options{Quick: true, Ckpt: quickCkpt})
	speed := f.Series[0]
	// mean speedup from doubling bandwidth over the 12 sensitive mixes must
	// exceed that over the 5 insensitive ones (that is their definition)
	var sens, insens []float64
	for i, v := range speed.Values {
		if i < 12 {
			sens = append(sens, v)
		} else {
			insens = append(insens, v)
		}
	}
	ms, mi := mean(sens), mean(insens)
	if ms <= mi {
		t.Fatalf("sensitive mixes (%.3f) must gain more from 2x bandwidth than insensitive (%.3f)", ms, mi)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestAblationTechniquesStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := AblationTechniques(Options{Quick: true, Ckpt: quickCkpt})
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	full := f.Series[0].Summary
	if full < 1.0 {
		t.Fatalf("full DAP gmean %.3f should exceed 1", full)
	}
}
