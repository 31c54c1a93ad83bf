package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tiny is far below Quick so every workload runs in well under a second;
// numbers at this scale mean nothing.
var tiny = scale{warm: 5_000, instr: 20_000, resumeInstr: 20_000}

func metricNames(ms []benchMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestWorkloadsAtTinyScale runs every workload untraced and traced, for as
// few ops as a run makes. Every correctness check (traced against untraced
// digests, resumed against cold, the checkpoint round trip, the parallel
// figure point against the serial one) must pass, and the output must carry
// exactly the metrics BENCHMARK.json lists.
func TestWorkloadsAtTinyScale(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, names()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, names())
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			want := metricNames(spec.EndToEnd)
			if trace {
				name = w.name + "/traced"
				want = metricNames(spec.PerLayer)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				opt := options{seed: 7, trace: trace, scale: tiny,
					traceOut: filepath.Join(dir, "trace.json")}
				res, err := run(w, opt)
				if err != nil || !res.Correct || res.Failed != 0 {
					t.Fatalf("run: err %v, correct %v, %d of %d ops failed", err, res.Correct, res.Failed, res.Attempted)
				}
				if !slices.Equal(res.Names, want) {
					t.Errorf("metrics %v, BENCHMARK.json lists %v", res.Names, want)
				}
				if cov := res.Metrics["profile.coverage"]; trace && cov.Value <= 0 {
					t.Errorf("profile.coverage %v: the CPU profile yielded no samples", cov.Value)
				}

				path := filepath.Join(dir, "result.json")
				if err := appendResults(path, []*result{res}); err != nil {
					t.Fatal(err)
				}
				back, err := readResults(path)
				if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], res) {
					t.Errorf("result file does not round-trip: %v", err)
				}

				var buf bytes.Buffer
				if err := report(&buf, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Errorf("last line has keys %v", keys)
				}
			})
		}
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"dap/internal/cache.(*Cache).Lookup":                                  "cache",
		"dap/internal/harness.(*System).Measure.func1":                        "harness",
		"dap/internal/runner.Map[go.shape.struct { dap/internal/harness.x }]": "other",
		"main.(*countingStream).Next":                                         "other",
		"dap.RunE":                                                            "other",
		"math.Pow":                                                            "",
	} {
		if got := layerOf(pkgOf(sym)); got != want {
			t.Errorf("layerOf(pkgOf(%q)) = %q, want %q", sym, got, want)
		}
	}
	for _, sym := range []string{"runtime.mallocgc", "internal/runtime/maps.(*Map).getWithKey"} {
		if !isRuntime(pkgOf(sym)) {
			t.Errorf("%s is not counted as runtime", sym)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) and statistics.median
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	s := func(xs ...float64) side {
		q1, med, q3 := quartiles(xs)
		return side{med, (q3 - q1) / med, xs}
	}
	for _, c := range []struct {
		a, b side
		m    benchMetric
		want string
	}{
		{s(1, 1, 1), s(1.05, 1.05, 1.05), lower, "same"},
		{s(1, 1, 1), s(1.2, 1.2, 1.2), lower, "worse"},
		{s(1, 1, 1), s(0.8, 0.8, 0.8), lower, "better"},
		{s(1, 1, 1), s(0.8, 0.8, 0.8), benchMetric{Better: "higher", Bound: 0.1}, "worse"},
		{s(1, 1.5, 2), s(1, 1.5, 2), lower, "unresolved"},
		{s(3, 4, 5), s(1, 1.5, 2), lower, "better"},
	} {
		if got, _, _ := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a.samples, c.b.samples, got, c.want)
		}
	}
}
