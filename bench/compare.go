package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from the repository root: the working
// directory, or its parent when run from bench/.
func readSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// side is one result file's view of a workload's metric.
type side struct {
	value   float64   // the median of the runs' values
	spread  float64   // quartile distance over median
	samples []float64 // what "every sample beats" compares
}

// sideOf gathers a metric over a result file's untraced runs of a
// workload. With several runs, their values are the samples and give the
// run-to-run spread; with one, its per-op samples stand in for them.
func sideOf(rs []*result, workload, metric string) (side, bool) {
	var vals []float64
	var last summary
	for _, r := range rs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, s.Value)
			last = s
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		return side{last.Value, ratio(last.Q3-last.Q1, last.Median), last.Samples}, true
	}
	q1, med, q3 := quartiles(vals)
	return side{med, ratio(q3-q1, med), vals}, true
}

// compare prints one row per workload and end-to-end metric of result files
// a and b, and returns non-zero if any reads worse in b.
func compare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench compare <a.json> <b.json>")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	worse := false
	fmt.Fprintf(w, "%-22s %-12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	var seen []string
	for _, ra := range a {
		wl := ra.Workload
		if ra.Trace || slices.Contains(seen, wl) {
			continue
		}
		seen = append(seen, wl)
		for _, m := range spec.EndToEnd {
			sa, okA := sideOf(a, wl, m.Name)
			if !okA {
				continue
			}
			sb, okB := sideOf(b, wl, m.Name)
			if !okB {
				fmt.Fprintf(w, "%-22s %-12s %12.6g %12s %8s %8s %6.2f  missing\n", wl, m.Name, sa.value, "-", "-", "-", m.Bound)
				worse = true
				continue
			}
			v, change, spread := judge(sa, sb, m)
			fmt.Fprintf(w, "%-22s %-12s %12.6g %12.6g %+7.1f%% %7.1f%% %6.2f  %s\n",
				wl, m.Name, sa.value, sb.value, 100*change, 100*spread, m.Bound, v)
			worse = worse || v == "worse"
		}
	}
	if worse {
		return 1
	}
	return 0
}

// judge compares b against a for one metric: better, same or worse by more
// than the bound, or unresolved when either side's spread is wider than the
// bound, unless every sample of b beats every sample of a.
func judge(a, b side, m benchMetric) (verdict string, change, spread float64) {
	change = ratio(b.value-a.value, a.value)
	loss := change // > 0 means b is worse
	if m.Better == "higher" {
		loss = -change
	}
	spread = max(a.spread, b.spread)
	switch {
	case spread > m.Bound:
		if beats(b.samples, a.samples, m.Better) {
			return "better", change, spread
		}
		return "unresolved", change, spread
	case loss > m.Bound:
		return "worse", change, spread
	case loss < -m.Bound:
		return "better", change, spread
	}
	return "same", change, spread
}

// beats reports whether every sample of x is better than every sample of y.
func beats(x, y []float64, better string) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}
