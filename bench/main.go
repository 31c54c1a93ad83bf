// Command bench measures the DAP simulator end to end and per layer. Run it
// from the repository root:
//
//	sh bench/run.sh --workload cold-sectored-dap --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh --workload all --seed 1 --trace 1 --out .bench_build/a.json
//	sh bench/run.sh compare .bench_build/a.json .bench_build/b.json
//
// It prints every metric as "workload metric value unit" and, last, one JSON
// object with the fields correct, attempted, failed and metrics. README.md
// describes the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compare(args[1:], os.Stdout))
	}
	os.Exit(cli(args))
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func cli(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all: "+strings.Join(names(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; op i of a cold or figure workload uses stream seed seed+i")
	seconds := fs.Float64("seconds", 15, "measure ops for this many seconds")
	trace := fs.Int("trace", 0, "1 reruns every op traced and reports the per-layer metrics")
	out := fs.String("out", "", "also append the run to this result file (host, quartiles, samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>]")
		return 2
	}
	if *name == "all" {
		return runAll(os.Stdout, *seed, *seconds, *trace, *out)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; one of: %s, all\n", *name, strings.Join(names(), ", "))
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: quick}
	if opt.trace {
		opt.traceOut = filepath.Join(".bench_build", fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		if *out != "" {
			opt.traceOut = strings.TrimSuffix(*out, ".json") + ".trace.json"
		}
	}
	res, err := run(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
	if *out != "" {
		if err := appendResults(*out, []*result{res}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue and lastLine are the final line of the output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one line per metric and then the JSON line.
func report(w io.Writer, r *result) error {
	ll := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, name := range r.Names {
		s := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(s.Value, 'g', -1, 64), s.Unit)
		ll.Metrics[name] = metricValue{s.Value, s.Unit}
	}
	fmt.Fprintf(w, "%s fail_frac %s frac\n", r.Workload, strconv.FormatFloat(r.FailFrac, 'g', -1, 64))
	return printJSON(w, ll)
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runAll runs every workload in its own process, one after another, and
// prints their lines followed by one JSON line whose metrics are keyed
// "workload/metric".
func runAll(w io.Writer, seed uint64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	all := lastLine{Correct: true, Metrics: map[string]metricValue{}}
	var results []*result
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		part := ""
		if out != "" {
			part = strings.TrimSuffix(out, ".json") + "." + wl.name + ".json"
			_ = os.Remove(part) // the child appends to it; start from none
			args = append(args, "-out", part)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(w, l)
		}
		var ll lastLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ll); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v %v\n", wl.name, runErr, err)
			all.Correct = false
		}
		all.Correct = all.Correct && ll.Correct
		all.Attempted += ll.Attempted
		all.Failed += ll.Failed
		for k, v := range ll.Metrics {
			all.Metrics[wl.name+"/"+k] = v
		}
		if part != "" {
			rs, err := readResults(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				all.Correct = false
				continue
			}
			results = append(results, rs...)
			_ = os.Remove(part) // merged into out; a leftover part file is harmless
		}
	}
	if out != "" {
		if err := appendResults(out, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printJSON(w, all); err != nil || !all.Correct {
		return 1
	}
	return 0
}

// resultFile is the file -out writes and compare reads.
type resultFile struct {
	Results []*result `json:"results"`
}

// appendResults adds runs to a result file, creating it if need be.
func appendResults(path string, rs []*result) error {
	old, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(resultFile{append(old, rs...)}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}
