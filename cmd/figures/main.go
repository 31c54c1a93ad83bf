// Command figures regenerates every table and figure of the paper's
// evaluation section, the DAP ablations and the observability and
// calibration tables, and prints them as text tables (the source of
// EXPERIMENTS.md). Select a subset by key, or run everything.
//
//	figures                # every key, full length
//	figures -quick         # shortened runs
//	figures -only fig6,tab1,abl-techniques
//	figures -j 8           # fan simulations across 8 workers (output is
//	                       # bit-identical at any -j; 0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dap"
)

// selectDrivers returns the drivers a comma-separated -only list names, in
// table order; an empty list selects every driver. An unknown key is an
// error that names it and lists the valid keys.
func selectDrivers(only string) ([]dap.Driver, error) {
	want := map[string]bool{}
	var order []string
	for _, k := range strings.Split(only, ",") {
		if k = strings.TrimSpace(strings.ToLower(k)); k != "" && !want[k] {
			want[k] = true
			order = append(order, k)
		}
	}
	if len(order) == 0 {
		return dap.Drivers, nil
	}
	var sel []dap.Driver
	var keys []string
	for _, d := range dap.Drivers {
		keys = append(keys, d.Key)
		if want[d.Key] {
			sel = append(sel, d)
			delete(want, d.Key)
		}
	}
	var unknown []string
	for _, k := range order {
		if want[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown -only key(s) %s; keys are %s",
			strings.Join(unknown, ", "), strings.Join(keys, ","))
	}
	return sel, nil
}

func main() {
	quick := flag.Bool("quick", false, "shortened runs")
	only := flag.String("only", "", "comma-separated experiment keys (default: every key; an unknown key lists them)")
	jobs := flag.Int("j", 0, "max concurrent simulations per experiment (0 = GOMAXPROCS, 1 = serial)")
	useCkpt := flag.Bool("ckpt", false, "share warmup checkpoints across each figure's variants (bit-identical output, warmup runs once per mix)")
	ckptDir := flag.String("ckpt-dir", "", "persist warmup checkpoints under this directory so reruns skip warmup entirely (implies -ckpt)")
	flag.Parse()
	drivers, err := selectDrivers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}

	opts := dap.Options{Quick: *quick, Parallel: *jobs}
	if *ckptDir != "" {
		ck, err := dap.NewWarmupCheckpoints(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		opts.Ckpt = ck
	} else if *useCkpt {
		opts.Ckpt = dap.InMemoryWarmupCheckpoints()
	}
	// The host line makes a saved run's timing lines comparable.
	fmt.Printf("figures %s: %d CPUs, GOMAXPROCS %d, %s, GOARCH %s\n\n",
		dap.BuildVersion(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH)
	total := time.Now()
	for _, d := range drivers {
		start := time.Now()
		fig := d.Run(opts)
		fmt.Println(fig.String())
		fmt.Printf("(%s in %.0fs)\n\n", d.Key, time.Since(start).Seconds())
	}
	fmt.Printf("(total in %.0fs)\n", time.Since(total).Seconds())
	if opts.Ckpt != nil {
		st := opts.Ckpt.Stats()
		fmt.Printf("warmup checkpoints: built %d, disk hits %d, load failures %d\n",
			st.Builds, st.StoreHits, st.LoadFailures)
	}
}
