// Package runner provides a deterministic worker pool for fanning
// independent simulation jobs out across goroutines.
//
// Every experiment driver in the harness is embarrassingly parallel: each
// (configuration, workload) simulation owns a private sim.Engine and shares
// no mutable state with its siblings. The pool exploits that while keeping
// the one property the figures depend on: results come back in submission
// order, so the output of a parallel run is bit-identical to the serial
// one at any worker count.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Parallelism normalizes a parallelism knob: values <= 0 select
// GOMAXPROCS (the -j default), anything else is returned unchanged.
func Parallelism(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// WorkerPanic wraps a panic recovered from a pool worker so it can be
// re-raised on the caller's goroutine with the worker's stack attached.
type WorkerPanic struct {
	Value any    // the original panic value
	Stack []byte // the panicking worker's stack
}

func (p *WorkerPanic) String() string {
	return fmt.Sprintf("runner: worker panic: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n) using up to parallel workers
// (<= 0 selects GOMAXPROCS; 1 runs serially on the calling goroutine).
// It returns only after every job has finished. If a job panics, the
// remaining jobs still run and the first panic (any one of them — panics
// are exceptional, not ordered) is re-raised on the caller's goroutine as
// a *WorkerPanic.
func ForEach(parallel, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	parallel = Parallelism(parallel)
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]*WorkerPanic, parallel)
	)
	work := func(w int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panics[w] = &WorkerPanic{Value: r, Stack: debug.Stack()}
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go work(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Map runs fn(i) for every i in [0, n) across the pool and returns the
// results in index (submission) order regardless of completion order.
func Map[T any](parallel, n int, fn func(int) T) []T {
	out := make([]T, n)
	ForEach(parallel, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapE is Map for fallible jobs. All jobs run to completion even when one
// fails (so partial results are deterministic); the returned error is the
// failure with the lowest index — again independent of scheduling — with
// the index attached. The result slice always has length n, holding the
// zero value at failed indices.
func MapE[T any](parallel, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(parallel, n, func(i int) { out[i], errs[i] = fn(i) })
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	return out, nil
}
