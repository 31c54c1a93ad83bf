package dram

import (
	"math/rand"
	"testing"

	"dap/internal/mem"
)

// entry makes a queued request identified by its enqueue cycle.
func entry(id int) queued { return queued{enqueued: mem.Cycle(id), bank: id % 8} }

// TestReqQueueMatchesSliceRemoval drives reqQueue and the plain slice it
// replaced (removal by append(q[:i], q[i+1:]...)) with the same random
// pushes and window-bounded removals, including backlogs far deeper than
// the scheduler window, and requires the same FIFO contents throughout.
func TestReqQueueMatchesSliceRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := reqQueue{buf: make([]queued, 0, 4)}
	var ref []queued
	next := 0
	for step := 0; step < 100000; step++ {
		// Alternate growth-biased and drain-biased phases so the depth
		// sweeps from empty to about two hundred entries and back.
		pushBias := 3
		if (step/400)%2 == 1 {
			pushBias = 1
		}
		if len(ref) == 0 || rng.Intn(4) < pushBias {
			q.push(entry(next))
			ref = append(ref, entry(next))
			next++
		} else {
			i := rng.Intn(min(window, len(ref)))
			got := q.remove(i)
			want := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got != want {
				t.Fatalf("step %d: remove(%d) = %d, want %d", step, i, got.enqueued, want.enqueued)
			}
		}
		live := q.live()
		if len(live) != len(ref) || q.len() != len(ref) {
			t.Fatalf("step %d: queue holds %d, reference %d", step, len(live), len(ref))
		}
		for k := range ref {
			if live[k] != ref[k] {
				t.Fatalf("step %d: entry %d is %d, reference %d", step, k, live[k].enqueued, ref[k].enqueued)
			}
		}
		for k := 0; k < q.head; k++ {
			if q.buf[k] != (queued{}) {
				t.Fatalf("step %d: dead slot %d still holds entry %d", step, k, q.buf[k].enqueued)
			}
		}
	}
}

// TestReqQueueSteadyStateAllocs pins that a warm queue serving a steady
// stream, one push per issue, performs no heap allocations.
func TestReqQueueSteadyStateAllocs(t *testing.T) {
	q := reqQueue{buf: make([]queued, 0, 64)}
	for i := 0; i < 24; i++ {
		q.push(entry(i))
	}
	n := 24
	if a := testing.AllocsPerRun(10000, func() {
		q.push(entry(n))
		q.remove(n % window)
		n++
	}); a != 0 {
		t.Fatalf("steady push/remove allocates %.2f times per run, want 0", a)
	}
}

// TestReqQueueCapacityBounded streams a million requests through queues
// held at fixed depths and requires the buffer to stop growing once warm
// and to stay within four times the depth (or the initial 64 slots).
func TestReqQueueCapacityBounded(t *testing.T) {
	for _, depth := range []int{1, 15, 40, 63, 200} {
		q := reqQueue{buf: make([]queued, 0, 64)}
		for i := 0; i < depth; i++ {
			q.push(entry(i))
		}
		warm := 0
		for i := depth; i < depth+1000000; i++ {
			q.push(entry(i))
			q.remove(i % min(window, q.len()))
			if i == depth+10000 {
				warm = cap(q.buf)
			}
		}
		if c := cap(q.buf); c != warm || c > max(64, 4*depth) {
			t.Fatalf("depth %d: capacity %d after the stream (%d when warm), bound %d",
				depth, c, warm, max(64, 4*depth))
		}
		if q.len() != depth {
			t.Fatalf("depth %d: queue holds %d", depth, q.len())
		}
	}
}
