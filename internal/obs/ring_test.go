package obs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingMatchesSliceOracle pushes random-length sequences into rings of
// capacity 1..8 and checks every observable after every push against a
// plain slice that keeps everything and is cut to its newest capacity
// values.
func TestRingMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 8; capacity++ {
		for trial := 0; trial < 20; trial++ {
			r := NewRing[int](capacity)
			var all []int
			pushes := rng.Intn(4*capacity + 3)
			for p := 0; p < pushes; p++ {
				v := rng.Int()
				old, evicted := r.Push(v)
				all = append(all, v)

				want := all[max(0, len(all)-capacity):]
				wantEvicted := len(all) - len(want)
				if evicted != (len(all) > capacity) {
					t.Fatalf("cap %d push %d: evicted = %v", capacity, p, evicted)
				}
				if evicted && old != all[wantEvicted-1] {
					t.Fatalf("cap %d push %d: Push returned %d, want %d", capacity, p, old, all[wantEvicted-1])
				}
				if !evicted && old != 0 {
					t.Fatalf("cap %d push %d: Push returned %d without evicting", capacity, p, old)
				}
				if r.Len() != len(want) || r.Evicted() != uint64(wantEvicted) {
					t.Fatalf("cap %d push %d: Len %d Evicted %d, want %d %d",
						capacity, p, r.Len(), r.Evicted(), len(want), wantEvicted)
				}
				if got := r.All(); !slices.Equal(got, want) {
					t.Fatalf("cap %d push %d: All = %v, want %v", capacity, p, got, want)
				}
				for i := range want {
					if r.At(i) != want[i] {
						t.Fatalf("cap %d push %d: At(%d) = %d, want %d", capacity, p, i, r.At(i), want[i])
					}
				}
			}
			if pushes == 0 {
				if r.Len() != 0 || r.All() == nil {
					t.Fatalf("cap %d: empty ring Len=%d All=%v", capacity, r.Len(), r.All())
				}
			}
		}
	}
}

// TestRingPushAllocs pins the steady state every observer relies on: once
// a ring is full, Push overwrites in place and never allocates.
func TestRingPushAllocs(t *testing.T) {
	r := NewRing[FlightEntry](64)
	for i := 0; i < 64; i++ {
		r.Push(FlightEntry{Cycle: uint64(i)})
	}
	var n uint64
	if a := testing.AllocsPerRun(1000, func() {
		r.Push(FlightEntry{Cycle: n, Note: "pending"})
		n++
	}); a != 0 {
		t.Fatalf("Push into a full ring allocates %.1f times per run, want 0", a)
	}
}
