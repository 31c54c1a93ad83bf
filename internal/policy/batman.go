package policy

// BATMAN steers traffic to main memory by disabling a fraction of the
// memory-side cache sets so that the cache operates at a target hit rate
// dictated by the bandwidth ratio of the sources:
// target = B_MS$ / (B_MS$ + B_MM). Accesses mapping to disabled sets go
// straight to main memory. Disabling a set requires cleaning its dirty
// blocks; re-enabled sets warm up from cold.
type BATMAN struct {
	// TargetHitRate is B_MS$/(B_MS$+B_MM).
	TargetHitRate float64
	// Step is the fraction of sets toggled per epoch decision.
	Step float64
	// Margin is the dead band around the target.
	Margin float64

	sets     int
	disabled int // sets [0, disabled) are off

	hits, lookups uint64

	// Stats
	Epochs uint64
}

// NewBATMAN builds the policy for a cache with the given set count and
// bandwidths in GB/s.
func NewBATMAN(sets int, bmsGBps, bmmGBps float64) *BATMAN {
	return &BATMAN{
		TargetHitRate: bmsGBps / (bmsGBps + bmmGBps),
		Step:          1.0 / 32,
		Margin:        0.02,
		sets:          sets,
	}
}

// Disabled reports whether a set is currently off.
func (b *BATMAN) Disabled(set int) bool { return set < b.disabled }

// DisabledSets returns the current count of disabled sets.
func (b *BATMAN) DisabledSets() int { return b.disabled }

// NoteLookup records a demand lookup outcome on an enabled set.
func (b *BATMAN) NoteLookup(hit bool) {
	b.lookups++
	if hit {
		b.hits++
	}
}

// Epoch evaluates the observed hit rate and adjusts the disabled-set count.
// It returns (newlyDisabledFrom, newlyDisabledTo): the half-open interval of
// set indices that were just turned off and must be cleaned/invalidated by
// the controller; an empty interval means none.
func (b *BATMAN) Epoch() (from, to int) {
	b.Epochs++
	if b.lookups < 64 {
		return 0, 0
	}
	hr := float64(b.hits) / float64(b.lookups)
	b.hits, b.lookups = 0, 0
	step := int(b.Step * float64(b.sets))
	if step < 1 {
		step = 1
	}
	switch {
	case hr > b.TargetHitRate+b.Margin && b.disabled+step <= b.sets/2:
		from, to = b.disabled, b.disabled+step
		b.disabled += step
		return from, to
	case hr < b.TargetHitRate-b.Margin && b.disabled > 0:
		b.disabled -= step
		if b.disabled < 0 {
			b.disabled = 0
		}
	}
	return 0, 0
}
