package workload

import "fmt"

// Mix is a named eight-way combination of snippets (Section V: 27
// heterogeneous mixes; roughly half combine snippets of similar bandwidth
// sensitivity, the rest dissimilar).
type Mix struct {
	Name  string
	Specs []Spec
}

// HeterogeneousMixes deterministically builds the 27 eight-way mixes from
// the 17 snippets. Mixes 1-13 draw from a single sensitivity class
// ("similar"); mixes 14-27 interleave both classes ("dissimilar").
func HeterogeneousMixes(cores int) []Mix {
	sens := Sensitive()
	insens := Insensitive()
	var mixes []Mix
	pick := func(pool []Spec, start, stride int) []Spec {
		out := make([]Spec, cores)
		for i := 0; i < cores; i++ {
			out[i] = pool[(start+i*stride)%len(pool)]
		}
		return out
	}
	// 13 similar mixes: rotate through the sensitive pool with co-prime
	// strides so each mix is a distinct combination.
	for m := 0; m < 13; m++ {
		stride := 1 + m%5
		mixes = append(mixes, Mix{
			Name:  fmt.Sprintf("hetero-sim-%02d", m+1),
			Specs: pick(sens, m, stride),
		})
	}
	// 14 dissimilar mixes: alternate sensitive and insensitive snippets.
	for m := 0; m < 14; m++ {
		specs := make([]Spec, cores)
		for i := 0; i < cores; i++ {
			if i%2 == 0 {
				specs[i] = sens[(m*3+i)%len(sens)]
			} else {
				specs[i] = insens[(m+i)%len(insens)]
			}
		}
		mixes = append(mixes, Mix{Name: fmt.Sprintf("hetero-dis-%02d", m+1), Specs: specs})
	}
	return mixes
}

// RateMix wraps a homogeneous rate-n run as a Mix.
func RateMix(spec Spec, cores int) Mix {
	specs := make([]Spec, cores)
	for i := range specs {
		specs[i] = spec
	}
	return Mix{Name: spec.Name, Specs: specs}
}

// AllMixes returns the full 44-workload suite for an n-core system:
// 12 bandwidth-sensitive rate mixes, 5 insensitive rate mixes and the 27
// heterogeneous mixes (Figure 12).
func AllMixes(cores int) []Mix {
	var out []Mix
	for _, s := range Sensitive() {
		out = append(out, RateMix(s, cores))
	}
	for _, s := range Insensitive() {
		out = append(out, RateMix(s, cores))
	}
	out = append(out, HeterogeneousMixes(cores)...)
	return out
}

// StreamsSeeded instantiates the per-core streams of a mix, each in its
// core's private region, with a run-level seed so experiments can be
// replicated over independent random draws (seed 0 gives the default
// streams).
func (m Mix) StreamsSeeded(seed uint64) []Stream {
	out := make([]Stream, len(m.Specs))
	for i, sp := range m.Specs {
		out[i] = NewStream(sp, CoreBase(i), uint64(i+1)*7919+seed*0x9e3779b9)
	}
	return out
}
