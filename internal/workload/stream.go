package workload

import (
	"math"

	"dap/internal/mem"
)

// Access is one line-granularity memory operation in a core's stream.
type Access struct {
	Addr      mem.Addr // line-aligned byte address
	Store     bool
	Dependent bool   // must wait for the previous dependent load (pointer chase)
	Gap       uint32 // non-memory instructions preceding this access
}

// Stream produces an infinite access stream. Implementations are
// deterministic for a given seed.
type Stream interface {
	Next() Access
}

// rng is xorshift64* — fast, deterministic, good enough for address streams.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0,n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

const (
	sectorBytes  = 4096
	sectorBlocks = sectorBytes / mem.LineBytes
)

// specStream generates a Spec's access pattern within [base, base+footprint).
type specStream struct {
	spec Spec
	base mem.Addr
	r    rng

	footLines uint64
	hotLines  uint64
	streamPos uint64 // current streaming cursor (line index)
	chasePos  uint64 // current pointer-chase position

	// usableBlocks[i] for i in [0,density*64) are the block offsets used
	// inside each sector (fixed permutation per workload).
	usableBlocks []uint64
	meanGap      float64
	alpha        float64
}

// NewStream builds the access stream for spec, core-private at base.
// Each (spec, seed) pair yields an identical sequence.
func NewStream(spec Spec, base mem.Addr, seed uint64) Stream {
	s := &specStream{spec: spec, base: base, r: newRNG(seed*0x9e3779b97f4a7c15 + 1)}
	s.footLines = spec.Footprint() / mem.LineBytes
	if s.footLines < sectorBlocks {
		s.footLines = sectorBlocks
	}
	s.hotLines = spec.Hot() / mem.LineBytes
	if s.hotLines > s.footLines {
		s.hotLines = s.footLines
	}
	n := int(spec.SectorDensity*sectorBlocks + 0.5)
	if n < 1 {
		n = 1
	}
	if n > sectorBlocks {
		n = sectorBlocks
	}
	// fixed permutation of block slots inside a sector
	perm := make([]uint64, sectorBlocks)
	for i := range perm {
		perm[i] = uint64(i)
	}
	pr := newRNG(seed ^ 0xabcdef)
	for i := sectorBlocks - 1; i > 0; i-- {
		j := pr.intn(uint64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	s.usableBlocks = perm[:n]
	s.alpha = spec.SkewAlpha
	if s.alpha < 1 {
		s.alpha = 1
	}
	if spec.MemPerKilo > 0 {
		s.meanGap = 1000/spec.MemPerKilo - 1
		if s.meanGap < 0 {
			s.meanGap = 0
		}
	} else {
		s.meanGap = 999
	}
	return s
}

// skewed draws a line index with power-law locality: u^alpha concentrates
// mass toward low indices, modeling the temporal reuse real applications
// exhibit (alpha 1 = uniform).
func (s *specStream) skewed(n uint64) uint64 {
	u := s.r.float()
	if s.alpha > 1 {
		u = math.Pow(u, s.alpha)
	}
	i := uint64(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// sparse maps a uniformly chosen line index onto the workload's usable
// blocks: the sector is kept, the block within the sector is forced onto the
// usable permutation. Low density therefore spreads a footprint over more
// sectors with fewer blocks each.
func (s *specStream) sparse(line uint64) uint64 {
	sector := line / sectorBlocks
	slot := s.usableBlocks[line%uint64(len(s.usableBlocks))]
	return sector*sectorBlocks + slot
}

func (s *specStream) gap() uint32 {
	// Bursty bimodal gaps preserving the configured mean: with probability
	// Burstiness the access is back-to-back, otherwise the gap is drawn
	// around the stretched mean.
	b := s.spec.Burstiness
	if b > 0 && s.r.float() < b {
		return 0
	}
	stretched := s.meanGap / (1 - b)
	// uniform in [0.5, 1.5) x stretched keeps the mean while adding jitter
	g := stretched * (0.5 + s.r.float())
	if g > 4e9 {
		g = 4e9
	}
	return uint32(g)
}

func (s *specStream) Next() Access {
	a := Access{Gap: s.gap()}
	p := s.r.float()
	sp := &s.spec
	var line uint64
	switch {
	case p < sp.StreamFrac:
		line = s.streamPos
		s.streamPos++
		if s.streamPos >= s.footLines {
			s.streamPos = 0
		}
	case p < sp.StreamFrac+sp.ChaseFrac:
		// dependent pointer chase over the sparse footprint
		s.chasePos = s.sparse(s.skewed(s.footLines))
		line = s.chasePos
		a.Dependent = true
	case p < sp.StreamFrac+sp.ChaseFrac+sp.HotFrac:
		line = s.sparse(s.r.intn(s.hotLines))
	default:
		line = s.sparse(s.skewed(s.footLines))
	}
	a.Addr = s.base + mem.Addr(line*mem.LineBytes)
	if s.r.float() < sp.WriteFrac {
		a.Store = true
	}
	return a
}

// CoreSpacing is the address-space stride between cores' private regions.
// It is far larger than any footprint so workloads never alias.
const CoreSpacing = mem.Addr(1) << 36

// CoreBase returns core i's region base. A per-core stagger of 4615 sectors
// (~18.9 MB, chosen so that i*4615 spreads well modulo the sector-cache set
// count (4096), the Alloy cache's direct-mapped set count, and the L3 set
// count) tiles the cores' footprints evenly over every cache in the system,
// as physical frame allocation does on a real machine; power-of-two spacing
// alone would pile every core onto the same sets.
func CoreBase(i int) mem.Addr {
	return CoreSpacing*mem.Addr(i+1) + mem.Addr(i)*4615*4096
}
