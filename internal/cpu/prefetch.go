package cpu

import "dap/internal/mem"

// stridePrefetcher is a multi-stream stride prefetcher (one per core). It
// tracks up to Streams independent access streams keyed by 4 KB region,
// detects a repeated line stride, and once confident emits Degree prefetch
// candidates up to Distance lines ahead of the demand stream.
//
// The table is split by use: the region tags and the LRU stamps, which
// every lookup and victim choice scans, sit in arrays of their own, and the
// training fields, which only the stream an access lands in touches, in a
// third. A lookup first checks the stream the previous one used.
type stridePrefetcher struct {
	tags     []mem.Addr // region|1 per stream (regions are 4 KB aligned), 0 when invalid
	stamps   []uint64   // value of issued at the stream's last use
	train    []pfTrain
	last     int // the stream the previous observe used
	degree   int
	distance int64
	issued   uint64
}

// pfTrain is one stream's training state.
type pfTrain struct {
	lastLine  int64
	stride    int64
	ahead     int64 // lines already prefetched ahead of lastLine
	confident bool
}

func newStridePrefetcher(streams, degree, distance int) *stridePrefetcher {
	if streams <= 0 {
		streams = 1
	}
	return &stridePrefetcher{
		tags:     make([]mem.Addr, streams),
		stamps:   make([]uint64, streams),
		train:    make([]pfTrain, streams),
		degree:   degree,
		distance: int64(distance),
	}
}

// observe trains on a demand access (L1 miss stream) and appends up to
// Degree prefetch line addresses to out, returning the extended slice.
func (p *stridePrefetcher) observe(addr mem.Addr, out []mem.Addr) []mem.Addr {
	if p.degree == 0 {
		return out
	}
	line := int64(addr.Line())
	tag := addr&^(4096-1) | 1
	p.issued++

	// find the stream for this region, or allocate the LRU victim: the
	// first stream with the smallest stamp
	i := p.last
	if p.tags[i] != tag {
		i = -1
		for j, t := range p.tags {
			if t == tag {
				i = j
				break
			}
		}
		if i < 0 {
			i = 0
			for j, st := range p.stamps {
				if st < p.stamps[i] {
					i = j
				}
			}
			p.last = i
			p.tags[i], p.stamps[i], p.train[i] = tag, p.issued, pfTrain{lastLine: line}
			return out
		}
		p.last = i
	}
	p.stamps[i] = p.issued
	s := &p.train[i]
	d := line - s.lastLine
	if d == 0 {
		return out
	}
	switch {
	case s.stride == d:
		s.confident = true
	case s.stride != 0:
		s.confident = false
		s.ahead = 0
	}
	s.stride = d
	s.lastLine = line
	if !s.confident {
		return out
	}
	if s.ahead > 0 {
		s.ahead-- // demand consumed one prefetched line
	}
	for i := 0; i < p.degree && s.ahead < p.distance; i++ {
		s.ahead++
		target := line + s.ahead*s.stride
		if target < 0 {
			break
		}
		out = append(out, mem.Addr(target<<mem.LineShift))
	}
	return out
}
