package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is attributed with the standard library alone: the
// gzipped profile.proto is decoded just far enough to walk each sample's
// stack (samples, locations with their inlined lines, functions, strings).

// Phases of an op, named by the harness entry point on the sample's stack.
const (
	noPhase = iota
	buildPhase
	warmPhase
	savePhase
	loadPhase
	measurePhase
	nPhases
)

var phaseFrames = map[string]int{
	"dap/internal/harness.Build":                    buildPhase,
	"dap/internal/harness.(*System).Warmup":         warmPhase,
	"dap/internal/harness.(*System).SaveCheckpoint": savePhase,
	"dap/internal/harness.(*System).LoadCheckpoint": loadPhase,
	"dap/internal/harness.(*System).Measure":        measurePhase,
}

// layers are the packages CPU time is reported for; samples in any other
// dap package, in the benchmark's own code, or with no dap frame at all
// count as "other".
var layers = []string{"cache", "cpu", "workload", "mscache", "sim", "dram", "core", "mem",
	"policy", "ckpt", "harness", "runtime", "other"}

// attribution is CPU seconds by layer and phase.
type attribution map[string]*[nPhases]float64

func (a attribution) add(layer string, phase int, sec float64) {
	p := a[layer]
	if p == nil {
		p = new([nPhases]float64)
		a[layer] = p
	}
	p[phase] += sec
}

func (a attribution) total() float64 {
	var t float64
	for _, p := range a {
		for _, s := range p {
			t += s
		}
	}
	return t
}

// self is a layer's CPU seconds over all phases.
func (a attribution) self(layer string) float64 {
	var t float64
	if p := a[layer]; p != nil {
		for _, s := range p {
			t += s
		}
	}
	return t
}

func (a attribution) in(layer string, phase int) float64 {
	if p := a[layer]; p != nil {
		return p[phase]
	}
	return 0
}

// scaled returns a copy with every entry multiplied by f.
func (a attribution) scaled(f float64) attribution {
	out := attribution{}
	for l, p := range a {
		q := *p
		for i := range q {
			q[i] *= f
		}
		out[l] = &q
	}
	return out
}

// attribute charges each sample of a gzipped CPU profile to a layer and a
// phase. A sample whose leaf frame is in the runtime is runtime time;
// otherwise it goes to the innermost frame in a dap package or in the
// benchmark itself, so standard-library leaves (math.Pow under workload)
// roll up to their caller. The phase is the innermost harness entry point
// on the stack.
func attribute(gz []byte) (attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples [][]byte
	)
	err = fields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			samples = append(samples, data)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := attribution{}
	for _, s := range samples {
		var ids, vals []uint64
		err := fields(s, func(num int, v uint64, data []byte) error {
			switch num {
			case 1:
				ids = appendVarints(ids, v, data)
			case 2:
				vals = appendVarints(vals, v, data)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 || len(ids) == 0 {
			continue
		}
		layer, phase := "", noPhase
		for i, id := range ids {
			for j, fn := range locs[id] {
				f := name(fn)
				if i == 0 && j == 0 && isRuntime(pkgOf(f)) {
					layer = "runtime"
				}
				if layer == "" {
					layer = layerOf(pkgOf(f))
				}
				if p, ok := phaseFrames[f]; ok && phase == noPhase {
					phase = p
				}
			}
		}
		if layer == "" {
			layer = "other"
		}
		// a CPU profile's last sample value is CPU nanoseconds
		out.add(layer, phase, float64(vals[len(vals)-1])/1e9)
	}
	return out, nil
}

// pkgOf returns the package path of a symbol such as
// "dap/internal/cache.(*Cache).Lookup".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf maps a package to its reported layer, or "" for a standard-library
// package that rolls up to its caller.
func layerOf(pkg string) string {
	if pkg == "main" {
		return "other" // the benchmark's own instruments
	}
	rest, ok := strings.CutPrefix(pkg, "dap/internal/")
	if !ok {
		if pkg == "dap" || strings.HasPrefix(pkg, "dap/") {
			return "other"
		}
		return ""
	}
	rest, _, _ = strings.Cut(rest, "/")
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

var errProto = errors.New("bench: malformed profile")

// fields calls fn for each field of the protobuf message b: with the value
// of a varint field, or the bytes of a length-delimited one.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed (data) or
// not (v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
