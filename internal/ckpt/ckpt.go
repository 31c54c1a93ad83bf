// Package ckpt implements the versioned, checksummed binary envelope used
// for warmup checkpoints. A checkpoint is a flat sequence of named sections
// — one per simulator component that warmup changes (the CPU's caches,
// prefetchers and workload stream cursors, and the memory-side cache's tags
// and metadata) — framed by a magic string, a format version, and a
// trailing FNV-64a checksum over the whole payload.
//
// The envelope is deliberately dumb: fixed-width little-endian integers,
// length-prefixed sections, no compression, no reflection. Components
// serialize themselves through Enc/Dec so the set of bytes written is
// exactly the set of fields a restore needs, and nothing else. Sections are
// looked up by name at load time; a component with no section keeps its
// freshly constructed state, which is correct because functional warmup
// never mutates it.
//
// The writer streams every section into one contiguous buffer: opening a
// section writes its header with a length placeholder that is backpatched
// when the next section opens (or at Bytes), so rendering the envelope is a
// single checksum pass with no per-section intermediate slices. The buffer
// is sized from the previous envelope rendered by this process, so a
// steady-state checkpoint cycle performs one right-sized allocation. The
// decoder reads in place — section payloads are views into the caller's
// blob, never copies.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// Magic and Version identify the envelope format. Bump Version on any
// incompatible layout change; Load rejects mismatches as corruption so the
// caller re-runs warmup instead of resuming from garbage.
//
// Version history: 1 = per-field AoS cache lines; 2 = packed SoA tag arrays
// with lazily-present side payloads and bulk little-endian word arrays;
// 3 = no caller-state side array in cache sections, and the Alloy section
// holds its direct-mapped tag words plus dirty and reused bitmaps; 4 = the
// sectored footprint table is saved slot for slot (presence flag, key and
// mask arrays) instead of as sorted (sector, mask) pairs; 5 = only the cpu
// section and the memory-side controller's section, without the Alloy
// predictors or the SRAM caches' hit and miss counters; 6 = the cpu
// section's L1/L2/L3 are the cpu package's LRU store (tag words plus a
// recency-order and a valid/dirty word per set) instead of cache.Cache
// sections; 7 = the eDRAM cache's section is the sectored cache's, so its
// tags are followed by the absent tag-cache and footprint-table flags.
const (
	Magic   = "DAPCKPT1"
	Version = 7
)

// ErrCorrupt is returned (wrapped) for any structural damage: bad magic,
// version mismatch, truncation, checksum failure, or a section read past
// its end.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// sizeHint remembers the size of the last envelope rendered by this process
// so the next writer allocates once. Checkpoints within one process are
// taken under a handful of configurations of near-constant size, so the
// previous size (plus slack) is an excellent predictor.
var sizeHint atomic.Int64

// headerLen is the fixed prefix before the first section: magic, version,
// section count.
const headerLen = len(Magic) + 4 + 4

// Writer streams named sections into a single contiguous envelope buffer.
type Writer struct {
	buf    []byte
	enc    Enc
	lenOff int // offset of the open section's length field; -1 when closed
	n      int // sections opened
	done   bool
}

// NewWriter returns an empty checkpoint writer.
func NewWriter() *Writer {
	hint := int(sizeHint.Load())
	if hint < 1<<10 {
		hint = 1 << 10
	}
	w := &Writer{buf: make([]byte, 0, hint), lenOff: -1}
	w.enc.w = w
	w.buf = append(w.buf, Magic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0) // count, backpatched
	return w
}

// Section opens a new named section and returns the writer's encoder for
// it. The previous section (if any) is finalized; each name must be opened
// at most once, and all of a section's fields must be encoded before the
// next Section call.
func (w *Writer) Section(name string) *Enc {
	if w.done {
		panic("ckpt: Section after Bytes")
	}
	w.closeSection()
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(name)))
	w.buf = append(w.buf, name...)
	w.lenOff = len(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0) // length, backpatched
	w.n++
	return &w.enc
}

func (w *Writer) closeSection() {
	if w.lenOff >= 0 {
		binary.LittleEndian.PutUint32(w.buf[w.lenOff:], uint32(len(w.buf)-w.lenOff-4))
		w.lenOff = -1
	}
}

// Bytes finalizes and returns the envelope: magic, version, section count,
// the sections in creation order, and the FNV-64a checksum of everything
// before it. The returned slice is the writer's buffer; the writer must not
// be used afterwards.
func (w *Writer) Bytes() []byte {
	if !w.done {
		w.closeSection()
		binary.LittleEndian.PutUint32(w.buf[len(Magic)+4:], uint32(w.n))
		h := fnv.New64a()
		h.Write(w.buf)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, h.Sum64())
		w.done = true
		// Remember the rendered size (with headroom for growth) so the next
		// writer allocates exactly once.
		sizeHint.Store(int64(len(w.buf) + len(w.buf)/8))
	}
	return w.buf
}

// Reader holds a parsed, checksum-verified envelope. Section payloads are
// views into the blob passed to NewReader; the blob must outlive every Dec.
type Reader struct {
	sections map[string][]byte
}

// NewReader parses and verifies an envelope. Any structural problem returns
// an error wrapping ErrCorrupt.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen+8 {
		return nil, fmt.Errorf("%w: short envelope (%d bytes)", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(Magic)
	ver := binary.LittleEndian.Uint32(body[off:])
	if ver != Version {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrCorrupt, ver, Version)
	}
	off += 4
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	// Size the section map from the declared count, but never beyond what
	// the body could physically hold (each section needs at least a 2-byte
	// name length and a 4-byte payload length) — a forged count must not
	// translate into an attacker-sized allocation before the per-section
	// bounds checks reject it.
	hint := n
	if most := (len(body) - off) / 6; hint > most {
		hint = most
	}
	r := &Reader{sections: make(map[string][]byte, hint)}
	for i := 0; i < n; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		nl := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nl+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated section name", ErrCorrupt)
		}
		name := string(body[off : off+nl])
		off += nl
		sl := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+sl > len(body) {
			return nil, fmt.Errorf("%w: truncated section %q", ErrCorrupt, name)
		}
		r.sections[name] = body[off : off+sl]
		off += sl
	}
	return r, nil
}

// Section returns a decoder over the named section, or ok=false when the
// envelope has no such section.
func (r *Reader) Section(name string) (*Dec, bool) {
	b, ok := r.sections[name]
	if !ok {
		return nil, false
	}
	return &Dec{buf: b}, true
}

// Names returns the section names in sorted order (diagnostics).
func (r *Reader) Names() []string {
	names := make([]string, 0, len(r.sections))
	for n := range r.sections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Enc appends fixed-width little-endian values to the writer's open
// section. Encoders are obtained from Writer.Section.
type Enc struct {
	w *Writer
}

// U64 appends a uint64.
func (e *Enc) U64(v uint64) { e.w.buf = binary.LittleEndian.AppendUint64(e.w.buf, v) }

// I64 appends an int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.w.buf = binary.LittleEndian.AppendUint32(e.w.buf, v) }

// U8 appends a byte.
func (e *Enc) U8(v uint8) { e.w.buf = append(e.w.buf, v) }

// Bool appends a byte-encoded bool.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// grow extends the buffer by n bytes in one step and returns the window to
// fill — the bulk-array fast path.
func (e *Enc) grow(n int) []byte {
	buf := e.w.buf
	if cap(buf)-len(buf) < n {
		nb := make([]byte, len(buf), max(2*cap(buf), len(buf)+n))
		copy(nb, buf)
		buf = nb
	}
	e.w.buf = buf[:len(buf)+n]
	return e.w.buf[len(buf):]
}

// U64s appends a length-prefixed uint64 array as one contiguous write.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	dst := e.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], x)
	}
}

// Dec reads fixed-width little-endian values from a section. Reads past the
// end latch an error and return zero values; check Err once after decoding
// a group of fields.
type Dec struct {
	buf []byte
	off int
	err error
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: section read past end (off %d + %d > %d)", ErrCorrupt, d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte-encoded bool.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U64s reads a length-prefixed uint64 array written by Enc.U64s into dst.
// A length mismatch with len(dst) latches ErrCorrupt and leaves dst
// untouched.
func (d *Dec) U64s(dst []uint64) {
	n := int(d.U32())
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.err = fmt.Errorf("%w: array length %d, want %d", ErrCorrupt, n, len(dst))
		return
	}
	b := d.take(8 * n)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Err returns the first decode error (nil if all reads were in bounds).
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes (diagnostics and
// end-of-section assertions).
func (d *Dec) Remaining() int { return len(d.buf) - d.off }
