package ckpt

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
)

// snapshotSeed renders a realistic envelope through the production Writer:
// the two sections a sectored warmup checkpoint holds, in the shapes the
// simulator actually serializes (scalar runs and bulk uint64 arrays), so the
// fuzzer starts from the real wire format rather than having to discover
// it.
func snapshotSeed() []byte {
	w := NewWriter()
	e := w.Section("cpu")
	e.U32(8)
	for i := 0; i < 16; i++ {
		e.U64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	for i := 0; i < 4; i++ {
		e.I64(int64(i) - 2)
	}
	e.Bool(true)

	e = w.Section("ctrl.sectored")
	e.U32(64)
	e.U32(4)
	e.U8(1)
	tv := make([]uint64, 128)
	for i := range tv {
		tv[i] = uint64(i)<<1 | 1
	}
	e.U64s(tv)
	e.Bool(false)
	e.U64s(tv[:32])
	return w.Bytes()
}

// resum rewrites the trailing FNV-64a checksum so a mutated body still
// passes the integrity gate — the fuzzer cannot solve the hash itself, and
// without this every mutation would stop at "checksum mismatch" instead of
// exercising the structural parser behind it.
func resum(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	out := append([]byte(nil), data...)
	h := fnv.New64a()
	h.Write(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// FuzzDecEnvelope feeds arbitrary (and arbitrarily damaged) envelopes to
// the checkpoint reader and then drives every decoder read pattern over
// whatever sections survive parsing. The contract under test: no input may
// panic, and every rejection must wrap ErrCorrupt. fixSum selects whether
// the harness repairs the trailing checksum first, so both the integrity
// gate and the structural parser behind it see mutated input.
func FuzzDecEnvelope(f *testing.F) {
	blob := snapshotSeed()
	f.Add(blob, false)
	f.Add(blob, true)
	f.Add([]byte{}, false)
	f.Add(blob[:len(blob)/2], true)               // truncated mid-section
	f.Add(blob[:headerLen+8], true)               // header only
	f.Add(append([]byte(nil), blob[8:]...), true) // beheaded

	flip := append([]byte(nil), blob...)
	flip[len(flip)/3] ^= 0x40 // bit-flip without checksum repair
	f.Add(flip, false)
	f.Add(flip, true) // bit-flip with a valid checksum over the damage

	f.Fuzz(func(t *testing.T, data []byte, fixSum bool) {
		if fixSum {
			data = resum(data)
		}
		r, err := NewReader(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// A parsed envelope must tolerate any read pattern: reads past a
		// section's end or with mismatched array lengths must latch an
		// ErrCorrupt-wrapping error, never panic, and keep returning zero
		// values afterwards.
		for _, name := range r.Names() {
			d, ok := r.Section(name)
			if !ok {
				t.Fatalf("section %q listed but not retrievable", name)
			}
			d.U64()
			d.U32()
			d.U64s(make([]uint64, 4))
			d.I64()
			d.U8()
			d.Bool()
			for d.Remaining() > 0 && d.Err() == nil {
				d.U64()
			}
			if err := d.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("section %q decode error does not wrap ErrCorrupt: %v", name, err)
			}
			if _, ok := r.Section("no-such-section"); ok {
				t.Fatal("missing section reported present")
			}
		}
	})
}
