package ckpt

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	e := w.Section("alpha")
	e.U64(0xdeadbeefcafef00d)
	e.I64(-42)
	e.U32(7)
	e.U8(200)
	e.Bool(true)
	e.Bool(false)
	e.U64s([]uint64{1, 1 << 63, 0xfeedface})
	w.Section("beta").U64(99)

	blob := w.Bytes()
	r, err := NewReader(blob)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, ok := r.Section("alpha")
	if !ok {
		t.Fatal("missing section alpha")
	}
	if got := d.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	words := make([]uint64, 3)
	if d.U64s(words); words[0] != 1 || words[1] != 1<<63 || words[2] != 0xfeedface {
		t.Errorf("U64s = %#x", words)
	}
	if d.Err() != nil {
		t.Fatalf("decode err: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
	if b, ok := r.Section("beta"); !ok || b.U64() != 99 {
		t.Error("section beta lost")
	}
	if _, ok := r.Section("gamma"); ok {
		t.Error("phantom section gamma")
	}
}

func TestCorruptionDetected(t *testing.T) {
	w := NewWriter()
	w.Section("s").U64(12345)
	blob := w.Bytes()

	// Flip a byte anywhere: checksum must catch it.
	for _, off := range []int{0, len(Magic) + 1, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := NewReader(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Truncation.
	for _, n := range []int{0, 3, len(blob) - 1} {
		if _, err := NewReader(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncate to %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestOverreadLatchesError(t *testing.T) {
	w := NewWriter()
	w.Section("s").U32(1)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Section("s")
	d.U32()
	if d.U64() != 0 {
		t.Error("overread returned nonzero")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", d.Err())
	}
}
