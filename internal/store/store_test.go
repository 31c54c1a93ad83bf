package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dap/internal/faultinject"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openT(t)
	key := "fp-abc|mcf|seed=0"
	payload := []byte(`{"ipc":1.25}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put, 0 corrupt", st)
	}
}

func TestOverwriteIsAtomicAndLastWins(t *testing.T) {
	s := openT(t)
	key := "k"
	for i := 0; i < 10; i++ {
		if err := s.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "v9" {
		t.Fatalf("Get = %q, %v; want v9", got, ok)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d; want 1 (overwrites share a file)", n)
	}
}

// entryFile finds the single .res file of a one-entry store.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".res") {
			return filepath.Join(s.Dir(), e.Name())
		}
	}
	t.Fatal("no .res entry found")
	return ""
}

func TestTornEntryIsMissAndQuarantined(t *testing.T) {
	s := openT(t)
	if err := s.Put("k", []byte("some result payload bytes")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s)
	// Tear the tail off, as a crash mid-write (without the atomic-rename
	// discipline) would.
	if err := faultinject.TruncateTail(path, 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("torn entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d; want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn entry not quarantined: stat err = %v", err)
	}
	// The slot is rewritable after quarantine.
	if err := s.Put("k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "fresh" {
		t.Fatalf("rewrite after quarantine: Get = %q, %v", got, ok)
	}
}

func TestCorruptPayloadIsMiss(t *testing.T) {
	s := openT(t)
	if err := s.Put("k", []byte("some result payload bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the payload (the header survives, the checksum fails).
	if err := faultinject.FlipByte(entryFile(t, s), -3); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d; want 1", st.Corrupt)
	}
}

func TestCorruptHeaderIsMiss(t *testing.T) {
	s := openT(t)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(entryFile(t, s), 0); err != nil { // magic byte
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("bad-magic entry served as a hit")
	}
}

func TestHasDoesNotCount(t *testing.T) {
	s := openT(t)
	if s.Has("k") {
		t.Fatal("Has on empty store")
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !s.Has("k") {
		t.Fatal("Has missed a valid entry")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Has counted lookups: %+v", st)
	}
}

func TestKeysSortedAndSkipCorrupt(t *testing.T) {
	s := openT(t)
	for _, k := range []string{"b", "a", "c"} {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	want := []string{"a", "b", "c"}
	if len(keys) != 3 || keys[0] != want[0] || keys[1] != want[1] || keys[2] != want[2] {
		t.Fatalf("Keys = %v; want %v", keys, want)
	}
}

func TestKeyRecordedExactlyNotJustFilename(t *testing.T) {
	s := openT(t)
	// Two keys that sanitize to the same filename prefix must not collide.
	k1, k2 := "mix|a", "mixـa" // non-ASCII maps to the same '_' as '|'
	if sanitizeName(k1, 48) != sanitizeName(k2, 48) {
		t.Skip("keys no longer share a sanitized prefix")
	}
	if err := s.Put(k1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	g1, ok1 := s.Get(k1)
	g2, ok2 := s.Get(k2)
	if !ok1 || !ok2 || string(g1) != "one" || string(g2) != "two" {
		t.Fatalf("prefix-colliding keys mixed up: %q/%v %q/%v", g1, ok1, g2, ok2)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i%8) // contended: 4 writers per key
			val := []byte(fmt.Sprintf("val-%d", i%8))
			if err := s.Put(key, val); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Errorf("Get %s = %q, %v; want %q", key, got, ok, val)
			}
		}(i)
	}
	wg.Wait()
	if n := s.Len(); n != 8 {
		t.Fatalf("Len = %d; want 8", n)
	}
}

func TestEnvelopeRejectsTamper(t *testing.T) {
	enc := encodeEnvelope("t", []byte("hello"))
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, _, err := decodeEnvelope(bad); err == nil {
			// A flip inside the escaped tag may still parse; the tag then
			// differs, which callers treat as a mismatch. Anything else must
			// fail outright.
			if _, tag, _ := decodeEnvelope(bad); tag == "t" {
				t.Fatalf("flip at byte %d went undetected", i)
			}
		}
	}
}
