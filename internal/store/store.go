// Package store is a crash-consistent on-disk result store keyed by
// arbitrary strings. Warmup checkpoints persist through it (see
// harness.NewCheckpoints), keyed by WarmKey.
//
// Every entry is one file written with a torn-write-safe discipline (see
// writeFileAtomic): payload bytes behind a checksummed envelope, staged in
// a temp file, fsynced, and atomically renamed into place. A reader
// therefore observes either the previous complete entry or the new complete
// entry, never a mixture; a crash at any instruction leaves at most an
// ignorable temp file. Corrupt or truncated entries — a torn envelope, a
// checksum mismatch, a short payload — are detected on read, counted,
// quarantined (deleted) and reported as misses, so one bad block can never
// poison a later run: the entry is simply rebuilt and rewritten.
//
// Determinism makes the store safe to share: a key is only ever associated
// with one byte-exact payload, so concurrent writers racing on the same key
// are idempotent and a hit is always interchangeable with recomputing it.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Store is a directory of checksummed result files. All methods are safe
// for concurrent use from any number of goroutines (and, because writes are
// atomic renames, from any number of processes sharing the directory).
type Store struct {
	dir string

	hits, misses, corrupt, puts atomic.Uint64

	// tmpSeq disambiguates concurrent stagings of the same key.
	tmpSeq atomic.Uint64
}

// Stats is a snapshot of the store's lookup counters.
type Stats struct {
	Hits, Misses, Corrupt, Puts uint64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key onto its entry file. The filename embeds a sanitized
// prefix of the key for human inspection plus the full key's FNV-64a hash
// for uniqueness; the exact key is recorded inside the envelope and
// verified on Get, so a (vanishingly unlikely) hash collision degrades to a
// miss, never to a wrong result.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.res", sanitizeName(key, 48), hashKey(key)))
}

// Get returns the payload stored under key. A missing entry returns
// (nil, false); a torn or corrupt entry is counted, deleted and also
// returned as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.path(key)
	payload, gotKey, err := readFileVerified(path)
	switch {
	case err == nil && gotKey == key:
		s.hits.Add(1)
		return payload, true
	case os.IsNotExist(err), err == nil: // absent, or a different key owns the file (hash collision)
		s.misses.Add(1)
		return nil, false
	default:
		// torn or corrupt: quarantine so the slot can be rewritten cleanly
		s.corrupt.Add(1)
		s.misses.Add(1)
		os.Remove(path)
		return nil, false
	}
}

// Put durably stores payload under key: staged to a temp file, checksummed,
// fsynced and atomically renamed, so a crash mid-Put never leaves a partial
// entry visible.
func (s *Store) Put(key string, payload []byte) error {
	tmp := fmt.Sprintf("%s.tmp.%d.%d", s.path(key), os.Getpid(), s.tmpSeq.Add(1))
	if err := writeFileAtomic(tmp, s.path(key), key, payload); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Stats returns the store's counter snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
	}
}

// sanitizeName maps a key onto a filesystem-safe prefix of at most max
// bytes.
func sanitizeName(key string, max int) string {
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= max {
			break
		}
	}
	if b.Len() == 0 {
		return "entry"
	}
	return b.String()
}
