// Package store is a crash-consistent on-disk result store keyed by
// arbitrary strings (the sweep service keys results by config fingerprint
// × workload × seed, and persists its sweep specs in a second store).
//
// Every entry is one file written with a torn-write-safe discipline (see
// writeFileAtomic): payload bytes behind a checksummed envelope, staged in
// a temp file, fsynced, and atomically renamed into place. A reader therefore observes either the previous
// complete entry or the new complete entry, never a mixture; a crash at any
// instruction leaves at most an ignorable temp file. Corrupt or truncated
// entries — a torn envelope, a checksum mismatch, a short payload — are
// detected on open, counted, quarantined (deleted) and reported as misses,
// so one bad block can never poison a resumed sweep: the job is simply
// re-executed and the entry rewritten.
//
// Determinism makes the store safe to share: a key is only ever associated
// with one byte-exact payload, so concurrent writers racing on the same key
// are idempotent and a hit is always interchangeable with re-running the
// job.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dap/internal/telemetry"
)

// Process-wide counters so `-serve` dashboards show cache effectiveness.
var (
	mHits    = telemetry.Default.Counter("store_hits_total", "Result-store lookups served from disk.")
	mMisses  = telemetry.Default.Counter("store_misses_total", "Result-store lookups that found no entry.")
	mCorrupt = telemetry.Default.Counter("store_corrupt_total", "Result-store entries rejected as torn or corrupt and quarantined.")
	mPuts    = telemetry.Default.Counter("store_puts_total", "Result-store entries written.")
)

// hPut is the end-to-end Put latency: staging write + fsync + atomic rename.
var hPut = telemetry.Default.Histogram("store_put_seconds",
	"Result-store Put latency (staging write + fsync + atomic rename).",
	telemetry.DurationBuckets())

// Store is a directory of checksummed result files. All methods are safe
// for concurrent use from any number of goroutines (and, because writes are
// atomic renames, from any number of processes sharing the directory).
type Store struct {
	dir string

	hits, misses, corrupt, puts atomic.Uint64

	// tmpSeq disambiguates concurrent stagings of the same key.
	tmpSeq atomic.Uint64

	mu sync.Mutex // serializes directory listings only
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
		mHits.Inc()
		return payload, true
	case os.IsNotExist(err):
		s.misses.Add(1)
		mMisses.Inc()
		return nil, false
	case err == nil: // hash collision: a different key owns the file
		s.misses.Add(1)
		mMisses.Inc()
		return nil, false
	default:
		// torn or corrupt: quarantine so the slot can be rewritten cleanly
		s.corrupt.Add(1)
		s.misses.Add(1)
		mCorrupt.Inc()
		mMisses.Inc()
		os.Remove(path)
		return nil, false
	}
}

// Has reports whether key resolves to a valid entry without counting a
// hit/miss (the sweep service derives job states with it).
func (s *Store) Has(key string) bool {
	payload, gotKey, err := readFileVerified(s.path(key))
	return err == nil && gotKey == key && payload != nil
}

// Put durably stores payload under key: staged to a temp file, checksummed,
// fsynced and atomically renamed, so a crash mid-Put never leaves a partial
// entry visible.
func (s *Store) Put(key string, payload []byte) error {
	t0 := time.Now()
	tmp := fmt.Sprintf("%s.tmp.%d.%d", s.path(key), os.Getpid(), s.tmpSeq.Add(1))
	if err := writeFileAtomic(tmp, s.path(key), key, payload); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	mPuts.Inc()
	hPut.ObserveSince(t0)
	return nil
}

// Keys lists every valid entry's key, sorted. Corrupt files are skipped
// (and left for Get to quarantine).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var keys []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".res") {
			continue
		}
		if _, key, err := readFileVerified(filepath.Join(s.dir, e.Name())); err == nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of valid entries.
func (s *Store) Len() int { return len(s.Keys()) }

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
