package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
)

// magic identifies (and versions) the checksummed file envelope of every
// store entry.
const magic = "dapstore1"

// ErrCorrupt marks a file that exists but fails envelope verification — a
// torn write, a flipped byte, a truncated payload. Callers treat it as
// "entry absent", never as data.
var ErrCorrupt = errors.New("store: corrupt or torn entry")

// encodeEnvelope renders the on-disk format:
//
//	dapstore1 <crc32-ieee of payload, hex> <payload length> <url-escaped tag>\n
//	<payload bytes>
//
// The tag carries the logical key so the file is self-describing; length
// and checksum make truncation and corruption detectable byte-for-byte.
func encodeEnvelope(tag string, payload []byte) []byte {
	header := fmt.Sprintf("%s %08x %d %s\n", magic, crc32.ChecksumIEEE(payload), len(payload), url.QueryEscape(tag))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// decodeEnvelope verifies and strips the envelope, returning the payload
// and tag. Every failure mode — bad magic, short header, length mismatch,
// checksum mismatch — comes back wrapped in ErrCorrupt.
func decodeEnvelope(raw []byte) (payload []byte, tag string, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, "", fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	var gotMagic, escTag string
	var crc uint32
	var n int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s %x %d %s", &gotMagic, &crc, &n, &escTag); err != nil {
		return nil, "", fmt.Errorf("%w: malformed header: %v", ErrCorrupt, err)
	}
	if gotMagic != magic {
		return nil, "", fmt.Errorf("%w: bad magic %q", ErrCorrupt, gotMagic)
	}
	payload = raw[nl+1:]
	if len(payload) != n {
		return nil, "", fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, "", fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	tag, err = url.QueryUnescape(escTag)
	if err != nil {
		return nil, "", fmt.Errorf("%w: bad tag: %v", ErrCorrupt, err)
	}
	return payload, tag, nil
}

// writeFileAtomic durably writes payload (under the checksummed envelope,
// tagged with tag) to path: staged in the temp file tmp, fsynced, renamed
// into place, directory fsynced. A reader — or a post-crash recovery —
// observes either the old complete file or the new complete file.
func writeFileAtomic(tmp, path, tag string, payload []byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(encodeEnvelope(tag, payload))
	serr := f.Sync()
	cerr := f.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			os.Remove(tmp)
			return e
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// readFileVerified reads a file written by writeFileAtomic, verifying the
// envelope. It returns os.ErrNotExist-style errors for absent files and
// ErrCorrupt-wrapped errors for torn or corrupt ones.
func readFileVerified(path string) (payload []byte, tag string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return decodeEnvelope(raw)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Platforms that refuse to sync directories are tolerated: rename ordering
// still guarantees consistency, only durability of the very last operation
// could lag.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best-effort, see above
	return nil
}

// hashKey is the filename hash (FNV-64a) of a store key.
func hashKey(key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}
