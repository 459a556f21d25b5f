// This file implements the store itself; the package documentation
// lives in doc.go.
package goldenstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// FormatVersion is the store's on-disk entry framing version. It covers
// the header layout only; the payload codec versions itself.
const FormatVersion = 1

// Key content-addresses one golden run. It mirrors the in-memory
// cache's key: the program's content hash, the time-noise seed, the run
// budget, and the capture mode (full-trace and fingerprint-only results
// are different shapes and must never satisfy each other's lookups).
type Key struct {
	Program [32]byte
	Seed    uint64
	Budget  int64
	Mode    uint8
}

const keyLen = 32 + 8 + 8 + 1

// bytes is the key's canonical binary form, which the entry header
// embeds.
func (k Key) bytes() []byte {
	b := make([]byte, keyLen)
	copy(b, k.Program[:])
	binary.LittleEndian.PutUint64(b[32:], k.Seed)
	binary.LittleEndian.PutUint64(b[40:], uint64(k.Budget))
	b[48] = k.Mode
	return b
}

// filename is the key's content-addressed file name: readable, exact,
// and collision-free (the full 256-bit program hash is spelled out).
func (k Key) filename() string {
	return fmt.Sprintf("%064x-%016x-%016x-%02x.golden", k.Program, k.Seed, uint64(k.Budget), k.Mode)
}

// parseFilename inverts filename; ok is false for foreign files.
func parseFilename(name string) (Key, bool) {
	const want = 64 + 1 + 16 + 1 + 16 + 1 + 2 + len(".golden")
	if len(name) != want || !strings.HasSuffix(name, ".golden") {
		return Key{}, false
	}
	var k Key
	if _, err := hex.Decode(k.Program[:], []byte(name[:64])); err != nil {
		return Key{}, false
	}
	seed, err1 := strconv.ParseUint(name[65:81], 16, 64)
	budget, err2 := strconv.ParseUint(name[82:98], 16, 64)
	mode, err3 := strconv.ParseUint(name[99:101], 16, 8)
	if err1 != nil || err2 != nil || err3 != nil || name[64] != '-' || name[81] != '-' || name[98] != '-' {
		return Key{}, false
	}
	k.Seed, k.Budget, k.Mode = seed, int64(budget), uint8(mode)
	return k, true
}

// Stats counts the store's traffic since Open.
type Stats struct {
	// Hits is entries served (header, key, and checksum all verified).
	Hits uint64
	// Misses is lookups that found nothing servable; Corrupt of them
	// found a file but rejected it (torn, stale, or checksum-bad —
	// still a miss, by policy).
	Misses  uint64
	Corrupt uint64
	// Puts is entries written.
	Puts uint64
}

// Store is the persistent golden tier: one directory of self-checking
// entries. All methods are safe for concurrent use, and several
// processes may share one directory: every lookup reads the directory,
// so each process serves the entries the others wrote. Writers land
// entries atomically, and identical keys hold identical bytes because
// simulation is deterministic, so last-write-wins is sound.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open opens the store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("goldenstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Len reports the number of entry files in the directory. An unreadable
// directory counts as empty: every Get on it misses too.
func (s *Store) Len() int {
	keys, _ := s.Keys()
	return len(keys)
}

// StatsSnapshot returns the traffic counters so far.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Get returns the payload stored under k, or ok=false on any kind of
// absence: no file, torn file, stale format, key mismatch, checksum
// failure. Absence is never an error — the caller's fallback is a fresh
// simulation, which is always correct.
func (s *Store) Get(k Key) ([]byte, bool) {
	payload, err := readEntry(filepath.Join(s.dir, k.filename()), k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.Misses++
		if !os.IsNotExist(err) {
			s.stats.Corrupt++
		}
		return nil, false
	}
	s.stats.Hits++
	return payload, true
}

// Put stores payload under k, atomically (temp + fsync + rename): a
// concurrent reader in any process sees the full entry or none.
// Overwriting an existing entry is permitted — determinism guarantees
// the bytes match.
func (s *Store) Put(k Key, payload []byte) error {
	if err := writeEntry(s.dir, k, payload); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// Keys lists every entry file in the directory, sorted by file name
// (os.ReadDir's order; deterministic for tests and tooling).
func (s *Store) Keys() ([]Key, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("goldenstore: scan: %w", err)
	}
	var keys []Key
	for _, e := range ents {
		if k, ok := parseFilename(e.Name()); ok && !e.IsDir() {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// Prune garbage-collects the store in place. It removes every entry that
// is unservable (corrupt, stale format) or for which keep returns false
// (nil keeps every servable entry), and every temp file a writer left
// behind. Files whose names are neither entries nor temp files are never
// touched. A reader racing Prune sees a verified entry or a miss; a Put
// racing it may fail, which costs that writer's entry and nothing else.
func (s *Store) Prune(keep func(Key, []byte) bool) error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("goldenstore: prune: %w", err)
	}
	for _, e := range ents {
		k, entry := parseFilename(e.Name())
		if e.IsDir() || !entry && !strings.HasPrefix(e.Name(), tempPrefix) {
			continue // not the store's file
		}
		path := filepath.Join(s.dir, e.Name())
		if entry {
			payload, err := readEntry(path, k)
			if err == nil && (keep == nil || keep(k, payload)) {
				continue
			}
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("goldenstore: prune: %w", err)
		}
	}
	syncDir(s.dir)
	return nil
}

// ---------------------------------------------------------------------------
// Entry framing

var magic = [4]byte{'O', 'F', 'G', 'S'}

const headerLen = 4 + 2 + keyLen + 8 // magic, version, key, payload length

// tempPrefix names a Put's temp file until its rename; one still present
// outside a Put is a crashed writer's, and Prune removes it.
const tempPrefix = ".put-"

// writeEntry lands one entry crash-safely in dir.
func writeEntry(dir string, k Key, payload []byte) error {
	blob := make([]byte, 0, headerLen+len(payload)+sha256.Size)
	blob = append(blob, magic[:]...)
	blob = binary.LittleEndian.AppendUint16(blob, FormatVersion)
	blob = append(blob, k.bytes()...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(payload)))
	blob = append(blob, payload...)
	sum := sha256.Sum256(payload)
	blob = append(blob, sum[:]...)

	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, k.filename())); err != nil {
		return fmt.Errorf("goldenstore: put: %w", err)
	}
	syncDir(dir)
	return nil
}

// readEntry loads and verifies one entry. Every failure mode returns an
// error the caller maps to a miss; fs.ErrNotExist distinguishes plain
// absence from corruption for the stats.
func readEntry(path string, k Key) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(blob) < headerLen+sha256.Size {
		return nil, fmt.Errorf("goldenstore: entry truncated")
	}
	if [4]byte(blob[:4]) != magic {
		return nil, fmt.Errorf("goldenstore: bad magic")
	}
	if v := binary.LittleEndian.Uint16(blob[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("goldenstore: stale format version %d", v)
	}
	if string(blob[6:6+keyLen]) != string(k.bytes()) {
		return nil, fmt.Errorf("goldenstore: entry key mismatch")
	}
	plen := binary.LittleEndian.Uint64(blob[6+keyLen : headerLen])
	if uint64(len(blob)) != headerLen+plen+sha256.Size {
		return nil, fmt.Errorf("goldenstore: entry length mismatch")
	}
	payload := blob[headerLen : headerLen+plen]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(blob[headerLen+plen:]) {
		return nil, fmt.Errorf("goldenstore: checksum mismatch")
	}
	return payload, nil
}

// syncDir makes a rename durable. Directory fsync is unsupported on
// some filesystems; the rename already happened, so failure is advice.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
