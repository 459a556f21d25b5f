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
	"strings"
	"sync"
)

// FormatVersion is the store's on-disk entry framing version. It covers
// the header layout and the key's canonical bytes (and so the file
// names); the payload codec versions itself.
const FormatVersion = 2

// Key content-addresses one golden run. It mirrors the simulation key
// of the in-memory cache: the program's content hash, the time-noise
// seed, the effective run budget, and the rig — the board's tap side,
// the post-run settle time, and whether the board is bypassed (zero
// values are the paper's rig). A golden is always a full capture, so
// the key carries no capture mode.
type Key struct {
	Program [32]byte
	Seed    uint64
	Budget  int64
	Tap     uint8
	Settle  int64
	Bypass  bool
}

const keyLen = 32 + 8 + 8 + 1 + 8 + 1

// bytes is the key's canonical binary form, which the entry header
// embeds and the file name spells out in hex.
func (k Key) bytes() []byte {
	b := make([]byte, keyLen)
	copy(b, k.Program[:])
	binary.LittleEndian.PutUint64(b[32:], k.Seed)
	binary.LittleEndian.PutUint64(b[40:], uint64(k.Budget))
	b[48] = k.Tap
	binary.LittleEndian.PutUint64(b[49:], uint64(k.Settle))
	if k.Bypass {
		b[57] = 1
	}
	return b
}

// filename is the key's content-addressed file name: the hex of its
// canonical bytes, so it is exact and collision-free.
func (k Key) filename() string { return hex.EncodeToString(k.bytes()) + ".golden" }

// parseFilename inverts filename; ok is false for foreign files and
// for names that are not the canonical spelling of their key.
func parseFilename(name string) (Key, bool) {
	raw, err := hex.DecodeString(strings.TrimSuffix(name, ".golden"))
	if err != nil || len(raw) != keyLen {
		return Key{}, false
	}
	k := Key{
		Program: [32]byte(raw[:32]),
		Seed:    binary.LittleEndian.Uint64(raw[32:]),
		Budget:  int64(binary.LittleEndian.Uint64(raw[40:])),
		Tap:     raw[48],
		Settle:  int64(binary.LittleEndian.Uint64(raw[49:])),
		Bypass:  raw[57] != 0,
	}
	if k.filename() != name {
		return Key{}, false
	}
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
// (nil keeps every servable entry), every temp file a writer left
// behind, and every other *.golden file: the suffix is the store's, so
// a name it does not parse is an older layout's entry. Files the store
// never names are never touched. A reader racing Prune sees a verified
// entry or a miss; a Put racing it may fail, which costs that writer's
// entry and nothing else.
func (s *Store) Prune(keep func(Key, []byte) bool) error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("goldenstore: prune: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		k, entry := parseFilename(name)
		if e.IsDir() || !strings.HasSuffix(name, ".golden") && !strings.HasPrefix(name, tempPrefix) {
			continue // not the store's file
		}
		path := filepath.Join(s.dir, name)
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
