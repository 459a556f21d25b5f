package goldenstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(b byte) Key {
	var k Key
	k.Program[0] = b
	k.Seed = uint64(b) + 7
	k.Budget = int64(b) * 1000
	k.Tap = b % 3
	k.Settle = int64(b%2) * 3e9
	k.Bypass = b%4 == 3
	return k
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store served an entry")
	}
	payload := []byte("golden payload bytes")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	st := s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

func TestStoreReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 5; b++ {
		if err := s1.Put(testKey(b), []byte{b, b, b}); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process: a new Store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	for b := byte(1); b <= 5; b++ {
		got, ok := s2.Get(testKey(b))
		if !ok || !bytes.Equal(got, []byte{b, b, b}) {
			t.Fatalf("reopened Get(%d) = %q, %v", b, got, ok)
		}
	}
}

func TestStoreKeyEncodingInverts(t *testing.T) {
	for b := byte(0); b < 8; b++ {
		k := testKey(b)
		got, ok := parseFilename(k.filename())
		if !ok || got != k {
			t.Fatalf("parseFilename(%q) = %+v, %v; want original key", k.filename(), got, ok)
		}
	}
	if _, ok := parseFilename("garbage.golden"); ok {
		t.Error("foreign file parsed as a key")
	}
	// Only the canonical spelling of a key is its entry: an upper-case
	// name, or a bypass byte other than 0 or 1, is a foreign file.
	name := testKey(3).filename()
	for _, foreign := range []string{
		strings.ToUpper(name[:len(name)-len(".golden")]) + ".golden",
		name[:len(name)-len("01.golden")] + "02.golden",
		name[:len(name)-len(".golden")],
	} {
		if _, ok := parseFilename(foreign); ok {
			t.Errorf("non-canonical name %q parsed as a key", foreign)
		}
	}
}

// TestStoreCorruptEntryIsMiss covers the corruption policy: flipped
// payload bytes, truncation, a stale format version, and a wrong key
// under the right filename all read as misses — never errors — and a
// rewrite heals the entry.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	k := testKey(3)
	payload := []byte("the one true golden")
	corruptions := map[string]func([]byte) []byte{
		"flipped-payload-byte": func(b []byte) []byte {
			b[headerLen] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"stale-format-version": func(b []byte) []byte {
			b[4] = 0xfe
			return b
		},
		"bad-magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k.filename())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if st := s.StatsSnapshot(); st.Corrupt != 1 {
				t.Errorf("corruption not counted: %+v", st)
			}
			// The healing path: a fresh Put overwrites and serves again.
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry not served: %q, %v", got, ok)
			}
		})
	}
}

func TestStoreWrongKeyUnderFilename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey(1), testKey(2)
	if err := s.Put(a, []byte("A")); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry onto b's filename: the embedded key must reject it.
	blob, err := os.ReadFile(filepath.Join(dir, a.filename()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, b.filename()), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("entry with mismatched embedded key was served")
	}
}

// TestStoreConcurrentReadersAndWriters exercises the store under -race:
// many goroutines reading and writing overlapping keys must never see a
// torn or foreign payload.
func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	payload := func(b byte) []byte {
		return bytes.Repeat([]byte{b}, 256)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := byte((g + i) % keys)
				if g%2 == 0 {
					if err := s.Put(testKey(b), payload(b)); err != nil {
						t.Error(err)
						return
					}
				}
				if got, ok := s.Get(testKey(b)); ok && !bytes.Equal(got, payload(b)) {
					t.Errorf("key %d served foreign payload", b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreRebuildAtomic: a prune drops filtered and corrupt entries in
// place, survivors keep serving, and reopening sees exactly the pruned
// set.
func TestStoreRebuildAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 6; b++ {
		if err := s.Put(testKey(b), []byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt entry 6 in place; the prune must drop it.
	path := filepath.Join(dir, testKey(6).filename())
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Keep even keys only.
	if err := s.Prune(func(k Key, _ []byte) bool { return k.Program[0]%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	wantLive := map[byte]bool{2: true, 4: true}
	for b := byte(1); b <= 6; b++ {
		_, ok := s.Get(testKey(b))
		if ok != wantLive[b] {
			t.Errorf("after prune, key %d present=%v, want %v", b, ok, wantLive[b])
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("reopened Len = %d, want 2", s2.Len())
	}
}

// TestStorePruneUnderReaders: readers racing a prune always get either
// the old or the new truth for every key, never an error or a foreign
// payload.
func TestStorePruneUnderReaders(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	for b := byte(0); b < keys; b++ {
		if err := s.Put(testKey(b), []byte{b, b}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for b := byte(0); b < keys; b++ {
					if got, ok := s.Get(testKey(b)); ok && !bytes.Equal(got, []byte{b, b}) {
						t.Errorf("key %d served foreign payload %q", b, got)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := s.Prune(nil); err != nil {
			t.Error(err)
		}
	}
	// The last prune drops half the keys under the readers.
	if err := s.Prune(func(k Key, _ []byte) bool { return k.Program[0]%2 == 0 }); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if s.Len() != keys/2 {
		t.Errorf("Len = %d after pruning odd keys, want %d", s.Len(), keys/2)
	}
}

// TestStoreSharedDirectory: two stores opened on one directory, as two
// workers sharing -golden-store, serve each other's entries, and a prune
// through one leaves the other working.
func TestStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(testKey(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get(testKey(1)); !ok || string(got) != "one" {
		t.Fatalf("B's Get of an entry A wrote after B opened = %q, %v; want \"one\", true", got, ok)
	}

	// A prunes an unkept entry, a corrupt entry and a crashed writer's
	// temp file; a file that is neither entry nor temp file stays.
	for k := byte(2); k <= 3; k++ {
		if err := a.Put(testKey(k), []byte{k}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(testKey(3).filename(), "rotten")
	write(".put-x", "torn")
	write("notes.txt", "operator notes")
	if err := a.Prune(func(k Key, _ []byte) bool { return k != testKey(2) }); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{
		testKey(1).filename(): true,
		testKey(2).filename(): false,
		testKey(3).filename(): false,
		".put-x":              false,
		"notes.txt":           true,
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != want {
			t.Errorf("after prune, %s present=%v, want %v", name, err == nil, want)
		}
	}

	// B's Put and Get still work after A's prune, and A sees B's entry.
	if err := b.Put(testKey(4), []byte("four")); err != nil {
		t.Fatalf("B's Put after A's prune: %v", err)
	}
	for _, s := range []*Store{a, b} {
		for k, want := range map[byte]string{1: "one", 4: "four"} {
			if got, ok := s.Get(testKey(k)); !ok || string(got) != want {
				t.Errorf("Get(%d) after prune = %q, %v; want %q", k, got, ok, want)
			}
		}
	}
}
