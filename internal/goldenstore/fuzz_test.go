package goldenstore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEntry writes arbitrary bytes over an entry file. Whatever
// they are, Get must answer a miss or exactly the payload that was Put:
// a damaged entry can only ever cost a re-simulation. The payload is a
// real encoded Table II golden (testdata/tableii-golden.payload, cut to
// its first 16 windows and deposits); the committed seeds are its entry
// file, the same payload framed under another key, and a torn copy.
func FuzzStoreEntry(f *testing.F) {
	payload, err := os.ReadFile(filepath.Join("testdata", "tableii-golden.payload"))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := Key{Program: sha256.Sum256([]byte("table2-grid golden")), Seed: 1, Budget: 3600e9}
	if err := s.Put(key, payload); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, key.filename())
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
			t.Fatalf("Get served %d bytes that were never Put", len(got))
		}
	})
}
