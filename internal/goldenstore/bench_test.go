package goldenstore

import (
	"math/rand/v2"
	"testing"
)

// benchPayloadSize is about the size of a Table II golden entry's
// payload (full capture of the test part, ≈311 KiB).
const benchPayloadSize = 311 << 10

// benchPayload returns benchPayloadSize pseudo-random bytes.
func benchPayload() []byte {
	rng := rand.New(rand.NewPCG(1, 2))
	p := make([]byte, benchPayloadSize)
	for i := range p {
		p[i] = byte(rng.Uint32())
	}
	return p
}

// BenchmarkStoreGet measures a lookup that the store serves — a file
// read with header, key and checksum checks — and one that misses, a
// failed open.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	if err := s.Put(testKey(1), payload); err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for range b.N {
			if _, ok := s.Get(testKey(1)); !ok {
				b.Fatal("stored entry missed")
			}
		}
	})
	b.Run("absent", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, ok := s.Get(testKey(2)); ok {
				b.Fatal("absent key hit")
			}
		}
	})
}

// BenchmarkStorePut measures an atomic entry write (temp file, fsync,
// rename) of a new key.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := range b.N {
		k := testKey(1)
		k.Seed = uint64(i)
		if err := s.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
}
