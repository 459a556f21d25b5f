package offramps

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeGoldenResult feeds arbitrary payloads to the golden codec,
// the parser behind every golden-store hit. A payload either fails to
// decode or decodes to a Result that re-encodes to exactly the payload:
// the decoder accepts only what the encoder writes. It never panics,
// and no length field makes it allocate much beyond the input. The
// committed seeds (testdata/fuzz/FuzzDecodeGoldenResult) are real
// encoded Table II results at seed 1, the golden in full capture and
// flaw3d-1 in fingerprint mode, with the capture and deposit ledgers
// cut to their first 16 entries so the fuzzer mutates the framing.
func FuzzDecodeGoldenResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := decodeGoldenResult(payload)
		runtime.ReadMemStats(&after)
		// A decoded ledger is no larger in memory than on the wire, and
		// append growth at most doubles it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(payload))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		enc, err := encodeGoldenResult(res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("re-encoding differs from the payload (%d vs %d bytes)", len(enc), len(payload))
		}
	})
}
