package offramps

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/fpga"
)

// goldenResultForTest simulates the golden print on the rig scenario
// rig describes (its Tap, Settle and Bypass) and returns its result.
func goldenResultForTest(t *testing.T, mode CaptureMode, rig Scenario) *Result {
	t.Helper()
	rig.Name, rig.Program, rig.Seed = "golden", mustTestPart(t), 5
	results, err := Campaign{Workers: 1, CaptureMode: mode}.Run(context.Background(), []Scenario{rig})
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	return results[0].Result
}

// TestGoldenCodecRoundTrip: encode→decode over a real simulated golden is
// indistinguishable from the original — reflect.DeepEqual down to the
// unexported fingerprint state — in both capture modes and on the rigs
// the cache memoizes besides the default: a bypassed board (no capture
// at all) and a dual tap (two captures, the primary aliasing one).
func TestGoldenCodecRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name string
		mode CaptureMode
		rig  Scenario
	}{
		{CaptureFull.String(), CaptureFull, Scenario{}},
		{CaptureFingerprint.String(), CaptureFingerprint, Scenario{}},
		{"bypass", CaptureFull, Scenario{Bypass: true}},
		{"dual-tap", CaptureFull, Scenario{Tap: fpga.TapDual}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := goldenResultForTest(t, c.mode, c.rig)
			enc, err := encodeGoldenResult(res)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := decodeGoldenResult(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, dec) {
				t.Errorf("decoded golden differs from original:\n orig %+v\n dec  %+v", res, dec)
			}
			// Encoding is deterministic: same result, same bytes.
			enc2, err := encodeGoldenResult(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(enc, enc2) {
				t.Error("re-encoding the decoded result produced different bytes")
			}
		})
	}
}

// TestGoldenCodecPreservesAliasing: when a per-side view shares the
// primary recording/fingerprint object, the decoded result must share it
// too — consumers compare these by pointer.
func TestGoldenCodecPreservesAliasing(t *testing.T) {
	res := goldenResultForTest(t, CaptureFull, Scenario{})
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGoldenResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if (res.ArduinoRecording == res.Recording) != (dec.ArduinoRecording == dec.Recording) {
		t.Error("arduino recording aliasing not preserved")
	}
	if (res.RAMPSRecording == res.Recording) != (dec.RAMPSRecording == dec.Recording) {
		t.Error("ramps recording aliasing not preserved")
	}
	if (res.ArduinoFingerprint == res.Fingerprint) != (dec.ArduinoFingerprint == dec.Fingerprint) {
		t.Error("arduino fingerprint aliasing not preserved")
	}
	if (res.RAMPSFingerprint == res.Fingerprint) != (dec.RAMPSFingerprint == dec.Fingerprint) {
		t.Error("ramps fingerprint aliasing not preserved")
	}
}

// TestGoldenCodecFingerprintStaysLive: a decoded fingerprint must keep
// accepting Adds with correct delta accounting (the unexported previous-
// window counters are rehydrated, not zeroed).
func TestGoldenCodecFingerprintStaysLive(t *testing.T) {
	res := goldenResultForTest(t, CaptureFingerprint, Scenario{})
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGoldenResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	live, decoded := *res.Fingerprint, *dec.Fingerprint
	next := capture.Transaction{Index: uint32(live.Windows), X: 12345, Y: -7, Z: 99, E: 100000}
	live.Add(next)
	decoded.Add(next)
	if !live.Equal(&decoded) {
		t.Errorf("decoded fingerprint diverged after Add:\n live %v\n dec  %v", &live, &decoded)
	}
	if live.Axes != decoded.Axes {
		t.Errorf("axis summaries diverged after Add: %v vs %v", live.Axes, decoded.Axes)
	}
}

// TestGoldenCodecRejectsNonGolden: shapes the cache never memoizes —
// halts, aborts, detections — refuse to encode rather than persisting a
// lie.
func TestGoldenCodecRejectsNonGolden(t *testing.T) {
	cases := map[string]*Result{
		"nil":         nil,
		"halt-error":  {HaltError: fmt.Errorf("boom")},
		"aborted":     {Aborted: true},
		"aborted-at":  {AbortedAt: 1},
		"trip-reason": {TripReason: "thermal"},
		"detections":  {Detections: []*detect.Report{{}}},
		"trojan-flag": {TrojanLikely: true},
	}
	for name, res := range cases {
		if _, err := encodeGoldenResult(res); err == nil {
			t.Errorf("%s: non-golden result encoded without error", name)
		}
	}
}

// TestGoldenCodecRejectsMalformed: truncation prefixes, trailing
// garbage, and a foreign version must decode to an error, never a
// half-filled result. Every prefix of the fixed-width header region is
// tried; the long digest/deposit tail is sampled with a prime stride so
// the quadratic sweep stays fast under -race.
func TestGoldenCodecRejectsMalformed(t *testing.T) {
	res := goldenResultForTest(t, CaptureFingerprint, Scenario{})
	enc, err := encodeGoldenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cuts := make([]int, 0, 2048)
	for i := 0; i < len(enc) && i < 1024; i++ {
		cuts = append(cuts, i)
	}
	for i := 1024; i < len(enc); i += 257 {
		cuts = append(cuts, i)
	}
	for i := len(enc) - 64; i < len(enc); i++ {
		if i >= 1024 {
			cuts = append(cuts, i)
		}
	}
	for _, i := range cuts {
		if _, err := decodeGoldenResult(enc[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(enc))
		}
	}
	if _, err := decodeGoldenResult(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	bad := append([]byte{}, enc...)
	bad[0] ^= 0xff // version word
	if _, err := decodeGoldenResult(bad); err == nil {
		t.Error("foreign codec version decoded without error")
	}
}
