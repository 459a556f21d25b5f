package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// The capture-mode, shared-plan, and pooled-core fast paths all make the
// same promise: bit-identical outcomes to the naive path. These tests
// are the promise's enforcement — each one runs both paths and compares
// the observable results byte for byte.

// TestFingerprintEquivalence runs representative scenarios — a clean
// golden-free sweep, a Table II-style trojan print, and a dual-tap
// attestation run — in full and fingerprint mode across ten seeds. The
// two modes must produce identical detector verdicts, identical
// fingerprints (the streaming digest must match the one recomputed from
// the full recording), and identical report JSON.
func TestFingerprintEquivalence(t *testing.T) {
	prog := mustTestPart(t)
	ruleEngine := func(t *testing.T) RunOption {
		re, err := detect.NewRuleEngine(detect.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		return WithDetectorAt(BindPrimary, re, FlagOnly)
	}
	attestor := func(t *testing.T) RunOption {
		att, err := detect.NewAttestation(detect.DefaultAttestationConfig())
		if err != nil {
			t.Fatal(err)
		}
		return WithDetectorAt(BindDual, att, FlagOnly)
	}
	// opts is a factory: trojans are stateful, so each run needs its own.
	cases := []struct {
		name     string
		opts     func() []Option
		detector func(t *testing.T) RunOption
	}{
		{"clean-ruleengine", func() []Option { return nil }, ruleEngine},
		{"t2-ruleengine", func() []Option {
			return []Option{WithTrojan(trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5}))}
		}, ruleEngine},
		{"dual-attestation", func() []Option { return []Option{WithTapSide(fpga.TapDual)} }, attestor},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 10; seed++ {
				run := func(mode CaptureMode) *Result {
					tb, err := NewTestbed(append([]Option{WithSeed(seed)}, tc.opts()...)...)
					if err != nil {
						t.Fatal(err)
					}
					res, err := tb.Run(context.Background(), prog, WithCaptureMode(mode), tc.detector(t))
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, mode, err)
					}
					return res
				}
				full := run(CaptureFull)
				fp := run(CaptureFingerprint)

				if full.Recording == nil || full.Recording.Len() == 0 {
					t.Fatalf("seed %d: full mode produced no recording", seed)
				}
				if fp.Recording != nil || fp.ArduinoRecording != nil || fp.RAMPSRecording != nil {
					t.Fatalf("seed %d: fingerprint mode materialized a recording", seed)
				}

				if len(full.Detections) != len(fp.Detections) {
					t.Fatalf("seed %d: detection counts differ: %d vs %d", seed, len(full.Detections), len(fp.Detections))
				}
				for i := range full.Detections {
					fj, _ := json.Marshal(full.Detections[i])
					pj, _ := json.Marshal(fp.Detections[i])
					if !bytes.Equal(fj, pj) {
						t.Errorf("seed %d detector %d: reports differ:\nfull: %s\nfp:   %s", seed, i, fj, pj)
					}
				}
				if full.TrojanLikely != fp.TrojanLikely {
					t.Errorf("seed %d: verdicts differ: full=%v fp=%v", seed, full.TrojanLikely, fp.TrojanLikely)
				}

				pairs := []struct {
					rec *capture.Recording
					fpr *capture.Fingerprint
				}{
					{full.Recording, fp.Fingerprint},
					{full.ArduinoRecording, fp.ArduinoFingerprint},
					{full.RAMPSRecording, fp.RAMPSFingerprint},
				}
				for i, p := range pairs {
					if (p.rec == nil) != (p.fpr == nil) {
						t.Fatalf("seed %d tap %d: recording/fingerprint presence mismatch", seed, i)
					}
					if p.rec == nil {
						continue
					}
					want := capture.FingerprintOf(p.rec)
					if !p.fpr.Equal(&want) {
						t.Errorf("seed %d tap %d: streamed fingerprint differs from recomputed:\nstreamed: %v\nrecorded: %v",
							seed, i, p.fpr, want)
					}
				}

				fj, err := json.Marshal(full)
				if err != nil {
					t.Fatal(err)
				}
				pj, err := json.Marshal(fp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fj, pj) {
					t.Errorf("seed %d: report JSON differs between modes:\nfull: %s\nfp:   %s", seed, fj, pj)
				}
			}
		})
	}
}

// TestCompiledPlanIdentity: simulating from a pre-compiled move plan
// must be byte-identical to the live interpreter — same transactions,
// same report JSON — on every rig a campaign runs from a plan: the
// default tap, a RAMPS and a dual tap, T7 with its 60 s settle, and the
// bypassed board.
func TestCompiledPlanIdentity(t *testing.T) {
	prog := mustTestPart(t)
	compiled, err := firmware.Compile(prog, firmware.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// opts is a factory: trojans are stateful, so each run needs its own.
	cases := []struct {
		name string
		opts func() []Option
	}{
		{"arduino-tap", func() []Option { return nil }},
		{"ramps-tap", func() []Option { return []Option{WithTapSide(fpga.TapRAMPS)} }},
		{"dual-tap", func() []Option { return []Option{WithTapSide(fpga.TapDual)} }},
		{"t7-settle", func() []Option {
			t7, err := trojan.Build("T7", nil, 5)
			if err != nil {
				panic(err)
			}
			return []Option{WithTrojan(t7), WithSettle(60 * sim.Second)}
		}},
		{"bypass", func() []Option { return []Option{WithoutMITM()} }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(extra ...RunOption) *Result {
				tb, err := NewTestbed(append([]Option{WithSeed(5)}, tc.opts()...)...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tb.Run(context.Background(), prog, extra...)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			interp := run()
			planned := run(withCompiled(compiled))

			for _, side := range []struct {
				name    string
				interp  *capture.Recording
				planned *capture.Recording
			}{
				{"arduino", interp.ArduinoRecording, planned.ArduinoRecording},
				{"ramps", interp.RAMPSRecording, planned.RAMPSRecording},
			} {
				if (side.interp == nil) != (side.planned == nil) {
					t.Fatalf("%s capture present in one run only", side.name)
				}
				if side.interp == nil {
					continue
				}
				if side.interp.Len() != side.planned.Len() {
					t.Fatalf("%s window counts differ: %d vs %d", side.name, side.interp.Len(), side.planned.Len())
				}
				for i := range side.interp.Transactions {
					if side.interp.Transactions[i] != side.planned.Transactions[i] {
						t.Fatalf("%s window %d differs: %+v vs %+v", side.name, i,
							side.interp.Transactions[i], side.planned.Transactions[i])
					}
				}
			}
			ij, _ := json.Marshal(interp)
			pj, _ := json.Marshal(planned)
			if !bytes.Equal(ij, pj) {
				t.Errorf("report JSON differs between interpreter and plan:\ninterp: %s\nplan:   %s", ij, pj)
			}
		})
	}
}

// TestCoreReuseIdentity: a testbed built on a pooled core that already
// hosted other runs (including reclaimed buffers) must reproduce a fresh
// testbed's result byte for byte.
func TestCoreReuseIdentity(t *testing.T) {
	prog := mustTestPart(t)
	run := func(seed uint64, opts ...Option) *Result {
		tb, err := NewTestbed(append([]Option{WithSeed(seed)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := run(7)

	core := NewTestbedCore()
	for _, warm := range []uint64{3, 9} {
		core.Reclaim(run(warm, WithCore(core)))
	}
	reused := run(7, WithCore(core))

	if len(fresh.Recording.Transactions) != len(reused.Recording.Transactions) {
		t.Fatalf("window counts differ: %d vs %d", fresh.Recording.Len(), reused.Recording.Len())
	}
	for i := range fresh.Recording.Transactions {
		if fresh.Recording.Transactions[i] != reused.Recording.Transactions[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i,
				fresh.Recording.Transactions[i], reused.Recording.Transactions[i])
		}
	}
	fj, _ := json.Marshal(fresh)
	rj, _ := json.Marshal(reused)
	if !bytes.Equal(fj, rj) {
		t.Errorf("report JSON differs between fresh and core-reused runs:\nfresh:  %s\nreused: %s", fj, rj)
	}
}

// TestCampaignFusionEquivalence: a fingerprint-mode campaign (fused
// shared simulations, shared plans, pooled cores) must reach the same
// per-scenario rows as the full-mode campaign running every scenario
// solo. Detector scenarios that share program and seed but differ in
// settle, budget or tap simulate different prints, so they must not
// fuse with each other.
func TestCampaignFusionEquivalence(t *testing.T) {
	prog := mustTestPart(t)
	ruleEngine := func(lim detect.Limits) func() (detect.Detector, error) {
		return func() (detect.Detector, error) { return detect.NewRuleEngine(lim) }
	}
	var scens []Scenario
	for v := 0; v < 3; v++ {
		lim := detect.DefaultLimits()
		lim.MaxStepsPerWindow += int32(v) * 96
		for seed := uint64(1); seed <= 3; seed++ {
			scens = append(scens, Scenario{
				Name:     string(rune('a'+v)) + "-" + string(rune('0'+seed)),
				Program:  prog,
				Seed:     seed,
				Detector: ruleEngine(lim),
				Policy:   FlagOnly,
			})
		}
	}
	// Rig variants of a-1's simulation, two detectors each: every pair
	// fuses with itself and with nothing else.
	rigs := []Scenario{
		{Name: "settle", Settle: 5 * sim.Second},
		{Name: "budget", Budget: 40 * 60 * sim.Second},
		{Name: "ramps", Tap: fpga.TapRAMPS},
	}
	for _, rig := range rigs {
		for v := 0; v < 2; v++ {
			lim := detect.DefaultLimits()
			lim.MaxStepsPerWindow += int32(v) * 96
			sc := rig
			sc.Name = rig.Name + "-" + string(rune('a'+v))
			sc.Program, sc.Seed, sc.Detector, sc.Policy = prog, 1, ruleEngine(lim), FlagOnly
			scens = append(scens, sc)
		}
	}

	units := Campaign{CaptureMode: CaptureFingerprint}.units(scens, campaignKeys(scens))
	var got [][]string
	for _, u := range units {
		var names []string
		for _, i := range u {
			names = append(names, scens[i].Name)
		}
		got = append(got, names)
	}
	want := [][]string{
		{"a-1", "b-1", "c-1"}, {"a-2", "b-2", "c-2"}, {"a-3", "b-3", "c-3"},
		{"settle-a", "settle-b"}, {"budget-a", "budget-b"}, {"ramps-a", "ramps-b"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fused units = %v, want %v", got, want)
	}

	run := func(mode CaptureMode) []ScenarioResult {
		results, err := Campaign{CaptureMode: mode}.Run(context.Background(), scens)
		if err != nil {
			t.Fatal(err)
		}
		if err := firstScenarioErr(results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	full := run(CaptureFull)
	fused := run(CaptureFingerprint)
	for i := range scens {
		f, u := full[i], fused[i]
		fj, _ := json.Marshal(f)
		uj, _ := json.Marshal(u)
		if !bytes.Equal(fj, uj) {
			t.Errorf("scenario %q: rows differ:\nfull:  %s\nfused: %s", scens[i].Name, fj, uj)
		}
	}
	// The settle variant observes 30 more windows than a-1, so a wrong
	// fusion would show in its row too.
	if full[0].Result.Fingerprint.Windows == full[9].Result.Fingerprint.Windows {
		t.Error("settle variant observed as many windows as the default rig")
	}
}

// campaignKeys derives every scenario's simKey under the default budget.
func campaignKeys(scens []Scenario) []simKey {
	keys := make([]simKey, len(scens))
	for i := range scens {
		keys[i] = scens[i].key(DefaultRunBudget)
	}
	return keys
}
