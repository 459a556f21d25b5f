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

// The shared-plan and pooled-core fast paths promise bit-identical
// outcomes to the naive path: each test here runs both and compares the
// results byte for byte. The capture modes and fusion are held to the
// reference report by TestExecutionPathsAgree (paths_test.go).

// TestFingerprintMatchesRecording: on every tap of a dual-tap print, the
// fingerprint streamed during a full-capture run equals the one
// recomputed from the recorded windows. TestExecutionPathsAgree holds
// the fingerprint-mode digests equal to the full-mode ones, so this
// anchors both to the capture itself.
func TestFingerprintMatchesRecording(t *testing.T) {
	tb, err := NewTestbed(WithSeed(3), WithTapSide(fpga.TapDual))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), mustTestPart(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tap := range []struct {
		name string
		rec  *capture.Recording
		fp   *capture.Fingerprint
	}{
		{"primary", res.Recording, res.Fingerprint},
		{"arduino", res.ArduinoRecording, res.ArduinoFingerprint},
		{"ramps", res.RAMPSRecording, res.RAMPSFingerprint},
	} {
		if tap.rec == nil || tap.rec.Len() == 0 || tap.fp == nil {
			t.Fatalf("%s tap: recording or fingerprint missing", tap.name)
		}
		if want := capture.FingerprintOf(tap.rec); !tap.fp.Equal(&want) {
			t.Errorf("%s tap: streamed fingerprint differs from recomputed:\nstreamed: %v\nrecorded: %v", tap.name, tap.fp, want)
		}
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
			if !reflect.DeepEqual(interp.ArduinoRecording, planned.ArduinoRecording) ||
				!reflect.DeepEqual(interp.RAMPSRecording, planned.RAMPSRecording) {
				t.Fatal("captures differ between interpreter and plan")
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

	if !reflect.DeepEqual(fresh.Recording, reused.Recording) {
		t.Fatal("captures differ between fresh and core-reused runs")
	}
	fj, _ := json.Marshal(fresh)
	rj, _ := json.Marshal(reused)
	if !bytes.Equal(fj, rj) {
		t.Errorf("report JSON differs between fresh and core-reused runs:\nfresh:  %s\nreused: %s", fj, rj)
	}
}

// TestCampaignFusionEquivalence: in fingerprint mode, detector
// scenarios that share program and seed fuse into one unit, while
// variants that differ in settle, budget or tap simulate different
// prints and must stay in units of their own. That fused rows equal
// solo rows byte for byte is TestExecutionPathsAgree's fingerprint rows.
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

}

// campaignKeys derives every scenario's simKey under the default budget.
func campaignKeys(scens []Scenario) []simKey {
	keys := make([]simKey, len(scens))
	for i := range scens {
		keys[i] = scens[i].key(DefaultRunBudget)
	}
	return keys
}
