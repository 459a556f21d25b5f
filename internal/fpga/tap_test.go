package fpga

import (
	"testing"

	"offramps/internal/capture"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

func TestParseTapSide(t *testing.T) {
	cases := []struct {
		in   string
		want TapSide
		err  bool
	}{
		{"", TapArduino, false},
		{"arduino", TapArduino, false},
		{"ramps", TapRAMPS, false},
		{"dual", TapDual, false},
		{"both", TapDual, false},
		{"sideways", 0, true},
	}
	for _, c := range cases {
		got, err := ParseTapSide(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseTapSide(%q) err = %v", c.in, err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseTapSide(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if TapArduino.String() != "arduino" || TapRAMPS.String() != "ramps" || TapDual.String() != "dual" {
		t.Error("TapSide.String vocabulary changed")
	}
}

func TestConfigValidatesTapSide(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tap = TapSide(42)
	if err := cfg.Validate(); err == nil {
		t.Error("invalid tap side accepted")
	}
}

// tapRig builds a homed board with the given tap configuration so the
// trackers are reset and counting.
func tapRig(t *testing.T, tap TapSide) (*sim.Engine, *signal.Bus, *Board) {
	t.Helper()
	e := sim.NewEngine()
	arduino := signal.NewBus(e)
	ramps := signal.NewBus(e)
	cfg := DefaultConfig()
	cfg.Tap = tap
	b, err := NewBoard(e, arduino, ramps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := pressSequence(e, ramps.MinEndstop(signal.AxisX), 10*sim.Millisecond)
	at = pressSequence(e, ramps.MinEndstop(signal.AxisY), at)
	pressSequence(e, ramps.MinEndstop(signal.AxisZ), at)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !b.Homing().Homed() {
		t.Fatal("rig did not home")
	}
	return e, arduino, b
}

func TestRAMPSTapIsPrimaryWhenArduinoUntapped(t *testing.T) {
	_, _, b := tapRig(t, TapRAMPS)
	if b.PrimaryTap() != TapRAMPS {
		t.Errorf("primary tap = %v, want ramps", b.PrimaryTap())
	}
	if b.TrackerAt(TapArduino) != nil || b.FingerprintAt(TapArduino) != nil {
		t.Error("untapped Arduino side exposes a tracker/fingerprint")
	}
	if err := b.OnExport(TapArduino, func(capture.Transaction) {}); err == nil {
		t.Error("untapped Arduino side accepts an export subscription")
	}
	if b.TrackerAt(TapRAMPS) == nil || b.Fingerprint() == nil {
		t.Error("RAMPS tap missing")
	}
	if b.Fingerprint() != b.FingerprintAt(TapRAMPS) {
		t.Error("primary fingerprint is not the RAMPS capture's")
	}
}

// TestDualTapSeparatesCommandedFromReceived is the §V-D co-location axis
// in miniature: steps the firmware commands are counted by both taps,
// while steps the board itself injects appear only on the RAMPS side.
func TestDualTapSeparatesCommandedFromReceived(t *testing.T) {
	e, arduino, b := tapRig(t, TapDual)
	if b.PrimaryTap() != TapArduino {
		t.Fatalf("primary tap = %v, want arduino", b.PrimaryTap())
	}

	// Firmware commands 3 positive X steps.
	step := arduino.Step(signal.AxisX)
	at := e.Now() + sim.Millisecond
	for i := 0; i < 3; i++ {
		func(at sim.Time) {
			e.Schedule(at, func() { step.Set(signal.High) })
			e.Schedule(at+2*sim.Microsecond, func() { step.Set(signal.Low) })
		}(at)
		at += 100 * sim.Microsecond
	}
	// The board injects 2 more, downstream of the Arduino-side tap.
	e.Schedule(at, func() {
		b.Path(signal.PinXStep).InjectPulse(2 * sim.Microsecond)
	})
	e.Schedule(at+100*sim.Microsecond, func() {
		b.Path(signal.PinXStep).InjectPulse(2 * sim.Microsecond)
	})
	// Bounded run: the first STEP edge starts the export tickers, which
	// reschedule forever, so the engine never goes idle from here on.
	if err := e.Run(at + sim.Second); err != nil {
		t.Fatal(err)
	}

	if got := b.TrackerAt(TapArduino).Count(signal.AxisX); got != 3 {
		t.Errorf("Arduino-side count = %d, want 3 (commanded only)", got)
	}
	if got := b.TrackerAt(TapRAMPS).Count(signal.AxisX); got != 5 {
		t.Errorf("RAMPS-side count = %d, want 5 (commanded + injected)", got)
	}
	if b.Tracker() != b.TrackerAt(TapArduino) {
		t.Error("primary tracker is not the Arduino-side tracker under dual tap")
	}
}

// TestOnExportStreamsPerSide drives a dual-tap board with a board-
// injected extra step and checks the per-side streams deliver exactly
// what the matching fingerprints summarize, in export order — the feed
// contract recorded captures and side-bound live detectors rely on.
func TestOnExportStreamsPerSide(t *testing.T) {
	e, arduino, b := tapRig(t, TapDual)

	var gotArduino, gotRAMPS []capture.Transaction
	if err := b.OnExport(TapArduino, func(tx capture.Transaction) {
		gotArduino = append(gotArduino, tx)
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.OnExport(TapRAMPS, func(tx capture.Transaction) {
		gotRAMPS = append(gotRAMPS, tx)
	}); err != nil {
		t.Fatal(err)
	}

	step := arduino.Step(signal.AxisX)
	at := e.Now() + sim.Millisecond
	e.Schedule(at, func() { step.Set(signal.High) })
	e.Schedule(at+2*sim.Microsecond, func() { step.Set(signal.Low) })
	e.Schedule(at+100*sim.Microsecond, func() {
		b.Path(signal.PinXStep).InjectPulse(2 * sim.Microsecond)
	})
	if err := e.Run(at + sim.Second); err != nil {
		t.Fatal(err)
	}

	for side, got := range map[TapSide][]capture.Transaction{
		TapArduino: gotArduino,
		TapRAMPS:   gotRAMPS,
	} {
		fp := b.FingerprintAt(side)
		if len(got) == 0 {
			t.Fatalf("%v stream delivered nothing", side)
		}
		for i, tx := range got {
			if tx.Index != uint32(i) {
				t.Fatalf("%v stream[%d] has index %d", side, i, tx.Index)
			}
		}
		rec := &capture.Recording{Period: fp.Period, StartedAt: fp.StartedAt, Transactions: got}
		if want := capture.FingerprintOf(rec); !want.Equal(fp) {
			t.Fatalf("%v stream summarizes to %v, board fingerprint is %v", side, &want, fp)
		}
	}
	// The injected step reaches only the RAMPS-side stream.
	if up, down := gotArduino[len(gotArduino)-1].X, gotRAMPS[len(gotRAMPS)-1].X; up+1 != down {
		t.Errorf("final X counts: arduino %d, ramps %d — want the one injected step downstream only", up, down)
	}
}

func TestOnExportRejectsUntappedSide(t *testing.T) {
	_, _, b := tapRig(t, TapArduino)
	if err := b.OnExport(TapRAMPS, func(capture.Transaction) {}); err == nil {
		t.Error("subscription to an untapped side accepted")
	}
	if err := b.OnExport(TapDual, func(capture.Transaction) {}); err == nil {
		t.Error("OnExport(TapDual) accepted — subscriptions are per side")
	}
}
