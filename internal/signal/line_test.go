package signal

import (
	"testing"
	"testing/quick"

	"offramps/internal/sim"
)

func TestLineSetAndWatch(t *testing.T) {
	e := sim.NewEngine()
	l := NewLine(e, "X_STEP")
	if l.Level() != Low {
		t.Fatal("new line not Low")
	}
	var seen []Level
	l.Watch(func(_ sim.Time, lv Level) { seen = append(seen, lv) })

	l.Set(High)
	l.Set(High) // no-op
	l.Set(Low)
	if len(seen) != 2 || seen[0] != High || seen[1] != Low {
		t.Errorf("listener saw %v, want [High Low]", seen)
	}
	if l.Edges() != 2 {
		t.Errorf("Edges() = %d, want 2", l.Edges())
	}
}

// countSink counts the edges it is handed.
type countSink struct{ n int }

func (c *countSink) Edge(sim.Time, Level) { c.n++ }

func TestLineStampCallsNoListener(t *testing.T) {
	e := sim.NewEngine()
	l := NewLine(e, "X_STEP")
	var s countSink
	l.Attach(&s)
	watched := 0
	l.Watch(func(sim.Time, Level) { watched++ })
	if !l.Stamp(7, High) || l.Stamp(8, High) || !l.Stamp(9, Low) {
		t.Error("Stamp must report exactly the level changes")
	}
	if l.Level() != Low || l.Edges() != 2 || l.LastChange() != 9 {
		t.Errorf("after stamps: level %v, %d edges, last change %v; want 0, 2, 9", l.Level(), l.Edges(), l.LastChange())
	}
	if s.n != 0 || watched != 0 {
		t.Errorf("Stamp reached listeners: sink %d, watch %d", s.n, watched)
	}
	var got []Sink
	for x := range l.Sinks() {
		got = append(got, x)
	}
	if len(got) != 2 || got[0] != Sink(&s) {
		t.Errorf("Sinks() = %v, want the attached sink, then the watch", got)
	}
	if q, ok := got[1].(Quieter); !ok || q.Quiet() {
		t.Error("a Watch listener must show as a sink that is never quiet")
	}
}

func TestLineSetAfter(t *testing.T) {
	e := sim.NewEngine()
	l := NewLine(e, "p")
	l.SetAfter(100, High)
	if l.Level() != Low {
		t.Fatal("SetAfter applied immediately")
	}
	if err := e.Run(99); err != nil {
		t.Fatal(err)
	}
	if l.Level() != Low {
		t.Fatal("SetAfter applied early")
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if l.Level() != High {
		t.Fatal("SetAfter not applied at deadline")
	}
	if l.LastChange() != 100 {
		t.Errorf("LastChange() = %v, want 100", l.LastChange())
	}
}

func TestLinePulse(t *testing.T) {
	e := sim.NewEngine()
	l := NewLine(e, "p")
	tr := NewTrace(l)
	l.Pulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	if len(edges) != 2 {
		t.Fatalf("pulse produced %d edges, want 2", len(edges))
	}
	if edges[0].Level != High || edges[1].Level != Low {
		t.Errorf("edge levels = %v,%v", edges[0].Level, edges[1].Level)
	}
	if got := edges[1].At - edges[0].At; got != 2*sim.Microsecond {
		t.Errorf("pulse width = %v, want 2µs", got)
	}
}

func TestLinePulseFromHigh(t *testing.T) {
	e := sim.NewEngine()
	l := NewLine(e, "p")
	l.Set(High)
	tr := NewTrace(l)
	l.Pulse(sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Must see Low then High then Low: a distinct rising edge.
	edges := tr.Edges()
	if len(edges) != 3 {
		t.Fatalf("pulse from High produced %d edges, want 3", len(edges))
	}
	if edges[0].Level != Low || edges[1].Level != High || edges[2].Level != Low {
		t.Errorf("edges = %v", edges)
	}
	// The falling edge must be timestamp-distinct from the new rising
	// edge — a zero-width Low at the same instant would skew Trace
	// pulse-width statistics.
	if edges[1].At <= edges[0].At {
		t.Errorf("rising edge at %v not after the preceding fall at %v", edges[1].At, edges[0].At)
	}
	// And the requested width must hold between the distinct rise and its
	// fall.
	if got := edges[2].At - edges[1].At; got != sim.Microsecond {
		t.Errorf("pulse width = %v, want 1µs", got)
	}
}

func TestLineConnectPropagationDelay(t *testing.T) {
	e := sim.NewEngine()
	src := NewLine(e, "src")
	dst := NewLine(e, "dst")
	const delay = 13 * sim.Nanosecond // paper's measured 12.923 ns, rounded
	src.Connect(dst, delay)

	src.Set(High)
	if dst.Level() != Low {
		t.Fatal("connected line changed with zero elapsed time")
	}
	if err := e.Run(delay); err != nil {
		t.Fatal(err)
	}
	if dst.Level() != High {
		t.Fatal("connected line did not follow after delay")
	}
	if dst.LastChange() != delay {
		t.Errorf("dst.LastChange() = %v, want %v", dst.LastChange(), delay)
	}
}

func TestLineConnectZeroDelaySynchronous(t *testing.T) {
	e := sim.NewEngine()
	src := NewLine(e, "src")
	dst := NewLine(e, "dst")
	src.Connect(dst, 0)
	src.Set(High)
	if dst.Level() != High {
		t.Fatal("zero-delay connect must propagate synchronously")
	}
}

func TestLineConnectAssumesCurrentLevel(t *testing.T) {
	e := sim.NewEngine()
	src := NewLine(e, "src")
	src.Set(High)
	dst := NewLine(e, "dst")
	src.Connect(dst, 0)
	if dst.Level() != High {
		t.Fatal("Connect must copy the current level")
	}
}

func TestLevelStringAndInvert(t *testing.T) {
	if Low.String() != "0" || High.String() != "1" {
		t.Error("Level.String mismatch")
	}
	if Low.Invert() != High || High.Invert() != Low {
		t.Error("Level.Invert mismatch")
	}
}

// Property: a chain of connected lines always converges to the source
// level once events drain, regardless of the toggle pattern.
func TestConnectChainConvergesProperty(t *testing.T) {
	f := func(pattern []bool) bool {
		e := sim.NewEngine()
		lines := make([]*Line, 5)
		for i := range lines {
			lines[i] = NewLine(e, "l")
			if i > 0 {
				lines[i-1].Connect(lines[i], sim.Nanosecond)
			}
		}
		for _, p := range pattern {
			lv := Low
			if p {
				lv = High
			}
			lines[0].Set(lv)
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		for _, l := range lines[1:] {
			if l.Level() != lines[0].Level() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalogSetWatchConnect(t *testing.T) {
	e := sim.NewEngine()
	a := NewAnalog(e, "THERM0")
	b := NewAnalog(e, "THERM0_FPGA")
	a.Connect(b)
	var got []float64
	b.Watch(func(_ sim.Time, v float64) { got = append(got, v) })
	a.Set(1.25)
	a.Set(1.25) // no-op
	a.Set(2.5)
	if b.Value() != 2.5 {
		t.Errorf("connected analog = %v, want 2.5", b.Value())
	}
	if len(got) != 2 {
		t.Errorf("listener fired %d times, want 2", len(got))
	}
}

func TestADCRoundTrip(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	for _, v := range []float64{0, 1.3, 2.5, 4.99, 5.0} {
		code := adc.Convert(v)
		back := adc.Voltage(code)
		if diff := back - v; diff > 0.005 || diff < -0.005 {
			t.Errorf("ADC round trip %v -> %d -> %v", v, code, back)
		}
	}
}

func TestADCClamps(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	if got := adc.Convert(-1); got != 0 {
		t.Errorf("Convert(-1) = %d, want 0", got)
	}
	if got := adc.Convert(99); got != 1023 {
		t.Errorf("Convert(99) = %d, want 1023", got)
	}
	if got := adc.Voltage(-5); got != 0 {
		t.Errorf("Voltage(-5) = %v, want 0", got)
	}
	if got := adc.Voltage(1 << 20); got != 5.0 {
		t.Errorf("Voltage(overflow) = %v, want 5", got)
	}
}

// Property: ADC quantization error is bounded by one LSB for in-range
// inputs.
func TestADCQuantizationErrorProperty(t *testing.T) {
	adc := ADC{Bits: 12, VRef: 3.3}
	lsb := adc.VRef / float64(int(1)<<adc.Bits-1)
	f := func(raw uint16) bool {
		v := float64(raw) / 65535.0 * adc.VRef
		back := adc.Voltage(adc.Convert(v))
		diff := back - v
		if diff < 0 {
			diff = -diff
		}
		return diff <= lsb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
