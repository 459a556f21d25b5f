package signal

import (
	"fmt"
	"sort"

	"offramps/internal/sim"
)

// Pin names for every control and feedback signal that crosses the
// Arduino↔RAMPS boundary on the OFFRAMPS board (paper Section III-C). The
// constants use the silkscreen-style names the paper uses (e.g. Y_DIR,
// D8/D10 heater outputs).
const (
	// Stepper control, one triple per motor (paper Section III-C2 item 1).
	PinXStep = "X_STEP"
	PinXDir  = "X_DIR"
	PinXEn   = "X_EN"
	PinYStep = "Y_STEP"
	PinYDir  = "Y_DIR"
	PinYEn   = "Y_EN"
	PinZStep = "Z_STEP"
	PinZDir  = "Z_DIR"
	PinZEn   = "Z_EN"
	PinEStep = "E0_STEP"
	PinEDir  = "E0_DIR"
	PinEEn   = "E0_EN"

	// Power outputs: D10 drives the hotend MOSFET, D8 the heated bed,
	// D9 the part-cooling fan (items 2 and 3).
	PinHotend = "D10"
	PinBed    = "D8"
	PinFan    = "D9"

	// Feedback from RAMPS to the Arduino: mechanical endstops (the paper
	// added these to the Prusa) and the PS-ON / diagnostic lines.
	PinXMin = "X_MIN"
	PinYMin = "Y_MIN"
	PinZMin = "Z_MIN"

	// UART between Arduino and display/control board routed through the
	// RAMPS AUX headers (item 4).
	PinUARTTx = "UART_TX"
	PinUARTRx = "UART_RX"
)

// ControlPins lists every Arduino→RAMPS control signal, in a stable order.
// These are the signals the FPGA can modify (trojan path).
var ControlPins = []string{
	PinXStep, PinXDir, PinXEn,
	PinYStep, PinYDir, PinYEn,
	PinZStep, PinZDir, PinZEn,
	PinEStep, PinEDir, PinEEn,
	PinHotend, PinBed, PinFan,
	PinUARTTx,
}

// FeedbackPins lists every RAMPS→Arduino feedback signal, in a stable
// order. The FPGA observes these for homing detection; the thermistor
// analog channels are carried separately (see Analog).
var FeedbackPins = []string{
	PinXMin, PinYMin, PinZMin,
	PinUARTRx,
}

// Axis identifies one of the four stepper-driven axes.
type Axis int

// The four motion axes of a RAMPS-class FFF printer. Values start at 1 so
// the zero value is detectably invalid.
const (
	AxisX Axis = iota + 1
	AxisY
	AxisZ
	AxisE
)

// Axes lists all axes in canonical order (X, Y, Z, E).
var Axes = []Axis{AxisX, AxisY, AxisZ, AxisE}

// String returns the axis letter.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "X"
	case AxisY:
		return "Y"
	case AxisZ:
		return "Z"
	case AxisE:
		return "E"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// MarshalText renders the axis letter, so JSON maps keyed by Axis read
// "X"/"Y"/"Z"/"E" instead of raw integers.
func (a Axis) MarshalText() ([]byte, error) {
	if a < AxisX || a > AxisE {
		return nil, fmt.Errorf("signal: invalid axis %d", int(a))
	}
	return []byte(a.String()), nil
}

// UnmarshalText parses an axis letter.
func (a *Axis) UnmarshalText(text []byte) error {
	switch string(text) {
	case "X":
		*a = AxisX
	case "Y":
		*a = AxisY
	case "Z":
		*a = AxisZ
	case "E":
		*a = AxisE
	default:
		return fmt.Errorf("signal: unknown axis %q", text)
	}
	return nil
}

// StepPin returns the STEP pin name for the axis.
func (a Axis) StepPin() string {
	switch a {
	case AxisX:
		return PinXStep
	case AxisY:
		return PinYStep
	case AxisZ:
		return PinZStep
	case AxisE:
		return PinEStep
	default:
		panic(fmt.Sprintf("signal: StepPin of invalid axis %d", int(a)))
	}
}

// DirPin returns the DIR pin name for the axis.
func (a Axis) DirPin() string {
	switch a {
	case AxisX:
		return PinXDir
	case AxisY:
		return PinYDir
	case AxisZ:
		return PinZDir
	case AxisE:
		return PinEDir
	default:
		panic(fmt.Sprintf("signal: DirPin of invalid axis %d", int(a)))
	}
}

// EnablePin returns the EN pin name for the axis (active-low on A4988).
func (a Axis) EnablePin() string {
	switch a {
	case AxisX:
		return PinXEn
	case AxisY:
		return PinYEn
	case AxisZ:
		return PinZEn
	case AxisE:
		return PinEEn
	default:
		panic(fmt.Sprintf("signal: EnablePin of invalid axis %d", int(a)))
	}
}

// MinEndstopPin returns the MIN endstop pin name for a motion axis. The
// extruder has no endstop; requesting it panics.
func (a Axis) MinEndstopPin() string {
	switch a {
	case AxisX:
		return PinXMin
	case AxisY:
		return PinYMin
	case AxisZ:
		return PinZMin
	default:
		panic(fmt.Sprintf("signal: MinEndstopPin of axis %v", a))
	}
}

// Bus is a named collection of digital lines plus the analog thermistor
// channels. Two buses exist in a full OFFRAMPS setup: the Arduino-side bus
// (firmware drives control pins, reads feedback pins) and the RAMPS-side
// bus (plant reads control pins, drives feedback pins). The FPGA sits
// between them; with jumpers in "normal" position the buses are connected
// back-to-back.
type Bus struct {
	engine *sim.Engine
	lines  map[string]*Line

	// ThermHotend and ThermBed model the thermistor voltage dividers.
	// They are analog channels because the OFFRAMPS routes them through
	// the FPGA's XADC / external DAC path (Section III-C1).
	ThermHotend *Analog
	ThermBed    *Analog

	trains TrainSink
}

// NewBus creates a bus with every control and feedback pin plus the two
// thermistor channels. All digital lines start Low; analog channels start
// at 25 °C-equivalent value set by the plant later.
func NewBus(engine *sim.Engine) *Bus {
	b := &Bus{
		engine:      engine,
		lines:       make(map[string]*Line, len(ControlPins)+len(FeedbackPins)),
		ThermHotend: NewAnalog(engine, "THERM0"),
		ThermBed:    NewAnalog(engine, "THERM1"),
	}
	for _, name := range ControlPins {
		b.lines[name] = NewLine(engine, name)
	}
	for _, name := range FeedbackPins {
		b.lines[name] = NewLine(engine, name)
	}
	return b
}

// Engine returns the simulation engine the bus belongs to.
func (b *Bus) Engine() *sim.Engine { return b.engine }

// Line returns the named line. Unknown names panic: pin names are a closed
// compile-time vocabulary and a typo must fail loudly.
func (b *Bus) Line(name string) *Line {
	l, ok := b.lines[name]
	if !ok {
		panic(fmt.Sprintf("signal: unknown pin %q", name))
	}
	return l
}

// Names returns all pin names on the bus, sorted.
func (b *Bus) Names() []string {
	names := make([]string, 0, len(b.lines))
	for n := range b.lines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetTrainSink installs the consumer that takes step trains driven
// onto this bus off the event queue (see Train).
func (b *Bus) SetTrainSink(s TrainSink) { b.trains = s }

// TrainSink returns the installed train consumer, or nil.
func (b *Bus) TrainSink() TrainSink { return b.trains }

// Step returns the STEP line for axis.
func (b *Bus) Step(a Axis) *Line { return b.Line(a.StepPin()) }

// Dir returns the DIR line for axis.
func (b *Bus) Dir(a Axis) *Line { return b.Line(a.DirPin()) }

// Enable returns the EN line for axis.
func (b *Bus) Enable(a Axis) *Line { return b.Line(a.EnablePin()) }

// MinEndstop returns the MIN endstop line for a motion axis.
func (b *Bus) MinEndstop(a Axis) *Line { return b.Line(a.MinEndstopPin()) }

// ConnectAll wires every control pin of b to dst and every feedback pin of
// dst back to b, each direction with the given propagation delay. The
// analog channels are forwarded dst→b (thermistors are feedback). This is
// the "unmodified signal chain" of paper Figure 3a.
func (b *Bus) ConnectAll(dst *Bus, delay sim.Time) {
	for _, name := range ControlPins {
		b.Line(name).Connect(dst.Line(name), delay)
	}
	for _, name := range FeedbackPins {
		dst.Line(name).Connect(b.Line(name), delay)
	}
	dst.ThermHotend.Connect(b.ThermHotend)
	dst.ThermBed.Connect(b.ThermBed)
}
