// Package fpga implements the OFFRAMPS board itself: a machine-in-the-
// middle between the Arduino-side and RAMPS-side buses (paper Section III).
// Every control signal crosses the FPGA through a PinPath that can forward
// (bypass), filter (mask), force (override), or inject — the four
// primitives from which all nine trojans of Table I are built. Alongside
// the trojan datapath, the board hosts the paper's monitoring modules
// (Section IV-B, V-B): edge detection, pulse generation, homing detection,
// axis tracking, and the UART capture exporter.
package fpga

import (
	"fmt"

	"offramps/internal/capture"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// TapSide selects which bus(es) the board's monitoring tap — axis
// tracking plus the capture exporter — observes. The paper's rig taps the
// Arduino side (the FPGA's input), which is precisely why its own trojans
// are invisible to its own capture (§V-D: "both the attacks and defense
// would be co-located in the same FPGA"). Making the tap point
// configuration rather than architecture turns that limitation into a
// testable scenario axis.
type TapSide int

const (
	// TapArduino taps the FPGA's input: the capture records what the
	// firmware commanded. Board-injected trojans act downstream of this
	// tap and do not appear — the paper's §V-D co-location blind spot.
	TapArduino TapSide = iota
	// TapRAMPS taps the FPGA's output: the capture records what the
	// printer actually received, so board-injected trojans DO appear.
	TapRAMPS
	// TapDual taps both buses and exports two captures; diffing them
	// isolates exactly what the board itself modified.
	TapDual
)

// String names the tap side for configs and reports.
func (s TapSide) String() string {
	switch s {
	case TapArduino:
		return "arduino"
	case TapRAMPS:
		return "ramps"
	case TapDual:
		return "dual"
	default:
		return fmt.Sprintf("TapSide(%d)", int(s))
	}
}

// ParseTapSide maps a spec-file string to a TapSide ("" = the default
// Arduino-side tap).
func ParseTapSide(s string) (TapSide, error) {
	switch s {
	case "", "arduino":
		return TapArduino, nil
	case "ramps":
		return TapRAMPS, nil
	case "dual", "both":
		return TapDual, nil
	default:
		return 0, fmt.Errorf("fpga: unknown tap side %q (want arduino, ramps, or dual)", s)
	}
}

// TapsArduino reports whether the side includes the Arduino-side tap.
func (s TapSide) TapsArduino() bool { return s == TapArduino || s == TapDual }

// TapsRAMPS reports whether the side includes the RAMPS-side tap.
func (s TapSide) TapsRAMPS() bool { return s == TapRAMPS || s == TapDual }

// Config holds the board's electrical and export parameters.
type Config struct {
	// PropagationDelay is the through-FPGA latency applied to every
	// forwarded edge. The paper measured a worst case of 12.923 ns (on
	// Y_DIR); the default rounds that up to 13 ns.
	PropagationDelay sim.Time
	// ExportPeriod is the capture window; the paper's UART control unit
	// exports every 0.1 s.
	ExportPeriod sim.Time
	// Tap places the monitoring tap: the paper's Arduino-side input tap
	// (default), the RAMPS-side output tap, or both.
	Tap TapSide
}

// DefaultConfig matches the paper's measured platform.
func DefaultConfig() Config {
	return Config{
		PropagationDelay: 13 * sim.Nanosecond,
		ExportPeriod:     100 * sim.Millisecond,
		Tap:              TapArduino,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	if c.PropagationDelay < 0 {
		return fmt.Errorf("fpga: PropagationDelay must be non-negative")
	}
	if c.ExportPeriod <= 0 {
		return fmt.Errorf("fpga: ExportPeriod must be positive")
	}
	if c.Tap != TapArduino && c.Tap != TapRAMPS && c.Tap != TapDual {
		return fmt.Errorf("fpga: unknown tap side %v", c.Tap)
	}
	return nil
}

// Trojan is a malicious payload deployable onto the board. Arm installs
// its hooks; the payload decides its own trigger (typically homing
// detection, matching the paper's "this is the first action taken at the
// start of print and can determine when to activate Trojans").
type Trojan interface {
	// ID is a short unique identifier ("T1".."T9").
	ID() string
	// Description is a one-line summary for reports.
	Description() string
	// Arm installs the trojan onto the board.
	Arm(b *Board) error
}

// Board is the OFFRAMPS MITM. Create it between two buses; with no
// trojans installed it is the paper's 'bypass' configuration (golden
// print T0): every signal forwarded verbatim, delayed only by the
// propagation path.
type Board struct {
	engine  *sim.Engine
	cfg     Config
	arduino *signal.Bus
	ramps   *signal.Bus

	paths map[string]*PinPath

	homing *HomingDetector
	// taps holds one monitoring tap (tracker + exporter) per tapped bus;
	// primary is the side Fingerprint()/Tracker() report, in tap
	// preference order (Arduino when tapped — the paper's rig — else
	// RAMPS).
	taps    map[TapSide]*tap
	primary TapSide

	trojans map[string]Trojan
	order   []string

	// Lazy step trains (see lazy.go): the live trains, retired records
	// for reuse, Arduino-side endstop copies a replayed step has yet to
	// land, a re-entry guard for Sync, and whether the machine was
	// killed (Halt), which stops the rises of trains handed back to the
	// engine.
	lazy        []*lazyTrain
	spareTrains []*lazyTrain
	held        []heldEdge
	advancing   bool
	halted      bool
}

// tap is one monitoring attachment point: the axis tracker counting a
// bus's STEP/DIR activity and the exporter emitting its capture.
type tap struct {
	tracker  *AxisTracker
	exporter *Exporter
}

// NewBoard wires the MITM between the two buses and starts the monitoring
// modules.
func NewBoard(engine *sim.Engine, arduino, ramps *signal.Bus, cfg Config) (*Board, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Board{
		engine:  engine,
		cfg:     cfg,
		arduino: arduino,
		ramps:   ramps,
		paths:   make(map[string]*PinPath, len(signal.ControlPins)),
		taps:    make(map[TapSide]*tap, 2),
		trojans: make(map[string]Trojan),
	}

	// Control direction (Arduino → RAMPS): interceptable paths.
	for _, pin := range signal.ControlPins {
		b.paths[pin] = newPinPath(b, arduino.Line(pin), ramps.Line(pin), cfg.PropagationDelay)
	}
	// Feedback direction (RAMPS → Arduino): forwarded transparently. The
	// FPGA snoops these (homing detection) but the platform never needs
	// to modify them for the Table I suite. A MIN switch may close under
	// a lazy step train, so the board forwards those lines itself.
	for _, pin := range signal.FeedbackPins {
		src, dst := ramps.Line(pin), arduino.Line(pin)
		if pin == signal.PinUARTRx {
			src.Connect(dst, cfg.PropagationDelay)
			continue
		}
		dst.Set(src.Level())
		src.Attach(&endstopForward{board: b, dst: dst})
		src.Defer(b)
		dst.Defer(b)
	}
	// Analog thermistor channels pass through the ADC/DAC path.
	ramps.ThermHotend.Connect(arduino.ThermHotend)
	ramps.ThermBed.Connect(arduino.ThermBed)

	b.homing = NewHomingDetector(ramps)
	// Attach one monitoring tap per configured side. The Arduino tap is
	// wired first so callback registration order (tracker reset, then
	// exporter synchronization) matches the single-tap board exactly.
	if cfg.Tap.TapsArduino() {
		b.attachTap(TapArduino, arduino)
	}
	if cfg.Tap.TapsRAMPS() {
		b.attachTap(TapRAMPS, ramps)
	}
	b.primary = TapArduino
	if !cfg.Tap.TapsArduino() {
		b.primary = TapRAMPS
	}
	// Take step trains off the event queue where the path is clean.
	arduino.SetTrainSink(b)
	for _, a := range signal.Axes {
		p := b.paths[a.StepPin()]
		p.src.Defer(b)
		p.dst.Defer(b)
	}
	return b, nil
}

// attachTap wires an axis tracker and capture exporter onto one bus.
func (b *Board) attachTap(side TapSide, bus *signal.Bus) {
	tracker := NewAxisTracker(bus)
	b.homing.OnHomed(func(at sim.Time) { tracker.Reset(at) })
	b.taps[side] = &tap{tracker: tracker, exporter: newExporter(b, tracker)}
}

// Engine returns the simulation engine.
func (b *Board) Engine() *sim.Engine { return b.engine }

// Config returns the board configuration.
func (b *Board) Config() Config { return b.cfg }

// Path returns the interceptable path for a control pin. Unknown pins
// panic — the pin vocabulary is closed.
func (b *Board) Path(pin string) *PinPath {
	p, ok := b.paths[pin]
	if !ok {
		panic(fmt.Sprintf("fpga: no MITM path for pin %q", pin))
	}
	return p
}

// Homing exposes the homing detection module.
func (b *Board) Homing() *HomingDetector { return b.homing }

// PrimaryTap reports the side Fingerprint() and Tracker() serve: the
// Arduino side whenever it is tapped (the paper's rig), else RAMPS.
func (b *Board) PrimaryTap() TapSide { return b.primary }

// Tracker exposes the primary tap's axis tracking module.
func (b *Board) Tracker() *AxisTracker { return b.taps[b.primary].tracker }

// TrackerAt exposes the axis tracker on one side, or nil when that side
// is not tapped. side must be TapArduino or TapRAMPS.
func (b *Board) TrackerAt(side TapSide) *AxisTracker {
	if t, ok := b.taps[side]; ok {
		return t.tracker
	}
	return nil
}

// Windows reports how many transactions the primary tap has exported.
func (b *Board) Windows() int { return b.taps[b.primary].exporter.Windows() }

// Fingerprint returns the primary tap's rolling capture fingerprint.
func (b *Board) Fingerprint() *capture.Fingerprint { return b.taps[b.primary].exporter.Fingerprint() }

// FingerprintAt returns one side's fingerprint, or nil when that side
// is not tapped. side must be TapArduino or TapRAMPS.
func (b *Board) FingerprintAt(side TapSide) *capture.Fingerprint {
	if t, ok := b.taps[side]; ok {
		return t.exporter.Fingerprint()
	}
	return nil
}

// OnExport registers fn to receive every capture transaction one side's
// exporter emits, in export order — the per-side stream the host
// records a capture from and live detectors observe. The board keeps
// no trace itself: what to record is the subscriber's choice, as on
// the paper's rig, where the FPGA streams window counts over the UART
// and the host writes the CSV. side must be TapArduino or TapRAMPS;
// subscribing to an untapped side is an error.
func (b *Board) OnExport(side TapSide, fn func(capture.Transaction)) error {
	t, ok := b.taps[side]
	if !ok {
		return fmt.Errorf("fpga: no %v tap to stream from (board taps %v)", side, b.cfg.Tap)
	}
	t.exporter.OnExport(fn)
	return nil
}

// StopCapture halts every export ticker; the fingerprints keep their
// contents.
func (b *Board) StopCapture() {
	for _, t := range b.taps {
		t.exporter.Stop()
	}
}

// OnHomed registers fn to run when the homing detector fires.
func (b *Board) OnHomed(fn func(at sim.Time)) { b.homing.OnHomed(fn) }

// InstallTrojan arms a trojan on the board. Installing two trojans with
// the same ID is an error.
func (b *Board) InstallTrojan(t Trojan) error {
	if t == nil {
		return fmt.Errorf("fpga: InstallTrojan(nil)")
	}
	if _, dup := b.trojans[t.ID()]; dup {
		return fmt.Errorf("fpga: trojan %s already installed", t.ID())
	}
	if err := t.Arm(b); err != nil {
		return fmt.Errorf("fpga: arming %s: %w", t.ID(), err)
	}
	b.trojans[t.ID()] = t
	b.order = append(b.order, t.ID())
	return nil
}

// Trojans lists installed trojans in installation order.
func (b *Board) Trojans() []Trojan {
	out := make([]Trojan, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.trojans[id])
	}
	return out
}

// PinPath is one control signal's route through the FPGA fabric. Its
// default behaviour is a pure forward with the propagation delay; trojans
// compose three additional primitives:
//
//   - AddFilter: drop or pass individual source edges (T2/T3/T9 masking).
//   - Force/Release: clamp the output to a level, ignoring the source
//     (T6/T7/T8 overrides).
//   - InjectPulse: synthesize pulses the source never sent (T1/T3/T4/T5).
//
// Each primitive is an advance point of the board's lazy step trains
// (Board.change): the deferred edges that precede it land first, so a
// step edge that lands after the change sees it, as it would eagerly.
// The board may carry a step train lazily while its STEP path is
// neither forced nor filtered and has no injected pulse in flight
// (replayable). Its replay kernel then applies each source edge and its
// output copy itself, through the consumers it resolved when it took
// the move, so the forward never sees a replayed edge (see lazy.go).
type PinPath struct {
	board *Board
	src   *signal.Line
	dst   *signal.Line
	delay sim.Time

	filters []func(at sim.Time, level signal.Level) bool
	forced  bool
	level   signal.Level
	// injecting counts injected pulses whose end has not fired yet.
	injecting int
}

func newPinPath(b *Board, src, dst *signal.Line, delay sim.Time) *PinPath {
	p := &PinPath{board: b, src: src, dst: dst, delay: delay}
	dst.Set(src.Level())
	src.Attach((*forward)(p))
	return p
}

// forward is a PinPath's source-line listener.
type forward PinPath

// Edge forwards a source edge to the output after the propagation
// delay, unless the path is forced or a filter drops it.
func (f *forward) Edge(at sim.Time, level signal.Level) {
	p := (*PinPath)(f)
	if p.forced {
		return
	}
	for _, fn := range p.filters {
		if !fn(at, level) {
			return
		}
	}
	p.dst.SetAfter(p.delay, level)
}

// replayable reports whether the path forwards every source edge
// verbatim now: it is not forced or filtered, and no injected pulse is
// in flight.
func (p *PinPath) replayable() bool {
	return !p.forced && len(p.filters) == 0 && p.injecting == 0
}

// Name reports the pin name the path carries.
func (p *PinPath) Name() string { return p.src.Name() }

// Source returns the Arduino-side line (MITM input).
func (p *PinPath) Source() *signal.Line { return p.src }

// Output returns the RAMPS-side line (MITM output).
func (p *PinPath) Output() *signal.Line { return p.dst }

// AddFilter installs an edge filter. Filters run in installation order;
// the first to return false suppresses the edge. A lazy train on the
// path goes back to the engine, so the filter sees its later edges.
func (p *PinPath) AddFilter(f func(at sim.Time, level signal.Level) bool) {
	if f == nil {
		panic("fpga: AddFilter(nil)")
	}
	p.board.change(p, true)
	p.filters = append(p.filters, f)
}

// Force clamps the output to level until Release. Source edges are
// swallowed while forced, so a lazy train on the path goes back to the
// engine.
func (p *PinPath) Force(level signal.Level) {
	p.board.change(p, true)
	p.forced = true
	p.level = level
	p.dst.SetAfter(p.delay, level)
}

// Forced reports whether the path is currently clamped.
func (p *PinPath) Forced() bool { return p.forced }

// Release removes a Force and resynchronizes the output to the source.
func (p *PinPath) Release() {
	if !p.forced {
		return
	}
	p.board.change(p, false)
	p.forced = false
	p.dst.SetAfter(p.delay, p.src.Level())
}

// InjectPulse synthesizes one High pulse of the given width on the output,
// regardless of source activity. Injections while forced are dropped (the
// clamp wins, like the hardware mux would).
func (p *PinPath) InjectPulse(width sim.Time) {
	if p.forced {
		return
	}
	if width <= 0 {
		panic(fmt.Sprintf("fpga: InjectPulse with non-positive width %v", width))
	}
	p.board.change(p, false)
	p.injecting++
	p.dst.SetAfter(p.delay, signal.High)
	p.board.engine.AfterEdge(p.delay+width, p, 0)
}

// FireEdge implements sim.EdgeTarget: it ends an injected pulse by
// restoring the output to the source's current level, so a concurrent
// real pulse is not cut short more than one injection width. Forced paths
// stay clamped. The output changes at once, so the deferred edges that
// precede the end land first.
func (p *PinPath) FireEdge(uint64) {
	p.injecting--
	if p.forced {
		return
	}
	p.board.Sync()
	p.dst.Set(p.src.Level())
}
