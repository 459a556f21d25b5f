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
	// primary is the side Recording()/Tracker() report, in tap preference
	// order (Arduino when tapped — the paper's rig — else RAMPS).
	taps    map[TapSide]*tap
	primary TapSide

	// spare holds recycled recording buffers donated by a pooled testbed
	// core; exporters consume them (in start order) instead of
	// allocating fresh backing arrays.
	spare [][]capture.Transaction

	trojans map[string]Trojan
	order   []string

	// Lazy step trains (see lazy.go): the live trains, retired records
	// for reuse, Arduino-side endstop copies a replayed step has yet to
	// land, and a re-entry guard for Sync.
	lazy        []*lazyTrain
	spareTrains []*lazyTrain
	held        []heldEdge
	advancing   bool
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

// PrimaryTap reports the side Recording() and Tracker() serve: the
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

// SetCaptureMode selects full-trace or fingerprint-only capture for
// every tap. It must be called before any exporter starts (i.e. before
// the print's first post-homing step); changing mode mid-capture is an
// error.
func (b *Board) SetCaptureMode(m capture.Mode) error {
	if m != capture.ModeFull && m != capture.ModeFingerprint {
		return fmt.Errorf("fpga: unknown capture mode %v", m)
	}
	for _, t := range b.taps {
		if t.exporter.started {
			return fmt.Errorf("fpga: capture already started; cannot switch to %v mode", m)
		}
	}
	for _, t := range b.taps {
		t.exporter.mode = m
	}
	return nil
}

// CaptureMode reports the capture mode in effect.
func (b *Board) CaptureMode() capture.Mode { return b.taps[b.primary].exporter.mode }

// Windows reports how many transactions the primary tap has exported —
// valid in both capture modes (Recording().Len() is always zero in
// fingerprint mode).
func (b *Board) Windows() int { return b.taps[b.primary].exporter.Windows() }

// Fingerprint returns the primary tap's rolling capture fingerprint,
// maintained in both modes.
func (b *Board) Fingerprint() *capture.Fingerprint { return b.taps[b.primary].exporter.Fingerprint() }

// FingerprintAt returns one side's fingerprint, or nil when that side
// is not tapped. side must be TapArduino or TapRAMPS.
func (b *Board) FingerprintAt(side TapSide) *capture.Fingerprint {
	if t, ok := b.taps[side]; ok {
		return t.exporter.Fingerprint()
	}
	return nil
}

// DonateScratch hands the board recycled transaction buffers (length
// zero, capacity retained) for exporters to record into instead of
// allocating. Only meaningful before capture starts; full mode only.
func (b *Board) DonateScratch(bufs [][]capture.Transaction) { b.spare = append(b.spare, bufs...) }

// scratch pops one donated buffer, or nil.
func (b *Board) scratch() []capture.Transaction {
	if n := len(b.spare); n > 0 {
		buf := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return buf[:0]
	}
	return nil
}

// Recording returns the primary tap's capture accumulated so far.
func (b *Board) Recording() *capture.Recording { return b.taps[b.primary].exporter.recording }

// RecordingAt returns one side's capture, or nil when that side is not
// tapped. side must be TapArduino or TapRAMPS.
func (b *Board) RecordingAt(side TapSide) *capture.Recording {
	if t, ok := b.taps[side]; ok {
		return t.exporter.recording
	}
	return nil
}

// OnExport registers fn to receive every capture transaction one side's
// exporter emits, in export order — the per-side streaming feed that
// lets side-bound live detectors observe a chosen tap instead of
// polling the primary recording. side must be TapArduino or TapRAMPS;
// subscribing to an untapped side is an error.
func (b *Board) OnExport(side TapSide, fn func(capture.Transaction)) error {
	t, ok := b.taps[side]
	if !ok {
		return fmt.Errorf("fpga: no %v tap to stream from (board taps %v)", side, b.cfg.Tap)
	}
	t.exporter.OnExport(fn)
	return nil
}

// StopCapture halts every export ticker; the recordings keep their
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
// A STEP path that none of these has touched, on a board without
// trojans, is clean: the board may carry its step trains lazily. Its
// replay kernel then applies each source edge and its output copy
// itself, through the consumers it resolved when it took the move, so
// the forward never sees a replayed edge (see lazy.go).
type PinPath struct {
	board *Board
	src   *signal.Line
	dst   *signal.Line
	delay sim.Time

	filters []func(at sim.Time, level signal.Level) bool
	forced  bool
	level   signal.Level
	// touched is set once any trojan primitive has been applied.
	touched bool
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

// clean reports whether no trojan primitive has touched the path.
func (p *PinPath) clean() bool { return !p.touched }

// Name reports the pin name the path carries.
func (p *PinPath) Name() string { return p.src.Name() }

// Source returns the Arduino-side line (MITM input).
func (p *PinPath) Source() *signal.Line { return p.src }

// Output returns the RAMPS-side line (MITM output).
func (p *PinPath) Output() *signal.Line { return p.dst }

// AddFilter installs an edge filter. Filters run in installation order;
// the first to return false suppresses the edge.
func (p *PinPath) AddFilter(f func(at sim.Time, level signal.Level) bool) {
	if f == nil {
		panic("fpga: AddFilter(nil)")
	}
	p.filters = append(p.filters, f)
	p.touched = true
}

// Force clamps the output to level until Release. Source edges are
// swallowed while forced.
func (p *PinPath) Force(level signal.Level) {
	p.forced = true
	p.touched = true
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
	p.touched = true
	p.dst.SetAfter(p.delay, signal.High)
	p.board.engine.AfterEdge(p.delay+width, p, 0)
}

// FireEdge implements sim.EdgeTarget: it ends an injected pulse by
// restoring the output to the source's current level, so a concurrent
// real pulse is not cut short more than one injection width. Forced paths
// stay clamped.
func (p *PinPath) FireEdge(uint64) {
	if p.forced {
		return
	}
	p.dst.Set(p.src.Level())
}
