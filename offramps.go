// This file wires the simulated testbed together; the package
// documentation lives in doc.go.
package offramps

import (
	"fmt"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
	"offramps/internal/slicer"
)

// Testbed is one complete simulated rig: firmware on the Arduino-side
// bus, the OFFRAMPS board in the middle (unless disabled), and the
// physical plant on the RAMPS-side bus.
type Testbed struct {
	Engine   *sim.Engine
	Arduino  *signal.Bus
	RAMPS    *signal.Bus
	Board    *fpga.Board // nil when the MITM is bypassed with jumpers
	Plant    *printer.Plant
	Firmware *firmware.Firmware

	opts options
}

// options collects testbed construction parameters.
type options struct {
	seed        uint64
	timeNoise   sim.Time
	mitm        bool
	tap         fpga.TapSide
	tapSet      bool
	exportEvery sim.Time
	settle      sim.Time
	trojans     []fpga.Trojan
	startPos    map[signal.Axis]float64
	firmwareMod func(*firmware.Config)
	plantMod    func(*printer.Config)
	core        *TestbedCore
}

func defaultOptions() options {
	return options{
		seed:        1,
		timeNoise:   200 * sim.Microsecond,
		mitm:        true,
		tap:         fpga.TapArduino,
		exportEvery: 100 * sim.Millisecond,
		settle:      2 * sim.Second,
	}
}

// validate rejects option combinations that would silently build a rig
// other than the one the caller described.
func (o *options) validate() error {
	if !o.mitm {
		if len(o.trojans) > 0 {
			return fmt.Errorf("offramps: config error: trojans require the MITM path (remove WithoutMITM)")
		}
		if o.tapSet {
			return fmt.Errorf("offramps: config error: WithTapSide requires the MITM path (the tap lives on the board; remove WithoutMITM)")
		}
	}
	return nil
}

// Option configures a Testbed.
type Option func(*options)

// WithSeed sets the time-noise seed. Two testbeds with the same seed and
// program produce bit-identical captures; different seeds model separate
// physical print runs.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithTimeNoise sets the execution-time jitter magnitude (0 disables).
func WithTimeNoise(d sim.Time) Option { return func(o *options) { o.timeNoise = d } }

// WithoutMITM wires the Arduino bus directly to the RAMPS bus — the
// paper's Figure 3a jumper configuration. No capture or trojans.
func WithoutMITM() Option { return func(o *options) { o.mitm = false } }

// WithTapSide places the board's monitoring tap: the paper's Arduino-side
// input tap (default), the RAMPS-side output tap, or both. The tap point
// decides what the capture can see — a RAMPS-side tap observes the FPGA's
// output and therefore *does* record board-injected trojans, turning the
// paper's §V-D co-location limitation into a scenario axis.
func WithTapSide(side fpga.TapSide) Option {
	return func(o *options) { o.tap = side; o.tapSet = true }
}

// WithExportPeriod overrides the capture window (paper: 0.1 s).
func WithExportPeriod(d sim.Time) Option { return func(o *options) { o.exportEvery = d } }

// WithSettle sets how long the simulation keeps running after the
// firmware finishes or halts — needed to observe post-kill physics such
// as trojan T7's runaway heating.
func WithSettle(d sim.Time) Option { return func(o *options) { o.settle = d } }

// WithTrojan installs a trojan on the OFFRAMPS board.
func WithTrojan(t fpga.Trojan) Option { return func(o *options) { o.trojans = append(o.trojans, t) } }

// WithStartPosition sets the carriage's arbitrary power-on position.
func WithStartPosition(x, y, z float64) Option {
	return func(o *options) {
		o.startPos = map[signal.Axis]float64{
			signal.AxisX: x, signal.AxisY: y, signal.AxisZ: z,
		}
	}
}

// WithFirmwareConfig applies mod to the firmware configuration.
func WithFirmwareConfig(mod func(*firmware.Config)) Option {
	return func(o *options) { o.firmwareMod = mod }
}

// WithPlantConfig applies mod to the plant configuration.
func WithPlantConfig(mod func(*printer.Config)) Option {
	return func(o *options) { o.plantMod = mod }
}

// NewTestbed assembles a rig.
func NewTestbed(opts ...Option) (*Testbed, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	var engine *sim.Engine
	if o.core != nil {
		engine = o.core.engine
		engine.Reset()
	} else {
		engine = sim.NewEngine()
	}
	arduino := signal.NewBus(engine)
	ramps := signal.NewBus(engine)

	tb := &Testbed{Engine: engine, Arduino: arduino, RAMPS: ramps, opts: o}

	if o.mitm {
		bcfg := fpga.DefaultConfig()
		bcfg.ExportPeriod = o.exportEvery
		bcfg.Tap = o.tap
		board, err := fpga.NewBoard(engine, arduino, ramps, bcfg)
		if err != nil {
			return nil, fmt.Errorf("offramps: building board: %w", err)
		}
		for _, t := range o.trojans {
			if err := board.InstallTrojan(t); err != nil {
				return nil, fmt.Errorf("offramps: %w", err)
			}
		}
		tb.Board = board
	} else {
		arduino.ConnectAll(ramps, 0)
	}

	pcfg := printer.DefaultConfig()
	if o.startPos != nil {
		pcfg.StartPos = o.startPos
	}
	if o.core != nil {
		pcfg.DepositBuffer = o.core.takeDeposits()
	}
	if o.plantMod != nil {
		o.plantMod(&pcfg)
	}
	plant, err := printer.NewPlant(engine, ramps, pcfg)
	if err != nil {
		return nil, fmt.Errorf("offramps: building plant: %w", err)
	}
	tb.Plant = plant

	fcfg := firmware.DefaultConfig()
	fcfg.Seed = o.seed
	fcfg.TimeNoise = o.timeNoise
	if o.core != nil {
		fcfg.Trains = o.core.trains
	}
	if o.firmwareMod != nil {
		o.firmwareMod(&fcfg)
	}
	fw, err := firmware.New(engine, arduino, fcfg)
	if err != nil {
		return nil, fmt.Errorf("offramps: building firmware: %w", err)
	}
	tb.Firmware = fw
	if eagerSteps {
		for _, a := range signal.Axes {
			arduino.Step(a).Watch(func(sim.Time, signal.Level) {})
		}
	}
	return tb, nil
}

// eagerSteps, when set, builds every testbed with a no-op listener on
// each Arduino-side STEP line, which keeps all step pulses on the event
// queue. It exists for the lazy-versus-eager differential tests, which
// use the eager rig as their oracle; nothing else sets it.
var eagerSteps bool

// Result summarizes one simulated print.
type Result struct {
	// Completed is true when the whole program executed; false when the
	// firmware killed itself (thermal protection) or a live detector
	// aborted the run.
	Completed bool
	// HaltError is the firmware's kill reason, if any.
	HaltError error
	// Duration is the simulated wall-clock length of the print.
	Duration sim.Time
	// Recording is the OFFRAMPS capture from the board's primary tap
	// (nil without the MITM): the Arduino-side tap when it exists — the
	// paper's configuration — else the RAMPS-side tap.
	Recording *capture.Recording
	// ArduinoRecording and RAMPSRecording are the per-side captures; each
	// is nil when that bus is not tapped (see WithTapSide). Under the
	// default Arduino-only tap, ArduinoRecording aliases Recording.
	ArduinoRecording *capture.Recording
	RAMPSRecording   *capture.Recording
	// Fingerprint is the rolling per-window digest of the primary tap's
	// capture, maintained in both capture modes — in fingerprint mode it
	// is the only capture artifact (the Recording fields are nil).
	Fingerprint *capture.Fingerprint
	// ArduinoFingerprint and RAMPSFingerprint are the per-side
	// fingerprints; each is nil when that bus is not tapped.
	ArduinoFingerprint *capture.Fingerprint
	RAMPSFingerprint   *capture.Fingerprint
	// Quality summarizes the deposited part.
	Quality printer.Quality
	// Part is the raw deposited part, kept for deeper comparisons than
	// the Quality summary (e.g. layer-by-layer diffs against a golden).
	Part *printer.Part
	// PeakHotendTemp is the hotend's thermal high-water mark, °C.
	PeakHotendTemp float64
	// PeakBedTemp is the heated bed's thermal high-water mark, °C.
	PeakBedTemp float64
	// HotendExceededSafe is true when the hotend passed its safe working
	// limit at any point (trojan T7's destructive signature).
	HotendExceededSafe bool
	// FanDutyAtEnd is the plant-side smoothed fan duty when the run ended.
	FanDutyAtEnd float64
	// PeakFanDuty is the best cooling the part ever received — near 1.0
	// on a healthy print, near 0 under trojan T9.
	PeakFanDuty float64
	// StepsLost counts driver steps discarded while EN was deasserted
	// (trojan T8's signature), per axis.
	StepsLost map[signal.Axis]uint64

	// Aborted is true when a live detector attached with AbortOnTrip
	// tripped and the session halted the print early ("enabling a user to
	// halt a print as soon as a Trojan is suspected", paper §V-C).
	Aborted bool
	// AbortedAt is the simulation time of the abort (zero otherwise).
	AbortedAt sim.Time
	// TripReason describes the observation that tripped the aborting
	// detector ("" when no abort occurred).
	TripReason string
	// Detections holds one finalized report per detector attached with
	// WithDetector, in attachment order (empty when none were attached).
	Detections []*detect.Report
	// TrojanLikely is the OR of the attached detectors' verdicts.
	TrojanLikely bool
}

// ErrTimeout reports that a run exceeded its simulation-time budget.
type ErrTimeout struct {
	Limit sim.Time
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("offramps: print did not finish within %v of simulated time", e.Limit)
}

// TestPart returns the sliced G-code of the standard experiment workload:
// a small calibration box, the simulated equivalent of the paper's test
// prints photographed on quarter-inch graph paper. The box is sized so a
// print comfortably exceeds 100 printing moves — Table II's stealthiest
// relocation trojan fires only once per hundred moves.
func TestPart() (gcode.Program, error) {
	return TestPartWithFlow(1.0)
}

// TestPartWithFlow slices the standard box with a modified flow
// multiplier (used by the ablation benches).
func TestPartWithFlow(flow float64) (gcode.Program, error) {
	box, err := slicer.NewBox(20, 20, 1.6)
	if err != nil {
		return nil, err
	}
	cfg := slicer.DefaultConfig()
	cfg.FlowMultiplier = flow
	return slicer.Slice(box, cfg)
}
