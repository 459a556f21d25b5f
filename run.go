package offramps

import (
	"context"
	"fmt"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// DefaultRunBudget bounds a run's *simulated* time when WithLimit is not
// given. The standard test part takes ≈2 simulated minutes; an hour of
// headroom catches hangs without false positives.
const DefaultRunBudget = 3600 * sim.Second

// TripPolicy says what a live detector's trip does to the run.
type TripPolicy int

const (
	// FlagOnly keeps printing; the verdict lands in Result.Detections at
	// the end of the run.
	FlagOnly TripPolicy = iota
	// AbortOnTrip halts the print the moment the detector trips —
	// "enabling a user to halt a print as soon as a Trojan is suspected"
	// (paper §V-C), saving machine time and material cost (§V-A).
	AbortOnTrip
)

// RunProgress is a snapshot delivered to the WithProgress callback after
// each simulation step.
type RunProgress struct {
	// Now is the current simulated time.
	Now sim.Time
	// Windows is the number of capture windows exported so far (zero
	// without the MITM).
	Windows int
	// Tripped is true once any attached live detector has tripped.
	Tripped bool
}

// TapBinding names the tap a live detector observes. The zero value,
// BindPrimary, is the board's primary tap — the paper's rig — so
// detectors attached without an explicit binding behave exactly as
// before taps became addressable.
type TapBinding int

const (
	// BindPrimary feeds the detector from the board's primary tap
	// (Arduino-side when tapped — the paper's configuration — else
	// RAMPS).
	BindPrimary TapBinding = iota
	// BindArduino feeds the detector from the Arduino-side (input) tap:
	// what the firmware commanded.
	BindArduino
	// BindRAMPS feeds the detector from the RAMPS-side (output) tap:
	// what the printer actually received — the side that sees board-
	// injected trojans (§V-D).
	BindRAMPS
	// BindDual feeds the detector synchronized per-window pairs from
	// both taps; the detector must implement detect.PairObserver (e.g.
	// the attestation detector).
	BindDual
)

// String names the binding for error messages and reports.
func (b TapBinding) String() string {
	switch b {
	case BindPrimary:
		return "primary"
	case BindArduino:
		return "arduino"
	case BindRAMPS:
		return "ramps"
	case BindDual:
		return "dual"
	default:
		return fmt.Sprintf("TapBinding(%d)", int(b))
	}
}

// CaptureMode selects how much of the board's capture a run
// materializes. CaptureFull (the zero value) records the complete
// transaction trace — the paper's CSV — into Result.Recording.
// CaptureFingerprint streams transactions into the bound detectors and
// rolling capture.Fingerprints only: detector verdicts are identical
// (they observe the same stream), but no trace is allocated, so a run's
// memory cost is O(1) in window count. Result.Recording and its per-
// side siblings are nil in fingerprint mode; Result.Fingerprint (and
// siblings) are populated in both modes.
type CaptureMode int

const (
	// CaptureFull materializes the full transaction trace (default).
	CaptureFull CaptureMode = iota
	// CaptureFingerprint keeps only rolling fingerprints.
	CaptureFingerprint
)

// String names the mode for reports.
func (m CaptureMode) String() string { return capture.Mode(m).String() }

// RunOption configures one Testbed.Run.
type RunOption func(*runConfig)

// sideFeed buffers one tap's exported transactions as the board streams
// them (Board.OnExport); detectors drain it between simulation steps so
// trips and aborts stay deterministic step-boundary decisions. Consumed
// entries are compacted away between steps (base counts them), keeping
// the buffer O(detector lag) instead of O(windows).
type sideFeed struct {
	txs  []capture.Transaction
	base int // stream index of txs[0]
}

// total is the count of transactions ever streamed into the feed.
func (f *sideFeed) total() int { return f.base + len(f.txs) }

type boundDetector struct {
	d       detect.Detector
	policy  TripPolicy
	binding TapBinding
	// pair is non-nil exactly when binding == BindDual (validated at run
	// start).
	pair detect.PairObserver
	// src is the single-side feed; up/down are the dual feeds.
	src      *sideFeed
	up, down *sideFeed
	fed      int // windows (or pairs) consumed so far
	tripped  bool
}

type runConfig struct {
	limit     sim.Time
	detectors []*boundDetector
	progress  func(RunProgress)
	mode      CaptureMode
	plan      *firmware.Compiled
}

// WithLimit bounds the run's *simulated* time (default DefaultRunBudget).
func WithLimit(limit sim.Time) RunOption {
	return func(rc *runConfig) { rc.limit = limit }
}

// WithCaptureMode selects full-trace or fingerprint-only capture for
// the run (default CaptureFull). See CaptureMode.
func WithCaptureMode(m CaptureMode) RunOption {
	return func(rc *runConfig) { rc.mode = m }
}

// withCompiled runs the program from a pre-compiled move plan (shared
// across same-program scenarios by the campaign layer) instead of
// compiling it for this run. The plan must have been compiled from the
// same program and firmware config; Run checks the command count.
func withCompiled(c *firmware.Compiled) RunOption {
	return func(rc *runConfig) { rc.plan = c }
}

// WithDetector attaches a live streaming detector to the run, fed from
// the board's primary tap: every capture transaction is fed to it about
// when the hardware would emit it. Under AbortOnTrip the simulation
// stops the moment the detector trips; under FlagOnly the print finishes
// and the verdict lands in Result.Detections. Any number of detectors
// may be attached; each one's finalized report is returned in attachment
// order.
func WithDetector(d detect.Detector, policy TripPolicy) RunOption {
	return WithDetectorAt(BindPrimary, d, policy)
}

// WithDetectorAt attaches a live detector bound to a specific tap: the
// Arduino side (what the firmware commanded), the RAMPS side (what the
// printer received — visible board tampering), or the dual pair feed for
// attestation-style detectors that diff the two views of the same print.
// The board must actually tap the bound side (WithTapSide); a dual
// binding additionally requires the detector to implement
// detect.PairObserver. Both constraints are validated when Run starts,
// independent of option order.
func WithDetectorAt(binding TapBinding, d detect.Detector, policy TripPolicy) RunOption {
	return func(rc *runConfig) {
		rc.detectors = append(rc.detectors, &boundDetector{d: d, policy: policy, binding: binding})
	}
}

// WithProgress registers a callback invoked after every simulation step —
// a hook for progress bars and streaming dashboards. Attaching it makes
// the run step in capture-window increments.
func WithProgress(fn func(RunProgress)) RunOption {
	return func(rc *runConfig) { rc.progress = fn }
}

// Run executes the program to completion (or kill, or detector abort),
// lets the simulation settle, and collects the result. The context
// cancels the run between simulation steps; options bound the simulated
// time and attach live detectors.
func (tb *Testbed) Run(ctx context.Context, prog gcode.Program, opts ...RunOption) (*Result, error) {
	rc := runConfig{limit: DefaultRunBudget}
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.limit <= 0 {
		return nil, fmt.Errorf("offramps: Run limit must be positive")
	}
	if len(rc.detectors) > 0 && tb.Board == nil {
		return nil, fmt.Errorf("offramps: live detectors require the MITM path (captures come from the board)")
	}
	if rc.mode != CaptureFull && rc.mode != CaptureFingerprint {
		return nil, fmt.Errorf("offramps: unknown capture mode %v", rc.mode)
	}
	if rc.mode == CaptureFingerprint && tb.Board != nil {
		if err := tb.Board.SetCaptureMode(capture.ModeFingerprint); err != nil {
			return nil, fmt.Errorf("offramps: %w", err)
		}
	}
	if err := tb.bindDetectors(&rc); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	if err := tb.Firmware.Load(prog, rc.plan); err != nil {
		return nil, fmt.Errorf("offramps: %w", err)
	}
	if err := tb.Firmware.Start(); err != nil {
		return nil, fmt.Errorf("offramps: %w", err)
	}

	// With live detectors or a progress callback the simulation steps in
	// capture-window increments so each transaction is observed about
	// when the hardware would emit it; otherwise whole seconds.
	step := sim.Time(sim.Second)
	if tb.Board != nil && (len(rc.detectors) > 0 || rc.progress != nil) {
		step = tb.Board.Config().ExportPeriod
	}

	res := &Result{}
	deadline := tb.Engine.Now() + rc.limit
	for !tb.Firmware.Done() && !res.Aborted {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("offramps: run cancelled: %w", err)
		}
		if tb.Engine.Now() >= deadline {
			return nil, &ErrTimeout{Limit: rc.limit}
		}
		if err := tb.Engine.Run(tb.Engine.Now() + step); err != nil {
			return nil, fmt.Errorf("offramps: simulation: %w", err)
		}
		if err := tb.feedDetectors(&rc, res, true); err != nil {
			return nil, err
		}
		if rc.progress != nil {
			rc.progress(tb.progressSnapshot(&rc))
		}
	}
	finished := tb.Firmware.FinishedAt()
	if !res.Aborted {
		// Normal completion: settle to observe post-kill physics, then
		// feed the trailing windows. It is too late to abort a finished
		// print, so trips here never truncate the feed — every detector
		// sees the full stream and the end-of-print checks run in each
		// detector's Finalize.
		if err := tb.Engine.Run(tb.Engine.Now() + tb.opts.settle); err != nil {
			return nil, fmt.Errorf("offramps: settling: %w", err)
		}
		if err := tb.feedDetectors(&rc, res, false); err != nil {
			return nil, err
		}
		if rc.progress != nil {
			rc.progress(tb.progressSnapshot(&rc))
		}
	}
	if tb.Board != nil {
		tb.Board.StopCapture()
	}

	res.Completed = !res.Aborted && tb.Firmware.Err() == nil
	res.HaltError = tb.Firmware.Err()
	res.Duration = finished
	if res.Aborted {
		res.Duration = tb.Engine.Now()
	}
	res.Quality = tb.Plant.Part().AssessQuality(1.0)
	res.Part = tb.Plant.Part()
	res.PeakHotendTemp = tb.Plant.PeakHotendTemp()
	res.PeakBedTemp = tb.Plant.PeakBedTemp()
	res.HotendExceededSafe = tb.Plant.HotendExceededSafe()
	res.FanDutyAtEnd = tb.Plant.FanDuty()
	res.PeakFanDuty = tb.Plant.PeakFanDuty()
	res.StepsLost = make(map[signal.Axis]uint64, 4)
	for _, a := range signal.Axes {
		res.StepsLost[a] = tb.Plant.Driver(a).StepsLost()
	}
	if tb.Board != nil {
		if rc.mode == CaptureFull {
			res.Recording = tb.Board.Recording()
			res.ArduinoRecording = tb.Board.RecordingAt(fpga.TapArduino)
			res.RAMPSRecording = tb.Board.RecordingAt(fpga.TapRAMPS)
		}
		res.Fingerprint = tb.Board.Fingerprint()
		res.ArduinoFingerprint = tb.Board.FingerprintAt(fpga.TapArduino)
		res.RAMPSFingerprint = tb.Board.FingerprintAt(fpga.TapRAMPS)
	}
	for _, bd := range rc.detectors {
		rep := bd.d.Finalize()
		if bd.pair != nil {
			// The pair feed delivers only complete pairs; windows one side
			// exported and the other never did are a divergence the
			// detector cannot see on its own (a board suppressing its
			// trailing exports must not attest clean).
			detect.FlagImbalance(rep, bd.down.total()-bd.up.total())
		}
		res.Detections = append(res.Detections, rep)
		if rep.TrojanLikely {
			res.TrojanLikely = true
		}
	}
	return res, nil
}

// bindDetectors resolves every attached detector's tap binding against
// the board's actual tap topology and subscribes the per-side streaming
// feeds. Validation runs after all options are applied, so the outcome
// is independent of option order: a detector bound to an untapped side,
// a dual binding on a single-tap board, a pair-consuming detector bound
// to one side, and a plain detector bound to the dual feed all fail
// here, before any simulation happens.
func (tb *Testbed) bindDetectors(rc *runConfig) error {
	if len(rc.detectors) == 0 {
		return nil
	}
	feeds := make(map[fpga.TapSide]*sideFeed, 2)
	subscribe := func(side fpga.TapSide) (*sideFeed, error) {
		if f, ok := feeds[side]; ok {
			return f, nil
		}
		f := &sideFeed{}
		if err := tb.Board.OnExport(side, func(tx capture.Transaction) {
			f.txs = append(f.txs, tx)
		}); err != nil {
			return nil, err
		}
		feeds[side] = f
		return f, nil
	}
	boardTap := tb.Board.Config().Tap
	for _, bd := range rc.detectors {
		pair, isPair := bd.d.(detect.PairObserver)
		if bd.binding == BindDual {
			if boardTap != fpga.TapDual {
				return fmt.Errorf("offramps: config error: detector %s is bound to the dual tap but the board taps %v (add WithTapSide(fpga.TapDual))", bd.d.Name(), boardTap)
			}
			if !isPair {
				return fmt.Errorf("offramps: config error: detector %s is bound to the dual tap but does not consume observation pairs", bd.d.Name())
			}
			bd.pair = pair
			var err error
			if bd.up, err = subscribe(fpga.TapArduino); err != nil {
				return fmt.Errorf("offramps: %w", err)
			}
			if bd.down, err = subscribe(fpga.TapRAMPS); err != nil {
				return fmt.Errorf("offramps: %w", err)
			}
			continue
		}
		if isPair {
			return fmt.Errorf("offramps: config error: detector %s consumes both taps; bind it with BindDual", bd.d.Name())
		}
		var side fpga.TapSide
		switch bd.binding {
		case BindPrimary:
			side = tb.Board.PrimaryTap()
		case BindArduino:
			side = fpga.TapArduino
		case BindRAMPS:
			side = fpga.TapRAMPS
		default:
			return fmt.Errorf("offramps: unknown tap binding %v", bd.binding)
		}
		if (side == fpga.TapArduino && !boardTap.TapsArduino()) ||
			(side == fpga.TapRAMPS && !boardTap.TapsRAMPS()) {
			return fmt.Errorf("offramps: config error: detector %s is bound to the %v tap but the board taps %v (see WithTapSide)", bd.d.Name(), side, boardTap)
		}
		f, err := subscribe(side)
		if err != nil {
			return fmt.Errorf("offramps: detector %s: %w", bd.d.Name(), err)
		}
		bd.src = f
	}
	return nil
}

// feedDetectors drains the per-side streaming feeds into every attached
// detector, window by window in rounds: round r delivers window r (or
// pair r, for a dual binding) to each detector in attachment order, so
// detectors on different taps advance in lockstep. While the print is
// still running (allowAbort) a trip from an AbortOnTrip detector records
// the abort and stops the feed at the end of its round; after
// completion, trips only flag and the whole stream is delivered.
func (tb *Testbed) feedDetectors(rc *runConfig, res *Result, allowAbort bool) error {
	if tb.Board == nil || len(rc.detectors) == 0 {
		return nil
	}
	for {
		progressed := false
		for _, bd := range rc.detectors {
			var v detect.Verdict
			if bd.pair != nil {
				if bd.fed >= bd.up.total() || bd.fed >= bd.down.total() {
					continue
				}
				v = bd.pair.ObservePair(bd.up.txs[bd.fed-bd.up.base], bd.down.txs[bd.fed-bd.down.base])
			} else {
				if bd.fed >= bd.src.total() {
					continue
				}
				v = bd.d.Observe(bd.src.txs[bd.fed-bd.src.base])
			}
			bd.fed++
			progressed = true
			if v.Err != nil {
				return fmt.Errorf("offramps: detector %s: %w", bd.d.Name(), v.Err)
			}
			if v.Tripped && !bd.tripped {
				bd.tripped = true
				if allowAbort && bd.policy == AbortOnTrip && !res.Aborted {
					res.Aborted = true
					res.AbortedAt = tb.Engine.Now()
					res.TripReason = v.Reason()
				}
			}
		}
		if !progressed || res.Aborted {
			compactFeeds(rc)
			return nil
		}
	}
}

// compactFeeds drops feed entries every detector has consumed, shifting
// the survivors to the front so the buffers stay O(detector lag) across
// the whole run instead of retaining every window ever streamed. Without
// this, fingerprint mode would still accumulate an O(windows) shadow of
// the trace inside the feeds.
func compactFeeds(rc *runConfig) {
	minFed := func(f *sideFeed) int {
		low := -1
		for _, bd := range rc.detectors {
			if bd.src == f || bd.up == f || bd.down == f {
				if low < 0 || bd.fed < low {
					low = bd.fed
				}
			}
		}
		return low
	}
	seen := make(map[*sideFeed]bool, 2)
	for _, bd := range rc.detectors {
		for _, f := range []*sideFeed{bd.src, bd.up, bd.down} {
			if f == nil || seen[f] {
				continue
			}
			seen[f] = true
			low := minFed(f)
			if keep := low - f.base; keep > 0 {
				n := copy(f.txs, f.txs[keep:])
				f.txs = f.txs[:n]
				f.base = low
			}
		}
	}
}

func (tb *Testbed) progressSnapshot(rc *runConfig) RunProgress {
	p := RunProgress{Now: tb.Engine.Now()}
	if tb.Board != nil {
		p.Windows = tb.Board.Windows()
	}
	for _, bd := range rc.detectors {
		if bd.tripped {
			p.Tripped = true
		}
	}
	return p
}
