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
	// AbortOnTrip halts the print at the end of the export period in
	// which the detector trips — "enabling a user to halt a print as
	// soon as a Trojan is suspected" (paper §V-C), saving machine time
	// and material cost (§V-A).
	AbortOnTrip
)

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

// CaptureMode selects what the host keeps of the capture the board
// streams. The board itself keeps only a rolling capture.Fingerprint
// per tap and streams every transaction to its subscribers (the
// paper's FPGA counts and exports; the host records). CaptureFull (the
// zero value) records each tapped side's complete transaction trace —
// the paper's CSV — into Result.Recording and its per-side siblings.
// CaptureFingerprint records nothing: detector verdicts are identical
// (they observe the same stream), but no trace is allocated, so a run's
// memory cost is O(1) in window count and the Recording fields are nil.
// Result.Fingerprint (and siblings) are populated in both modes.
type CaptureMode int

const (
	// CaptureFull records the full transaction trace (default).
	CaptureFull CaptureMode = iota
	// CaptureFingerprint keeps only the board's rolling fingerprints.
	CaptureFingerprint
)

// String names the mode for reports.
func (m CaptureMode) String() string {
	switch m {
	case CaptureFull:
		return "full"
	case CaptureFingerprint:
		return "fingerprint"
	default:
		return fmt.Sprintf("CaptureMode(%d)", int(m))
	}
}

// RunOption configures one Testbed.Run.
type RunOption func(*runConfig)

type boundDetector struct {
	d       detect.Detector
	policy  TripPolicy
	binding TapBinding
	// pair is non-nil exactly when binding == BindDual (validated at run
	// start); up and down queue each side's windows until the other
	// side's window of the same index arrives.
	pair     detect.PairObserver
	up, down []capture.Transaction
}

type runConfig struct {
	limit     sim.Time
	detectors []*boundDetector
	mode      CaptureMode
	plan      *firmware.Compiled

	// The detectors' verdicts land here from inside the export events:
	// res takes a trip's abort, err the first stream error, and settling
	// is set once the print is finished and too late to abort.
	res      *Result
	err      error
	settling bool
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
// the board's primary tap: it observes every capture transaction at the
// simulated instant the board exports it. Under AbortOnTrip the
// simulation stops at the end of the export period in which the
// detector trips; under FlagOnly the print finishes and the verdict
// lands in Result.Detections. Any number of detectors may be attached;
// each one's finalized report is returned in attachment order.
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
	var recs [2]*capture.Recording // indexed by fpga.TapSide
	if rc.mode == CaptureFull && tb.Board != nil {
		recs = tb.recordTaps()
	}
	res := &Result{}
	rc.res = res
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

	// With live detectors the simulation steps one export period at a
	// time, so each step holds exactly one export per tapped side and an
	// abort takes effect at the end of the period that tripped it;
	// otherwise whole seconds.
	step := sim.Time(sim.Second)
	if len(rc.detectors) > 0 {
		step = tb.Board.Config().ExportPeriod
	}

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
		if rc.err != nil {
			return nil, rc.err
		}
		if res.Aborted {
			res.AbortedAt = tb.Engine.Now()
		}
	}
	finished := tb.Firmware.FinishedAt()
	if !res.Aborted {
		// Normal completion: settle to observe post-kill physics. It is
		// too late to abort a finished print, so trips here only flag —
		// every detector sees the full stream and the end-of-print checks
		// run in each detector's Finalize.
		rc.settling = true
		if err := tb.Engine.Run(tb.Engine.Now() + tb.opts.settle); err != nil {
			return nil, fmt.Errorf("offramps: settling: %w", err)
		}
		if rc.err != nil {
			return nil, rc.err
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
			res.Recording = recs[tb.Board.PrimaryTap()]
			res.ArduinoRecording = recs[fpga.TapArduino]
			res.RAMPSRecording = recs[fpga.TapRAMPS]
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
			detect.FlagImbalance(rep, len(bd.down)-len(bd.up))
		}
		res.Detections = append(res.Detections, rep)
		if rep.TrojanLikely {
			res.TrojanLikely = true
		}
	}
	return res, nil
}

// recordTaps subscribes one recording to each tapped side of the board:
// the host's copy of the capture the board streams, indexed by side
// (nil for an untapped one). At its first export a recording takes the
// capture's start from the board and a backing array — a pooled one
// from the testbed's core when it has one — so a capture that never
// started keeps nil Transactions.
func (tb *Testbed) recordTaps() [2]*capture.Recording {
	var recs [2]*capture.Recording
	for _, side := range []fpga.TapSide{fpga.TapArduino, fpga.TapRAMPS} {
		rec := &capture.Recording{Period: tb.Board.Config().ExportPeriod}
		err := tb.Board.OnExport(side, func(tx capture.Transaction) {
			if rec.Transactions == nil {
				rec.StartedAt = tb.Board.FingerprintAt(side).StartedAt
				rec.Transactions = tb.recordBuffer()
			}
			rec.Transactions = append(rec.Transactions, tx)
		})
		if err == nil { // OnExport fails only on an untapped side
			recs[side] = rec
		}
	}
	return recs
}

// recordBuffer returns an empty transaction buffer for one recording: a
// reclaimed one from the testbed's core, else a fresh one sized for a
// typical print (the standard test part runs ≈2 simulated minutes,
// ≈1.2k windows at the 0.1 s export period; longer prints still grow by
// amortized append).
func (tb *Testbed) recordBuffer() []capture.Transaction {
	if tb.opts.core != nil {
		if buf := tb.opts.core.takeRecBuf(); buf != nil {
			return buf
		}
	}
	return make([]capture.Transaction, 0, 2048)
}

// bindDetectors resolves every attached detector's tap binding against
// the board's actual tap topology and subscribes each detector to the
// board's stream: one subscriber per bound side, observing each window
// inside the export event. Validation runs after all options are
// applied, so the outcome is independent of option order: a detector
// bound to an untapped side, a dual binding on a single-tap board, a
// pair-consuming detector bound to one side, and a plain detector bound
// to the dual feed all fail here, before any simulation happens.
func (tb *Testbed) bindDetectors(rc *runConfig) error {
	if len(rc.detectors) == 0 {
		return nil
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
			// Each side queues its window; the detector observes a pair
			// once both sides have exported it.
			queue := func(q *[]capture.Transaction) func(capture.Transaction) {
				return func(tx capture.Transaction) {
					*q = append(*q, tx)
					if len(bd.up) > 0 && len(bd.down) > 0 {
						rc.observe(bd, pair.ObservePair(bd.up[0], bd.down[0]))
						bd.up = bd.up[:copy(bd.up, bd.up[1:])]
						bd.down = bd.down[:copy(bd.down, bd.down[1:])]
					}
				}
			}
			if err := tb.Board.OnExport(fpga.TapArduino, queue(&bd.up)); err != nil {
				return fmt.Errorf("offramps: %w", err)
			}
			if err := tb.Board.OnExport(fpga.TapRAMPS, queue(&bd.down)); err != nil {
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
		if err := tb.Board.OnExport(side, func(tx capture.Transaction) {
			rc.observe(bd, bd.d.Observe(tx))
		}); err != nil {
			return fmt.Errorf("offramps: detector %s: %w", bd.d.Name(), err)
		}
	}
	return nil
}

// observe applies one verdict to the run. The first stream error fails
// the run once the current simulation step returns, and every later
// verdict is ignored. A trip of an AbortOnTrip detector aborts the
// print unless it is already settling; the first trip to land, in
// export order, names the reason, and the run loop stops at the end of
// the step.
func (rc *runConfig) observe(bd *boundDetector, v detect.Verdict) {
	switch {
	case rc.err != nil:
	case v.Err != nil:
		rc.err = fmt.Errorf("offramps: detector %s: %w", bd.d.Name(), v.Err)
	case v.Tripped && bd.policy == AbortOnTrip && !rc.settling && !rc.res.Aborted:
		rc.res.Aborted = true
		rc.res.TripReason = v.Reason()
	}
}
