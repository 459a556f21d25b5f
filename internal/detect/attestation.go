package detect

import (
	"fmt"

	"offramps/internal/capture"
)

// PairObserver is implemented by detectors that consume synchronized
// per-window observation *pairs* from two taps of the same run — the
// upstream (Arduino-side) view of what the firmware commanded and the
// downstream (RAMPS-side) view of what the printer received. The run
// layer feeds a dual-bound detector through ObservePair instead of
// Observe; binding a PairObserver to a single tap (or a plain Detector
// to the dual tap) is a configuration error caught before the print
// starts.
type PairObserver interface {
	Detector
	// ObservePair consumes one window's transaction from each side.
	// The two transactions must carry the same index.
	ObservePair(upstream, downstream capture.Transaction) Verdict
}

// attestationName is the Attestation detector's registry and report
// identity.
const attestationName = "attestation"

// DefaultAttestationConfig returns the attestation detector's default
// parameters. Unlike the golden comparison — two physically separate
// prints whose timing drifts apart ("time noise", bounded by the
// paper's 5 % margin) — attestation diffs two simultaneous views of ONE
// print. The only legitimate divergence between them is window-boundary
// skew: the two exporters synchronize on their own bus's first step
// edge, so a step landing within the FPGA propagation delay of a window
// boundary can be counted one window apart. That is worth a few steps,
// never a few percent, so the margin is far tighter than the golden
// detector's.
func DefaultAttestationConfig() Config {
	return Config{Margin: 0.01, MinAbsolute: 4, MaxReported: 64}
}

// Attestation is the golden-free board self-attestation detector: it
// consumes the two synchronized captures of a dual-tap run and flags any
// divergence between the board's upstream and downstream views of the
// same print. Anything the board itself modified — and nothing else —
// shows up as disagreement between the two taps, so a SINGLE simulation
// detects board-resident trojans with no golden reference and no second
// run. This inverts the paper's §V-D co-location limitation ("both the
// attacks and defense would be co-located in the same FPGA"): instead of
// trusting the board's one capture, the rig captures both sides and
// makes the board testify against itself.
//
// Attestation is a live detector: it trips at the first out-of-margin
// pair, so under AbortOnTrip a board-run trojan halts its own print
// mid-job. Finalize runs a 0 %-margin final-count check between the last
// observed pair, catching sub-margin skimming the same way the golden
// detector's end-of-print check does.
type Attestation struct {
	cfg Config

	pos      int                  // next pair index expected
	pending  *capture.Transaction // upstream half of the current pair
	compared int

	mismatches         []Mismatch
	numMismatches      int
	largest            float64
	largestSubstantial float64
	tripped            bool
	trip               *Mismatch

	lastUp   capture.Transaction
	lastDown capture.Transaction
	seen     bool // at least one complete pair observed
}

// NewAttestation builds the dual-tap self-attestation detector.
func NewAttestation(cfg Config) (*Attestation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Attestation{cfg: cfg}, nil
}

// Name identifies the detector in reports.
func (a *Attestation) Name() string { return attestationName }

// ObservePair consumes one window from each side and compares them. The
// upstream transaction is the reference: it records what the firmware
// commanded, so any downstream deviation is the board's own doing.
func (a *Attestation) ObservePair(upstream, downstream capture.Transaction) Verdict {
	if v := a.Observe(upstream); v.Err != nil {
		return v
	}
	return a.Observe(downstream)
}

// Observe implements the plain Detector stream protocol over an
// interleaved dual stream: for each window index, the upstream
// transaction arrives first and its downstream counterpart second. Out-
// of-protocol indices are stream errors — an attestation fed a single-
// tap stream fails loudly instead of comparing a window against its own
// neighbour.
func (a *Attestation) Observe(tx capture.Transaction) Verdict {
	if a.pending == nil {
		if int(tx.Index) != a.pos {
			v := a.verdict()
			v.Err = fmt.Errorf("detect: attestation expected upstream index %d, got %d", a.pos, tx.Index)
			return v
		}
		up := tx
		a.pending = &up
		return a.verdict()
	}
	if tx.Index != a.pending.Index {
		v := a.verdict()
		v.Err = fmt.Errorf("detect: attestation expected downstream index %d, got %d", a.pending.Index, tx.Index)
		return v
	}
	up := *a.pending
	a.pending = nil
	a.pos++
	// lastUp/lastDown advance only on pair completion, so the final
	// 0 %-margin check always compares the two sides at the SAME window —
	// a dangling upstream half never skews it.
	a.lastUp = up
	a.lastDown = tx
	a.seen = true
	a.compared++

	for _, col := range capture.Columns {
		uv, _ := up.Column(col)
		dv, _ := tx.Column(col)
		pd := percentDiff(uv, dv)
		if pd > a.largest {
			a.largest = pd
		}
		if (uv >= SubstantialCount || uv <= -SubstantialCount) && pd > a.largestSubstantial {
			a.largestSubstantial = pd
		}
		absDiff := int64(uv) - int64(dv)
		if absDiff < 0 {
			absDiff = -absDiff
		}
		if pd > a.cfg.Margin*100 && absDiff > int64(a.cfg.MinAbsolute) {
			a.numMismatches++
			m := Mismatch{Index: tx.Index, Column: col, Golden: uv, Suspect: dv}
			if len(a.mismatches) < a.cfg.MaxReported {
				a.mismatches = append(a.mismatches, m)
			}
			if !a.tripped {
				a.tripped = true
				a.trip = &m
			}
		}
	}
	return a.verdict()
}

func (a *Attestation) verdict() Verdict {
	return Verdict{Tripped: a.tripped, Trip: a.trip}
}

// Tripped reports whether the detector has flagged the print.
func (a *Attestation) Tripped() bool { return a.tripped }

// Finalize runs the 0 %-margin final check between the last complete
// pair's two sides and assembles the report. A dangling unpaired
// upstream window (possible only when replaying a truncated interleaved
// stream — the live feed delivers complete pairs) surfaces as a negative
// LengthDelta and flags the report, matching ReplayDual's and the run
// layer's imbalance semantics: a window one view produced and the other
// never did is itself a divergence. Finalize does not mutate detector
// state.
func (a *Attestation) Finalize() *Report {
	r := &Report{
		Detector:           a.Name(),
		Mismatches:         append([]Mismatch(nil), a.mismatches...),
		NumMismatches:      a.numMismatches,
		NumCompared:        a.compared,
		LargestPercent:     a.largest,
		LargestSubstantial: a.largestSubstantial,
		Tripped:            a.tripped,
		Trip:               a.trip,
	}
	if a.pending != nil {
		// Downstream view is one window short of upstream.
		r.LengthDelta = -1
	}
	// An entirely empty stream is a non-verdict — unlike the golden
	// detector there is no reference to have diverged from — but once
	// anything arrived, the final check and the pairing imbalance both
	// count as divergence.
	if a.seen {
		for _, col := range capture.Columns {
			uv, _ := a.lastUp.Column(col)
			dv, _ := a.lastDown.Column(col)
			if uv != dv {
				r.Final = append(r.Final, FinalMismatch{Column: col, Golden: uv, Suspect: dv})
			}
		}
	}
	r.TrojanLikely = a.tripped || r.NumMismatches > 0 || len(r.Final) > 0 || r.LengthDelta != 0
	return r
}

// ReplayDual feeds two synchronized recordings of the same run through a
// pair-consuming detector window by window and finalizes it — the batch
// form of dual-tap attestation. Only the overlapping prefix is fed as
// pairs; a side-length difference is stamped onto the report via
// FlagImbalance, because windows one view produced and the other never
// did are themselves a divergence between the views (a board suppressing
// its trailing exports must not pass attestation clean).
func ReplayDual(upstream, downstream *capture.Recording, d PairObserver) (*Report, error) {
	if upstream == nil || downstream == nil {
		return nil, fmt.Errorf("detect: nil recording")
	}
	n := upstream.Len()
	if downstream.Len() < n {
		n = downstream.Len()
	}
	for i := 0; i < n; i++ {
		if v := d.ObservePair(upstream.Transactions[i], downstream.Transactions[i]); v.Err != nil {
			return nil, fmt.Errorf("detect: dual replay through %s: %w", d.Name(), v.Err)
		}
	}
	rep := d.Finalize()
	FlagImbalance(rep, downstream.Len()-upstream.Len())
	return rep, nil
}

// FlagImbalance records a side-length imbalance (downstream − upstream
// windows) on a dual-feed report and flags it: one view having windows
// the other never produced is a divergence no per-pair comparison can
// see. A zero delta, or a report that already carries its own length
// accounting, is left untouched. Callers that pair the two streams
// themselves (ReplayDual, the run layer's dual feed) apply this after
// Finalize, since the detector is only ever shown complete pairs.
func FlagImbalance(rep *Report, delta int) {
	if delta == 0 || rep.LengthDelta != 0 {
		return
	}
	rep.LengthDelta = delta
	rep.TrojanLikely = true
}
