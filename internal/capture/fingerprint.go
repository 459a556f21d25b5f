package capture

import (
	"fmt"

	"offramps/internal/sim"
)

// FNV-1a 64-bit parameters; the digest is a running FNV-1a over the
// 16-byte wire frame of every exported transaction, so two captures have
// equal digests exactly when they exported identical frame sequences.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// AxisSummary condenses one axis of a capture into window statistics:
// the final counter value, its observed range, and the total absolute
// per-window movement. Together with the digest these are the compact
// per-axis embeddings the similarity-detection roadmap item matches
// against a fingerprint library.
type AxisSummary struct {
	Final         int64 `json:"final"`
	Min           int64 `json:"min"`
	Max           int64 `json:"max"`
	TotalAbsDelta int64 `json:"totalAbsDelta"`
}

// Fingerprint is a fixed-size, content-hashable summary of a capture:
// the window count and cadence, a running FNV-1a-64 digest over every
// exported frame, and per-axis window summaries. It is updated in place
// by Add with zero allocations, making it the O(1) stand-in for a full
// Recording in runs that keep no trace. Axes are indexed X, Y, Z, E.
type Fingerprint struct {
	Windows   int            `json:"windows"`
	Period    sim.Time       `json:"period"`
	StartedAt sim.Time       `json:"startedAt"`
	Digest    uint64         `json:"digest"`
	Axes      [4]AxisSummary `json:"axes"`

	// prev holds the previous window's counters for delta accounting.
	prev [4]int64
}

// Reset returns the fingerprint to its empty state, keeping Period.
func (fp *Fingerprint) Reset() {
	period := fp.Period
	*fp = Fingerprint{Period: period}
}

// Add folds one transaction into the fingerprint. It allocates nothing.
func (fp *Fingerprint) Add(t Transaction) {
	frame := t.Frame()
	h := fp.Digest
	if fp.Windows == 0 {
		h = fnvOffset64
	}
	for _, b := range frame {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	fp.Digest = h

	counts := [4]int64{int64(t.X), int64(t.Y), int64(t.Z), int64(t.E)}
	for i, c := range counts {
		s := &fp.Axes[i]
		if fp.Windows == 0 {
			s.Min, s.Max = c, c
		} else {
			if c < s.Min {
				s.Min = c
			}
			if c > s.Max {
				s.Max = c
			}
			d := c - fp.prev[i]
			if d < 0 {
				d = -d
			}
			s.TotalAbsDelta += d
		}
		s.Final = c
		fp.prev[i] = c
	}
	fp.Windows++
}

// Rehydrate restores the delta-accounting state a fingerprint loses
// across serialization (the previous window's counters are not part of
// the public summary). After the last Add the previous counters equal
// the per-axis Final values, so a rehydrated fingerprint is
// indistinguishable — including under reflect.DeepEqual — from the live
// fingerprint it was decoded from, and further Adds stay correct.
func (fp *Fingerprint) Rehydrate() {
	if fp.Windows == 0 {
		fp.prev = [4]int64{}
		return
	}
	for i := range fp.Axes {
		fp.prev[i] = fp.Axes[i].Final
	}
}

// Equal reports whether two fingerprints summarize identical captures.
func (fp *Fingerprint) Equal(other *Fingerprint) bool {
	if fp == nil || other == nil {
		return fp == other
	}
	return fp.Windows == other.Windows &&
		fp.Period == other.Period &&
		fp.StartedAt == other.StartedAt &&
		fp.Digest == other.Digest &&
		fp.Axes == other.Axes
}

// String renders a one-line summary.
func (fp *Fingerprint) String() string {
	return fmt.Sprintf("fingerprint{windows=%d digest=%016x final=[%d %d %d %d]}",
		fp.Windows, fp.Digest,
		fp.Axes[0].Final, fp.Axes[1].Final, fp.Axes[2].Final, fp.Axes[3].Final)
}

// FingerprintOf computes the fingerprint an exporter streaming rec's
// transaction sequence would have kept — the differential anchor
// between a recorded trace and its rolling summary.
func FingerprintOf(rec *Recording) Fingerprint {
	fp := Fingerprint{Period: rec.Period, StartedAt: rec.StartedAt}
	for _, t := range rec.Transactions {
		fp.Add(t)
	}
	return fp
}
