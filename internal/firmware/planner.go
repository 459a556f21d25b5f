package firmware

import (
	"math"

	"offramps/internal/sim"
)

// profile is a trapezoidal velocity profile over a move of given distance:
// accelerate at a to vPeak, cruise, decelerate. When the move is too short
// to reach vMax the profile degenerates to a triangle.
type profile struct {
	dist  float64 // total distance, mm
	a     float64 // acceleration, mm/s²
	vPeak float64 // attained peak velocity, mm/s
	tAcc  float64 // seconds accelerating
	tCru  float64 // seconds cruising
	dAcc  float64 // mm covered accelerating (== decelerating)
}

// newProfile plans a move of dist mm at target speed vMax with
// acceleration a. dist and a must be positive; vMax is clamped to a sane
// minimum.
func newProfile(dist, vMax, a float64) profile {
	if vMax < 0.01 {
		vMax = 0.01
	}
	p := profile{dist: dist, a: a}
	dAccFull := vMax * vMax / (2 * a)
	if 2*dAccFull <= dist {
		p.vPeak = vMax
		p.tAcc = vMax / a
		p.dAcc = dAccFull
		p.tCru = (dist - 2*dAccFull) / vMax
	} else {
		p.vPeak = math.Sqrt(a * dist)
		p.tAcc = p.vPeak / a
		p.dAcc = dist / 2
		p.tCru = 0
	}
	return p
}

// total returns the move duration in seconds.
func (p profile) total() float64 { return 2*p.tAcc + p.tCru }

// timeAt returns the time (seconds from move start) at which the head has
// covered s mm. s is clamped to [0, dist].
func (p profile) timeAt(s float64) float64 {
	switch {
	case s <= 0:
		return 0
	case s >= p.dist:
		return p.total()
	case s < p.dAcc:
		return math.Sqrt(2 * s / p.a)
	case s <= p.dist-p.dAcc:
		return p.tAcc + (s-p.dAcc)/p.vPeak
	default:
		rem := p.dist - s
		return p.total() - math.Sqrt(2*rem/p.a)
	}
}

// riseOffset returns when pulse k of an n-pulse train rises, counted
// from the move's origin: pulses spread evenly over the move's distance,
// and the +0.5 centres each pulse within its distance slot so the first
// is not at the move's start (which would collide with DIR setup). It is
// the one expression of a rise offset: Compile's offset tables hold its
// values and stepTrain.RiseAt falls back to it, so both land on the same
// nanosecond. The explicit float64 conversion rounds the product, so no
// CPU fuses it with timeAt's arithmetic into a multiply-add.
func (p profile) riseOffset(k, n int) sim.Time {
	frac := (float64(k) + 0.5) / float64(n)
	return sim.FromSeconds(p.timeAt(float64(frac * p.dist)))
}

// axisPlan is the per-axis step schedule of one planned move.
type axisPlan struct {
	steps    int  // number of step pulses
	negative bool // DIR level: true = toward MIN
}

// plannedMove is a fully scheduled motion block.
type plannedMove struct {
	prof profile
	axes [4]axisPlan // indexed by axis order X,Y,Z,E (signal.Axes)
}

// planMove converts per-axis step deltas into a timed block. deltas are in
// microsteps (signed); feedrate is mm/s along the dominant geometry;
// distance is the Euclidean length in mm used for the velocity profile.
//
// The per-axis step rate cap is enforced by stretching the profile: if any
// axis would exceed maxStepRate at cruise, the feedrate is reduced. This is
// what keeps every STEP line inside the paper's measured < 20 kHz envelope.
func planMove(deltas [4]int, distance, feedrate, accel, maxStepRate float64) plannedMove {
	pm := plannedMove{}
	maxSteps := 0
	for i, d := range deltas {
		n := d
		if n < 0 {
			pm.axes[i].negative = true
			n = -n
		}
		pm.axes[i].steps = n
		if n > maxSteps {
			maxSteps = n
		}
	}
	if distance <= 0 || maxSteps == 0 {
		pm.prof = profile{dist: 0, a: accel}
		return pm
	}
	// Cap feedrate so the busiest axis stays under maxStepRate: that axis
	// emits maxSteps pulses over ~distance/feedrate seconds at cruise.
	stepsPerMM := float64(maxSteps) / distance
	if feedrate*stepsPerMM > maxStepRate {
		feedrate = maxStepRate / stepsPerMM
	}
	pm.prof = newProfile(distance, feedrate, accel)
	return pm
}

// minGap bounds from below the interval between consecutive rises of
// an axis with n pulses: a pulse slot of dist/n mm takes at least
// slot/vPeak, and truncating each rise to the nanosecond can shave
// one more nanosecond off.
func (pm plannedMove) minGap(n int) sim.Time {
	return sim.FromSeconds(pm.prof.dist/float64(n)/pm.prof.vPeak) - 1
}

// duration returns the block's total duration.
func (pm plannedMove) duration() sim.Time { return sim.FromSeconds(pm.prof.total()) }
