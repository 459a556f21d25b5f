package firmware

import (
	"math"
	"testing"
	"testing/quick"

	"offramps/internal/sim"
)

func TestProfileTrapezoid(t *testing.T) {
	// 100 mm at 50 mm/s, 1000 mm/s²: accel dist = 1.25 mm each end,
	// cruise 97.5 mm.
	p := newProfile(100, 50, 1000)
	if p.vPeak != 50 {
		t.Errorf("vPeak = %v, want 50", p.vPeak)
	}
	if math.Abs(p.dAcc-1.25) > 1e-9 {
		t.Errorf("dAcc = %v, want 1.25", p.dAcc)
	}
	wantTotal := 2*0.05 + 97.5/50
	if math.Abs(p.total()-wantTotal) > 1e-9 {
		t.Errorf("total = %v, want %v", p.total(), wantTotal)
	}
}

func TestProfileTriangular(t *testing.T) {
	// 1 mm at 100 mm/s, 1000 mm/s²: can't reach 100 (needs 5 mm each
	// side). Peak = sqrt(a·d) = sqrt(1000).
	p := newProfile(1, 100, 1000)
	if p.tCru != 0 {
		t.Errorf("tCru = %v, want 0", p.tCru)
	}
	if math.Abs(p.vPeak-math.Sqrt(1000)) > 1e-9 {
		t.Errorf("vPeak = %v", p.vPeak)
	}
}

func TestProfileTimeAtEndpoints(t *testing.T) {
	p := newProfile(40, 30, 1200)
	if p.timeAt(0) != 0 {
		t.Error("timeAt(0) != 0")
	}
	if math.Abs(p.timeAt(40)-p.total()) > 1e-12 {
		t.Error("timeAt(dist) != total")
	}
	if p.timeAt(-5) != 0 || math.Abs(p.timeAt(500)-p.total()) > 1e-12 {
		t.Error("timeAt does not clamp")
	}
}

// Property: timeAt is monotonically non-decreasing in distance and bounded
// by the total duration, for arbitrary move geometry.
func TestProfileMonotoneProperty(t *testing.T) {
	f := func(rawDist, rawV uint16, steps uint8) bool {
		dist := 0.1 + float64(rawDist%2000)/10 // 0.1..200 mm
		v := 1 + float64(rawV%3000)/10         // 1..300 mm/s
		p := newProfile(dist, v, 1200)
		n := int(steps%100) + 2
		prev := -1.0
		for k := 0; k <= n; k++ {
			s := dist * float64(k) / float64(n)
			tm := p.timeAt(s)
			if tm < prev-1e-12 || tm > p.total()+1e-12 {
				return false
			}
			prev = tm
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanMoveStepRateCap(t *testing.T) {
	// 10 mm move, 5000 steps on the dominant axis, at a speed that would
	// exceed the cap: 500 steps/mm × 100 mm/s = 50 kHz >> 18 kHz.
	pm := planMove([4]int{5000, 0, 0, 0}, 10, 100, 1200, 18_000)
	cruiseRate := pm.prof.vPeak * 500 // steps/s at peak
	if cruiseRate > 18_000*1.001 {
		t.Errorf("cruise step rate %v exceeds cap", cruiseRate)
	}
}

func TestPlanMoveDirections(t *testing.T) {
	pm := planMove([4]int{-80, 80, 0, -10}, 2, 50, 1200, 18_000)
	if !pm.axes[0].negative || pm.axes[0].steps != 80 {
		t.Errorf("X plan = %+v", pm.axes[0])
	}
	if pm.axes[1].negative || pm.axes[1].steps != 80 {
		t.Errorf("Y plan = %+v", pm.axes[1])
	}
	if pm.axes[2].steps != 0 {
		t.Errorf("Z plan = %+v", pm.axes[2])
	}
	if !pm.axes[3].negative || pm.axes[3].steps != 10 {
		t.Errorf("E plan = %+v", pm.axes[3])
	}
}

func TestPlanMoveZeroDistance(t *testing.T) {
	pm := planMove([4]int{0, 0, 0, 0}, 0, 50, 1200, 18_000)
	if pm.duration() != 0 {
		t.Errorf("zero move duration = %v", pm.duration())
	}
}

func TestStepTimesOrderedWithinMove(t *testing.T) {
	pm := planMove([4]int{800, 0, 0, 0}, 10, 50, 1200, 18_000)
	tr := &stepTrain{prof: pm.prof, n: 800}
	var prev sim.Time = -1
	for k := 0; k < 800; k++ {
		at := tr.RiseAt(k)
		if at <= prev {
			t.Fatalf("step %d at %v not after previous %v", k, at, prev)
		}
		if at > pm.duration() {
			t.Fatalf("step %d at %v beyond duration %v", k, at, pm.duration())
		}
		prev = at
	}
}
