package firmware

import (
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// stepTrain.FireEdge arguments: which edge of the pulse to emit.
const (
	trainRise uint64 = iota
	trainFall
)

// stepTrain is the step pulses of one axis of one planned move: pulse
// k rises at base plus its offset from the move's origin, read from the
// compiled table of the train's shape or computed in closed form.
//
// Handed to the bus's TrainSink as a signal.Train, with the other
// trains of its move, the train puts no events on the queue at all:
// the FPGA board applies its edges lazily on a clean path and calls
// Done when it is through. Otherwise the
// train runs eagerly through the engine's allocation-free fast path,
// keeping at most one rise and one fall in flight: each rising edge
// schedules its own falling edge and the next rise. Both routes give
// identical pulse timestamps, so captures stay bit-identical.
type stepTrain struct {
	fw    *Firmware
	line  *signal.Line
	prof  profile
	off   []uint32 // rise offsets in ns, shared by the shape's trains; nil: closed form
	base  sim.Time // absolute move origin (DIR setup already honoured)
	width sim.Time
	k, n  int
}

// RiseAt returns the absolute time of pulse k's rising edge: base plus
// the pulse's rise offset (profile.riseOffset). A train whose shape
// Compile tabulated reads the offset from its table; any other train
// computes it in closed form, with the expression the table holds. It
// is the one source of a rise time: the eager train schedules its rises
// with it and the FPGA board replays lazy ones with it, so both land on
// the same nanosecond.
func (t *stepTrain) RiseAt(k int) sim.Time {
	if t.off != nil {
		return t.base + sim.Time(t.off[k])
	}
	return t.base + t.prof.riseOffset(k, t.n)
}

// FireEdge implements sim.EdgeTarget. A rise drives the line High, books
// the matching fall, and books the next pulse's rise; the final fall
// recycles the train into the firmware's pool.
func (t *stepTrain) FireEdge(arg uint64) {
	if arg == trainFall {
		t.line.Set(signal.Low)
		if t.k >= t.n {
			// Last falling edge: no pending event references the train.
			t.fw.releaseTrain(t)
		}
		return
	}
	if t.fw.killed {
		// Match the eager schedule's kill behaviour: suppressed rises
		// produce no edges (a pre-scheduled fall on an already-Low line
		// was a no-op). The train is abandoned to the collector — kills
		// happen at most once per run.
		return
	}
	t.line.Set(signal.High)
	engine := t.fw.engine
	engine.ScheduleEdge(engine.Now()+t.width, t, trainFall)
	t.k++
	if t.k < t.n {
		engine.ScheduleEdge(t.RiseAt(t.k), t, trainRise)
	}
}

// Done implements signal.Rises: a lazy train's consumer is through
// with it, so it returns to the pool.
func (t *stepTrain) Done() { t.fw.releaseTrain(t) }

// acquireTrain takes a train from the firmware's pool or allocates one.
// A print has at most a few trains in flight, so the pool reaches its
// steady state within the first moves.
func (fw *Firmware) acquireTrain() *stepTrain {
	if n := len(fw.trains); n > 0 {
		t := fw.trains[n-1]
		fw.trains[n-1] = nil
		fw.trains = fw.trains[:n-1]
		return t
	}
	return new(stepTrain)
}

// releaseTrain zeroes a finished train and returns it to the pool.
func (fw *Firmware) releaseTrain(t *stepTrain) {
	*t = stepTrain{}
	fw.trains = append(fw.trains, t)
}
