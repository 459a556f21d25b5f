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

// stepTrain is the step pulses of one axis of one planned move, in
// closed form: pulse k rises at base plus the profile time of pulse k.
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
	base  sim.Time // absolute move origin (DIR setup already honoured)
	width sim.Time
	k, n  int
}

// RiseAt returns the absolute time of pulse k's rising edge — the same
// arithmetic as plannedMove.stepTime, anchored at base.
func (t *stepTrain) RiseAt(k int) sim.Time {
	frac := (float64(k) + 0.5) / float64(t.n)
	return t.base + sim.FromSeconds(t.prof.timeAt(frac*t.prof.dist))
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

// TrainCache recycles step trains. Each firmware owns one by default;
// a pooled testbed core (Config.Trains) shares a cache across the
// sequential runs of one campaign worker, so a reused rig steps with
// zero train allocations. Released trains are fully zeroed, so a cache
// never pins a dead run's engine or firmware. Not safe for concurrent
// use — one cache belongs to one worker at a time.
type TrainCache struct{ pool []*stepTrain }

// NewTrainCache returns an empty cache.
func NewTrainCache() *TrainCache { return &TrainCache{} }

// acquireTrain takes a train from the pool or allocates one.
func (fw *Firmware) acquireTrain() *stepTrain {
	pool := fw.trains.pool
	if n := len(pool); n > 0 {
		t := pool[n-1]
		pool[n-1] = nil
		fw.trains.pool = pool[:n-1]
		return t
	}
	return new(stepTrain)
}

// releaseTrain returns a finished train to the pool.
func (fw *Firmware) releaseTrain(t *stepTrain) {
	*t = stepTrain{}
	fw.trains.pool = append(fw.trains.pool, t)
}
