package signal

import "offramps/internal/sim"

// Rises gives the rise times of a closed-form STEP pulse train.
type Rises interface {
	// RiseAt returns the absolute time of pulse k's rising edge.
	RiseAt(k int) sim.Time
	// Done tells the train's owner that nothing reads it any more.
	Done()
}

// Train describes the STEP pulses of one axis of one planned move: N
// pulses of Width, the k-th rising at Rises.RiseAt(k). The firmware
// hands a move's trains to the bus's TrainSink instead of scheduling
// the edges, so a clean MITM path applies them without engine events.
type Train struct {
	Axis     Axis
	Rises    Rises
	N        int
	Width    sim.Time
	Negative bool // DIR is High (toward MIN) for the whole train
	// Issued is the instant the move was planned: pulse 0's scheduling
	// instant, and the tie-breaker behind every later one.
	Issued sim.Time
	// MinGap is a lower bound on the rise-to-rise interval.
	MinGap sim.Time
	// Until is the earliest instant the firmware may touch the axis's
	// lines again (the move's end).
	Until sim.Time
	// Kill is the firmware ticker whose events may halt the machine
	// while the train runs.
	Kill Tick
}

// Tick names a periodic event stream: events at Origin + m·Period for
// m ≥ 1, each scheduled one Period before it fires. A zero Period
// names no stream.
type Tick struct{ Origin, Period sim.Time }

// TrainSink takes step trains off the event queue. The FPGA board
// installs itself on its Arduino-side bus as one.
type TrainSink interface {
	// Accept takes over the pulses of every train of one move, or of
	// none: it reports false when any of their paths needs real edges,
	// and the caller then schedules them all. A move is never split,
	// because a step of one axis reads the others' positions.
	Accept(move []Train) bool
	// Advance applies every accepted edge that precedes an event
	// firing at now that was scheduled at sched.
	Advance(now, sched sim.Time)
	// Halt is Advance for a machine kill: pulses that have not risen by
	// then never will, and the edges still due become real events.
	Halt(now, sched sim.Time)
}
