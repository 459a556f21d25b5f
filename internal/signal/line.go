// Package signal models the electrical layer of the OFFRAMPS platform:
// named digital lines with edge listeners and propagation delay, the full
// RAMPS 1.4 pin map as a Bus, analog channels for the thermistor path, and
// logic-analyzer-style traces with timing statistics and VCD export.
//
// Everything between the Arduino (firmware twin) and the RAMPS board
// (driver/plant model) — and everything the FPGA intercepts — travels over
// these lines, exactly as on the physical OFFRAMPS PCB where all GPIO
// headers pass through the Cmod-A7 (paper Section III-C).
package signal

import (
	"fmt"
	"iter"
	"slices"

	"offramps/internal/sim"
)

// Level is a digital logic level.
type Level uint8

// Digital logic levels. The OFFRAMPS shifts the Arduino/RAMPS 5 V domain to
// the FPGA's 3.3 V domain and back; at the behavioural level both map to
// the same two logic states.
const (
	Low Level = iota
	High
)

// String returns "0" or "1".
func (l Level) String() string {
	if l == High {
		return "1"
	}
	return "0"
}

// Invert returns the opposite level.
func (l Level) Invert() Level {
	if l == High {
		return Low
	}
	return High
}

// Listener observes level changes on a Line. It runs synchronously inside
// the simulation event that changed the line.
type Listener func(at sim.Time, level Level)

// Line is a single digital signal line. A Line belongs to an Engine; all
// transitions are timestamped with the engine clock. The zero value is not
// usable — create lines with NewLine or through a Bus.
type Line struct {
	name   string
	engine *sim.Engine
	level  Level
	// listeners holds every listener in registration order, Watch
	// functions wrapped as sinks.
	listeners []Sink
	// deferrer, when set, holds edges of this line that a lazy step
	// train has not applied yet (see Defer).
	deferrer Deferrer
	// edges counts transitions since creation (both directions).
	edges uint64
	// lastChange is the time of the most recent transition.
	lastChange sim.Time
}

// Sink is a built-in line consumer whose reaction to an edge depends
// only on the edge itself and on state that a lazy step train cannot
// change while it runs. Sinks are registered with Attach; a line whose
// listeners are all sinks may have its edges applied late, in order,
// with their true timestamps (see Train).
//
// Every sink sees a line's edges in order, but a deferrer need not
// hand one edge to the line's sinks in registration order: the FPGA
// board's replay kernel counts an edge on its tap detector before the
// other sinks see it, whatever order they were attached in. That is
// sound only because of the contract above — a sink's reaction depends
// on the edge alone, never on what another sink of the line has or has
// not done with it yet.
type Sink interface {
	Edge(at sim.Time, level Level)
}

// Quieter is an optional Sink extension: Quiet reports whether the
// sink's reactions to the line's edges may be applied late, with their
// true timestamps, by the line's Deferrer. A sink that does not
// implement it is quiet by contract; a Watch listener is never quiet.
type Quieter interface {
	Quiet() bool
}

// Deferrer applies the edges it holds back for a line, up to the
// current simulation time. The FPGA board installs one on every STEP
// and MIN endstop line it carries lazily.
type Deferrer interface {
	Sync()
}

// NewLine creates a line named name at level Low.
func NewLine(engine *sim.Engine, name string) *Line {
	if engine == nil {
		panic("signal: NewLine with nil engine")
	}
	return &Line{name: name, engine: engine}
}

// Name reports the line's name (e.g. "X_STEP").
func (l *Line) Name() string { return l.name }

// Level reports the current logic level.
func (l *Line) Level() Level {
	l.Sync()
	return l.level
}

// Edges reports the number of transitions observed since creation.
func (l *Line) Edges() uint64 {
	l.Sync()
	return l.edges
}

// LastChange reports the time of the most recent transition.
func (l *Line) LastChange() sim.Time {
	l.Sync()
	return l.lastChange
}

// Defer installs the deferrer that holds this line's lazily applied
// edges. Level, Edges, LastChange and Sync consult it first.
func (l *Line) Defer(d Deferrer) { l.deferrer = d }

// Sync applies every deferred edge of the line that the engine would
// have run before the current event, or up to Now between events. The
// one inexact case is an edge tied with the running event in both time
// and scheduling instant: it is applied after the event, whichever the
// engine would have run first (DESIGN.md §6, "Lazy step trains").
func (l *Line) Sync() {
	if l.deferrer != nil {
		l.deferrer.Sync()
	}
}

// Quiet reports whether every listener of the line is quiet (see
// Quieter).
func (l *Line) Quiet() bool {
	for _, s := range l.listeners {
		if q, ok := s.(Quieter); ok && !q.Quiet() {
			return false
		}
	}
	return true
}

// Sinks returns the line's listeners in registration order, Watch
// functions included as sinks that are never quiet. A deferrer
// resolves from it which consumers a lazily applied edge reaches.
func (l *Line) Sinks() iter.Seq[Sink] { return slices.Values(l.listeners) }

// Watch registers fn to be called on every level change. Listeners cannot
// be removed; attach a guard inside fn if conditional delivery is needed.
// (Module lifetimes in this system equal the simulation lifetime, matching
// synthesized FPGA logic, so removal has no use case.)
func (l *Line) Watch(fn Listener) {
	if fn == nil {
		panic("signal: Watch with nil listener")
	}
	l.listeners = append(l.listeners, watchFunc(fn))
}

// Attach registers s as a listener in the same ordered list Watch
// appends to. Unlike a Watch listener, a sink may be quiet, so it does
// not by itself keep the line from carrying a lazy step train.
func (l *Line) Attach(s Sink) {
	if s == nil {
		panic("signal: Attach with nil sink")
	}
	l.listeners = append(l.listeners, s)
}

// watchFunc adapts a Watch listener to the listener list. It is never
// quiet: arbitrary code may drive any line.
type watchFunc Listener

func (f watchFunc) Edge(at sim.Time, level Level) { f(at, level) }

func (watchFunc) Quiet() bool { return false }

// Set drives the line to level at the current simulation time. Setting the
// line to its current level is a no-op (no edge, no listener calls),
// mirroring real electrical behaviour.
func (l *Line) Set(level Level) { l.SetAt(l.engine.Now(), level) }

// SetAt drives the line to level as of time at, which may lie before
// Now: the lazy step path drives an endstop edge a replayed step
// causes this way, with its true timestamp. Like Set, driving the
// current level is a no-op.
func (l *Line) SetAt(at sim.Time, level Level) {
	if !l.Stamp(at, level) {
		return
	}
	for _, s := range l.listeners {
		s.Edge(at, level)
	}
}

// Stamp records a transition to level as of time at — the level, the
// edge count and the last change — without calling any listener, and
// reports whether the level changed. It is SetAt for a deferrer that
// delivers the edge itself, to consumers it resolved from Sinks.
func (l *Line) Stamp(at sim.Time, level Level) bool {
	if level == l.level {
		return false
	}
	l.level = level
	l.edges++
	l.lastChange = at
	return true
}

// FireEdge implements sim.EdgeTarget: it drives the line to Level(arg).
// It is the engine's allocation-free fast path behind SetAfter, Pulse and
// Connect — a prebound callback with the target level as the argument, in
// place of a fresh closure per scheduled edge.
func (l *Line) FireEdge(arg uint64) { l.Set(Level(arg)) }

// SetAfter schedules the line to be driven to level after delay. It models
// a gate or level-shifter output with known propagation delay.
func (l *Line) SetAfter(delay sim.Time, level Level) {
	l.engine.AfterEdge(delay, l, uint64(level))
}

// Pulse drives the line High for width, then back Low. If the line is
// already High it is first taken Low now, and the distinct rising edge
// follows one engine tick (1 ns) later — keeping the falling edge
// timestamp-distinct so Trace pulse-width statistics never observe a
// zero-width pulse.
func (l *Line) Pulse(width sim.Time) {
	if width <= 0 {
		panic(fmt.Sprintf("signal: Pulse with non-positive width %v", width))
	}
	if l.level == High {
		l.Set(Low)
		l.engine.AfterEdge(sim.Nanosecond, l, uint64(High))
		l.engine.AfterEdge(sim.Nanosecond+width, l, uint64(Low))
		return
	}
	l.Set(High)
	l.SetAfter(width, Low)
}

// Connect forwards every transition of l onto dst after delay. This is the
// behavioural model of a wire through the OFFRAMPS jumpers and level
// shifters: in bypass mode the MITM path is exactly a Connect with the
// measured propagation delay (≤ 12.923 ns in the paper). dst immediately
// assumes l's current level.
func (l *Line) Connect(dst *Line, delay sim.Time) {
	if delay < 0 {
		panic("signal: Connect with negative delay")
	}
	dst.Set(l.level)
	l.Watch(func(_ sim.Time, level Level) {
		if delay == 0 {
			dst.Set(level)
			return
		}
		dst.SetAfter(delay, level)
	})
}
