// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution. It is the time base underneath every other
// substrate in this repository: the firmware twin schedules step pulses on
// it, the FPGA model registers edge callbacks through it, and the printer
// plant integrates its thermal model on periodic ticks.
//
// The engine is intentionally single-threaded: events execute in strictly
// increasing (Time, sequence) order, so a simulation with a fixed seed is
// bit-for-bit reproducible. Reproducibility is what makes the paper's
// golden-model detection methodology testable — a "golden print" must be
// re-runnable.
package sim

import (
	"encoding/json"
	"fmt"
	"time"
)

// Time is a simulation timestamp in nanoseconds since the start of the
// simulation. The paper's FPGA runs at 100 MHz (10 ns period); a 1 ns
// timeline strictly contains every event the hardware could observe.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts t to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t in floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp using Go duration notation.
func (t Time) String() string {
	return time.Duration(t).String()
}

// FromDuration converts a wall-clock duration to simulation Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts floating-point seconds to simulation Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// MarshalJSON encodes the timestamp as a Go duration string ("2m4.5s"),
// the form scenario spec files use.
func (t Time) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts either a Go duration string ("10s", "1h30m",
// "200us") or a bare integer nanosecond count.
func (t *Time) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("sim: bad duration %q: %w", s, err)
		}
		*t = FromDuration(d)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("sim: Time must be a duration string or nanosecond count, got %s", data)
	}
	*t = Time(ns)
	return nil
}
