// Package gcode implements parsing, evaluation, and serialization of the
// RepRap-dialect G-code understood by Marlin. It is the lingua franca of
// the whole reproduction: the slicer emits it, the Flaw3D trojanizer
// rewrites it, and the firmware twin executes it.
//
// The dialect covers the command vocabulary the paper's toolchain (Cura →
// Repetier Host → Marlin) exercises: motion (G0/G1), homing (G28), dwell
// (G4), positioning modes (G90/G91/G92, M82/M83), temperature (M104/M109/
// M140/M190), fan (M106/M107), stepper power (M17/M84), and a handful of
// no-op metadata codes slicers routinely emit (M105, M115, M73...).
package gcode

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Word is a single letter/value parameter, e.g. X102.5 or S255.
type Word struct {
	Letter byte    // upper-case parameter letter
	Value  float64 // numeric value; 0 if the letter appeared bare (e.g. "G28 X")
	Bare   bool    // true when the letter carried no number
}

// String renders the word in canonical form. Bare words render as the
// letter alone. Values are trimmed to at most 5 decimal places, which is
// finer than any slicer emits and lossless for step-resolution coordinates.
func (w Word) String() string {
	if w.Bare {
		return string(w.Letter)
	}
	return string(w.Letter) + formatNumber(w.Value)
}

// formatNumber renders a float the way slicers do: no exponent, trailing
// zeros trimmed, integers without a decimal point.
func formatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	s := strconv.FormatFloat(v, 'f', 5, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "-0" {
		// A negative value that rounds to zero renders as the zero it
		// re-parses to, so the canonical form is a fixed point.
		return "0"
	}
	return s
}

// Command is one parsed G-code line: a code word (e.g. "G1") plus parameter
// words and an optional trailing comment. A line that contains only a
// comment or is blank parses to a Command with empty Code.
type Command struct {
	Code    string // e.g. "G1", "M104"; empty for comment-only lines
	Words   []Word // parameters in source order
	Comment string // text after ';' without the semicolon, trimmed
	Line    int    // 1-based source line number, 0 if synthesized
}

// Empty reports whether the command carries no code (blank/comment line).
func (c Command) Empty() bool { return c.Code == "" }

// Is reports whether the command's code equals code (case-sensitive; codes
// are canonicalized to upper case by the parser).
func (c Command) Is(code string) bool { return c.Code == code }

// Has reports whether a parameter with the given letter is present.
func (c Command) Has(letter byte) bool {
	for _, w := range c.Words {
		if w.Letter == letter {
			return true
		}
	}
	return false
}

// Float returns the value of the parameter with the given letter, and
// whether it was present with a value. Bare words report (0, false).
func (c Command) Float(letter byte) (float64, bool) {
	for _, w := range c.Words {
		if w.Letter == letter {
			if w.Bare {
				return 0, false
			}
			return w.Value, true
		}
	}
	return 0, false
}

// FloatDefault returns the parameter value or def when absent or bare.
func (c Command) FloatDefault(letter byte, def float64) float64 {
	if v, ok := c.Float(letter); ok {
		return v
	}
	return def
}

// WithWord returns a copy of the command with the parameter for letter set
// to value, replacing an existing word or appending a new one. The receiver
// is not modified: transformation passes (the Flaw3D trojanizer) depend on
// value semantics here.
func (c Command) WithWord(letter byte, value float64) Command {
	out := c
	out.Words = make([]Word, len(c.Words), len(c.Words)+1)
	copy(out.Words, c.Words)
	for i, w := range out.Words {
		if w.Letter == letter {
			out.Words[i] = Word{Letter: letter, Value: value}
			return out
		}
	}
	out.Words = append(out.Words, Word{Letter: letter, Value: value})
	return out
}

// WithoutWord returns a copy of the command with any parameter for letter
// removed.
func (c Command) WithoutWord(letter byte) Command {
	out := c
	out.Words = make([]Word, 0, len(c.Words))
	for _, w := range c.Words {
		if w.Letter != letter {
			out.Words = append(out.Words, w)
		}
	}
	return out
}

// String renders the command as one G-code line (no trailing newline).
func (c Command) String() string {
	var sb strings.Builder
	if c.Code != "" {
		sb.WriteString(c.Code)
		for _, w := range c.Words {
			sb.WriteByte(' ')
			sb.WriteString(w.String())
		}
	}
	if c.Comment != "" {
		if c.Code != "" {
			sb.WriteByte(' ')
		}
		sb.WriteByte(';')
		sb.WriteString(c.Comment)
	}
	return sb.String()
}

// Program is a sequence of commands — one sliced part.
type Program []Command

// String renders the program as G-code text, one command per line.
func (p Program) String() string {
	var sb strings.Builder
	for _, c := range p {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Commands returns only the non-empty commands (drops blank/comment lines).
func (p Program) Commands() Program {
	out := make(Program, 0, len(p))
	for _, c := range p {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Count reports how many commands carry the given code.
func (p Program) Count(code string) int {
	n := 0
	for _, c := range p {
		if c.Is(code) {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the program. Transformation passes operate
// on clones so the original slice stays a valid golden reference.
func (p Program) Clone() Program {
	out := make(Program, len(p))
	for i, c := range p {
		out[i] = c
		out[i].Words = append([]Word(nil), c.Words...)
	}
	return out
}

// Synthesize builds a command from a code and letter/value pairs, for
// programmatic G-code generation (the slicer).
func Synthesize(code string, params ...Param) Command {
	c := Command{Code: code, Words: make([]Word, len(params))}
	for i, p := range params {
		c.Words[i] = Word{Letter: p.Letter, Value: p.Value}
	}
	return c
}

// Param is a letter/value pair for Synthesize.
type Param struct {
	Letter byte
	Value  float64
}

// P builds a Param; gcode.P('X', 10) reads like the emitted word X10.
func P(letter byte, value float64) Param { return Param{Letter: letter, Value: value} }

// Comment builds a comment-only command.
func Comment(text string) Command { return Command{Comment: text} }

var _ fmt.Stringer = Command{}
var _ fmt.Stringer = Word{}
