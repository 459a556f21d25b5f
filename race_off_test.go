//go:build !race

package offramps

// raceDetector reports whether the tests run under the race detector,
// which slows simulation enough that the widest sweeps shrink.
const raceDetector = false
