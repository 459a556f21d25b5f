package offramps

// Test-only hooks for the external offramps_test package, whose
// execution-path matrix (paths_test.go) also drives internal/farm.
var (
	// WithEagerSteps runs fn with every testbed built on the eager oracle.
	WithEagerSteps = withEagerSteps
	// SameSimulation compares what the report JSON leaves out.
	SameSimulation = sameSimulation
	// SuiteDoc serializes a report exactly as `suite -json` writes it.
	SuiteDoc = suiteDoc
)

// RaceDetector reports whether the tests run under the race detector.
const RaceDetector = raceDetector
