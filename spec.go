package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/flaw3d"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/sched"
	"offramps/internal/sim"
	"offramps/internal/slicer"
	"offramps/internal/trojan"
)

// This file is the declarative face of the campaign layer: every
// experiment is data. A ScenarioSpec is a serializable description of one
// simulated print — program reference, trojan spec, detector spec, tap
// placement, seed policy, budget — that compiles into the runtime
// Scenario consumed by Campaign.Run. Trojans and detectors are resolved
// through the registries in internal/trojan and internal/detect, so a new
// scenario is a JSON file, not new Go code. The built-in experiment entry
// points (TableI, TableII, Figure4, Overhead, Drift, TapSides) all
// compile themselves from specs through this same path; hand-written
// Scenario closures remain supported as a thin adapter for cases a spec
// cannot express (e.g. Overhead's latency probes).

// BoxSpec describes a rectangular test part for the built-in slicer.
type BoxSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// ProgramSpec references the G-code a scenario prints. Exactly one source
// may be set — the built-in test part (Part, the default when the spec is
// all-zero), a sliced box (Box), or an external G-code file (File) — plus
// an optional Flaw3D tamper applied to the resolved program, mirroring
// the paper's "Python script which modifies given g-code" (§V-D).
type ProgramSpec struct {
	// Part names a built-in workload; "" and "testpart" are the standard
	// calibration box of the paper's evaluation.
	Part string `json:"part,omitempty"`
	// Flow scales the slicer's flow multiplier (0 means 1.0).
	Flow float64 `json:"flow,omitempty"`
	// Box slices a custom rectangular part.
	Box *BoxSpec `json:"box,omitempty"`
	// File loads external G-code, relative to the spec file's directory.
	File string `json:"file,omitempty"`
	// Flaw3D applies the numbered Table II bootloader-trojan emulation
	// (1..8) to the resolved program.
	Flaw3D int `json:"flaw3d,omitempty"`
}

// Resolve materializes the program. dir anchors relative file references.
func (p ProgramSpec) Resolve(dir string) (gcode.Program, error) {
	set := 0
	if p.Part != "" {
		set++
	}
	if p.Box != nil {
		set++
	}
	if p.File != "" {
		set++
	}
	if set > 1 {
		return nil, fmt.Errorf("offramps: program spec must set at most one of part, box, file")
	}

	var prog gcode.Program
	var err error
	flow := p.Flow
	if flow == 0 {
		flow = 1.0
	}
	switch {
	case p.File != "":
		if p.Flow != 0 {
			return nil, fmt.Errorf("offramps: flow applies to sliced programs, not G-code files")
		}
		path := p.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		f, ferr := os.Open(path)
		if ferr != nil {
			return nil, fmt.Errorf("offramps: program file: %w", ferr)
		}
		defer f.Close()
		prog, err = gcode.Parse(f)
	case p.Box != nil:
		box, berr := slicer.NewBox(p.Box.X, p.Box.Y, p.Box.Z)
		if berr != nil {
			return nil, fmt.Errorf("offramps: program box: %w", berr)
		}
		cfg := slicer.DefaultConfig()
		cfg.FlowMultiplier = flow
		prog, err = slicer.Slice(box, cfg)
	case p.Part == "" || p.Part == "testpart":
		if flow == 1.0 {
			// The standard part appears in every scenario of every
			// built-in suite; slice it once per process. Programs are
			// read-only downstream (campaign workers already share one),
			// and the Flaw3D tampers below never mutate their input.
			prog, err = defaultTestPart()
		} else {
			prog, err = TestPartWithFlow(flow)
		}
	default:
		return nil, fmt.Errorf("offramps: unknown built-in part %q", p.Part)
	}
	if err != nil {
		return nil, err
	}

	if p.Flaw3D != 0 {
		tc, ok := flaw3dCase(p.Flaw3D)
		if !ok {
			return nil, fmt.Errorf("offramps: flaw3d test case %d out of range 1..%d", p.Flaw3D, len(flaw3d.TableII()))
		}
		prog, err = tc.Apply(prog)
		if err != nil {
			return nil, fmt.Errorf("offramps: %s: %w", tc, err)
		}
	}
	return prog, nil
}

// defaultTestPart memoizes the flow-1.0 standard part shared by every
// built-in suite's scenarios.
var defaultTestPart = sync.OnceValues(TestPart)

// flaw3dCase looks up a Table II test case by its 1-based number.
func flaw3dCase(num int) (flaw3d.TestCase, bool) {
	cases := flaw3d.TableII()
	if num < 1 || num > len(cases) {
		return flaw3d.TestCase{}, false
	}
	return cases[num-1], true
}

// TrojanSpec names a registered trojan plus its JSON parameters (nil
// params mean the registry defaults — for "T1".."T9" those are the exact
// Table I settings).
type TrojanSpec struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
}

// DetectorSpec names a registered detector, its JSON parameters, the
// scenario whose capture serves as golden reference (for golden-based
// strategies), the tap the detector observes, and the trip policy.
type DetectorSpec struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
	// Golden names another scenario in the same suite whose primary
	// capture is the reference. Scenarios named here run in an earlier
	// wave (see SuiteSpec).
	Golden string `json:"golden,omitempty"`
	// Policy is "flag" (default: print finishes, verdict in the result)
	// or "abort" (halt the print the moment the detector trips).
	Policy string `json:"policy,omitempty"`
	// Tap binds the detector to a tap side: "" (the board's primary
	// tap), "arduino", "ramps", or "dual" (the paired feed attestation-
	// style detectors consume). The scenario's own tap placement must
	// include the bound side.
	Tap string `json:"tap,omitempty"`
}

// parseTapBinding maps the spec vocabulary onto TapBinding.
func parseTapBinding(s string) (TapBinding, error) {
	switch s {
	case "":
		return BindPrimary, nil
	case "arduino":
		return BindArduino, nil
	case "ramps":
		return BindRAMPS, nil
	case "dual", "both":
		return BindDual, nil
	default:
		return 0, fmt.Errorf("offramps: unknown detector tap %q (want arduino, ramps, or dual)", s)
	}
}

// parsePolicy maps the spec vocabulary onto TripPolicy.
func parsePolicy(s string) (TripPolicy, error) {
	switch s {
	case "", "flag":
		return FlagOnly, nil
	case "abort":
		return AbortOnTrip, nil
	default:
		return 0, fmt.Errorf("offramps: unknown trip policy %q (want flag or abort)", s)
	}
}

// ScenarioSpec is the serializable description of one simulated print:
// the (program × trojan × seed × detector × topology) tuple as data. It
// compiles to a Scenario via Compile.
type ScenarioSpec struct {
	// Name labels the scenario in results; unique within a suite.
	Name string `json:"name"`
	// Program references the G-code to print (zero value = the standard
	// test part).
	Program ProgramSpec `json:"program,omitzero"`
	// Seed pins the time-noise seed absolutely; when 0 the effective seed
	// is the compile context's base seed plus SeedDelta. This is the seed
	// policy that lets one spec file run under many base seeds while
	// keeping the paired-seed structure of the experiment suites.
	Seed uint64 `json:"seed,omitempty"`
	// SeedDelta offsets the base seed (ignored when Seed is set).
	SeedDelta uint64 `json:"seedDelta,omitempty"`
	// Trojan installs a registered trojan on the board.
	Trojan *TrojanSpec `json:"trojan,omitempty"`
	// Detector attaches a registered live detector to the run.
	Detector *DetectorSpec `json:"detector,omitempty"`
	// Tap places the monitoring tap: "arduino" (default), "ramps", or
	// "dual". See WithTapSide.
	Tap string `json:"tap,omitempty"`
	// MITM, when false, removes the board entirely (jumper configuration,
	// Figure 3a). Defaults to true.
	MITM *bool `json:"mitm,omitempty"`
	// Settle overrides how long the simulation keeps running after the
	// firmware stops (0 = default).
	Settle sim.Time `json:"settle,omitempty"`
	// Budget overrides the per-run simulated-time limit (0 = campaign
	// budget).
	Budget sim.Time `json:"budget,omitempty"`
}

// SpecContext carries what compilation needs beyond the spec itself.
type SpecContext struct {
	// BaseSeed anchors relative seed policies (Seed == 0).
	BaseSeed uint64
	// Dir anchors relative program file references.
	Dir string
	// Goldens resolves a DetectorSpec.Golden reference to a capture; nil
	// when the spec set uses no golden-based detectors.
	Goldens func(name string) *capture.Recording
}

// EffectiveSeed applies the spec's seed policy under a base seed.
func (s ScenarioSpec) EffectiveSeed(baseSeed uint64) uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return baseSeed + s.SeedDelta
}

// Compile resolves the spec into a runnable Scenario: the program is
// materialized, trojan and detector names are bound to their registry
// factories, and topology knobs become the scenario's rig fields.
// Compilation validates eagerly — unknown registry names, bad params,
// and invalid tap/policy vocabulary fail here, not mid-campaign.
func (s ScenarioSpec) Compile(ctx SpecContext) (Scenario, error) {
	if s.Name == "" {
		return Scenario{}, fmt.Errorf("offramps: scenario spec needs a name")
	}
	fail := func(err error) (Scenario, error) {
		return Scenario{}, fmt.Errorf("offramps: spec %q: %w", s.Name, err)
	}

	prog, err := s.Program.Resolve(ctx.Dir)
	if err != nil {
		return fail(err)
	}
	out := Scenario{
		Name:    s.Name,
		Program: prog,
		Seed:    s.EffectiveSeed(ctx.BaseSeed),
	}

	if s.Trojan != nil {
		name, params := s.Trojan.Name, s.Trojan.Params
		// Trial build: surface unknown names and bad params at compile
		// time. Constructors are cheap and side-effect free (hooks install
		// at Arm time), so the trial trojan is simply discarded.
		if _, err := trojan.Build(name, params, out.Seed); err != nil {
			return fail(err)
		}
		out.Trojan = func(seed uint64) fpga.Trojan {
			t, err := trojan.Build(name, params, seed)
			if err != nil {
				return nil // reported by the campaign as a factory failure
			}
			return t
		}
	}

	tap, err := fpga.ParseTapSide(s.Tap)
	if err != nil {
		return fail(err)
	}

	if s.Detector != nil {
		d := *s.Detector
		policy, err := parsePolicy(d.Policy)
		if err != nil {
			return fail(err)
		}
		out.Policy = policy
		bind, err := parseTapBinding(d.Tap)
		if err != nil {
			return fail(err)
		}
		// The detector's tap binding must be a side the scenario actually
		// taps; this is the spec-level twin of Run's binding validation,
		// surfaced before any print simulates.
		switch bind {
		case BindArduino:
			if !tap.TapsArduino() {
				return fail(fmt.Errorf("config error: detector %q is bound to the arduino tap but the scenario taps %q", d.Name, tap))
			}
		case BindRAMPS:
			if !tap.TapsRAMPS() {
				return fail(fmt.Errorf("config error: detector %q is bound to the ramps tap but the scenario taps %q (set \"tap\": \"ramps\" or \"dual\")", d.Name, tap))
			}
		case BindDual:
			if tap != fpga.TapDual {
				return fail(fmt.Errorf("config error: detector %q is bound to the dual tap but the scenario taps %q (set \"tap\": \"dual\")", d.Name, tap))
			}
		}
		out.DetectorBind = bind
		goldens := ctx.Goldens
		if d.Golden != "" && goldens == nil {
			return fail(fmt.Errorf("detector %q references golden %q but the compile context resolves no goldens", d.Name, d.Golden))
		}
		// Trial build: unknown names and bad params must fail at compile
		// time, not after the prints have simulated. Golden-referencing
		// detectors are trial-built against a synthetic one-transaction
		// reference, since the real capture exists only at run time.
		env := detect.BuildEnv{}
		if d.Golden != "" {
			env.Golden = specValidationGolden
		}
		trial, err := detect.Build(d.Name, d.Params, env)
		if err != nil {
			return fail(err)
		}
		// Pair-consuming detectors (attestation) diff both taps and only
		// make sense on the dual feed; plain detectors cannot consume it.
		if _, isPair := trial.(detect.PairObserver); isPair != (bind == BindDual) {
			if isPair {
				return fail(fmt.Errorf("config error: detector %q consumes both taps; bind it with \"tap\": \"dual\" (and tap the scenario dual)", d.Name))
			}
			return fail(fmt.Errorf("config error: detector %q does not consume observation pairs; bind it to one side, not \"dual\"", d.Name))
		}
		out.Detector = func() (detect.Detector, error) {
			env := detect.BuildEnv{}
			if d.Golden != "" {
				env.Golden = goldens(d.Golden)
				if env.Golden == nil {
					return nil, fmt.Errorf("golden scenario %q produced no capture", d.Golden)
				}
			}
			return detect.Build(d.Name, d.Params, env)
		}
	}

	mitm := s.MITM == nil || *s.MITM
	if !mitm {
		if s.Trojan != nil {
			return fail(fmt.Errorf("config error: trojans require the MITM path"))
		}
		if s.Detector != nil {
			return fail(fmt.Errorf("config error: detectors require the MITM path (captures come from the board)"))
		}
		if s.Tap != "" {
			return fail(fmt.Errorf("config error: tap placement requires the MITM path"))
		}
		out.Bypass = true
	}
	if s.Settle < 0 || s.Budget < 0 {
		return fail(fmt.Errorf("settle and budget must be non-negative"))
	}
	out.Tap, out.Settle, out.Budget = tap, s.Settle, s.Budget
	return out, nil
}

// specValidationGolden is the synthetic reference golden-referencing
// detector specs are trial-built against at compile time, so their
// params validate eagerly even though the real capture only exists once
// the referenced scenario has run.
var specValidationGolden = &capture.Recording{
	Transactions: []capture.Transaction{{}},
}

// CompileSpecs compiles a spec list in order.
func CompileSpecs(ctx SpecContext, specs []ScenarioSpec) ([]Scenario, error) {
	out := make([]Scenario, 0, len(specs))
	for _, s := range specs {
		sc, err := s.Compile(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Suites: a spec file is a named set of scenarios plus post-run
// comparisons.

// CompareSpec replays one scenario's capture through a golden-based
// detector built against another scenario's capture — the paper's
// two-print detection workflow as data.
type CompareSpec struct {
	// Golden and Suspect name scenarios in the same suite.
	Golden  string `json:"golden"`
	Suspect string `json:"suspect"`
	// GoldenTap / SuspectTap pick which capture of a multi-tap scenario
	// to use: "" (primary), "arduino", or "ramps".
	GoldenTap  string `json:"goldenTap,omitempty"`
	SuspectTap string `json:"suspectTap,omitempty"`
	// Detector overrides the default golden-comparator (its Golden field
	// is ignored here — the reference is this entry's Golden scenario).
	Detector *DetectorSpec `json:"detector,omitempty"`
}

// SuiteSpec is a complete declarative experiment: scenarios to print and
// comparisons to draw, with suite-wide seed and budget policy.
type SuiteSpec struct {
	Name string `json:"name"`
	// BaseSeed anchors relative scenario seeds (may be overridden by the
	// runner's -seed flag).
	BaseSeed uint64 `json:"baseSeed,omitempty"`
	// Budget is the per-scenario simulated-time limit (0 = default).
	Budget sim.Time `json:"budget,omitempty"`
	// Workers bounds the campaign pool (0 = GOMAXPROCS).
	Workers   int            `json:"workers,omitempty"`
	Scenarios []ScenarioSpec `json:"scenarios"`
	Compare   []CompareSpec  `json:"compare,omitempty"`

	// dir anchors relative program file references (set by LoadSuiteSpec).
	dir string
}

// ParseSuiteSpec decodes a suite spec from JSON, strictly: unknown fields
// are errors, so a typo fails loudly instead of silently running a
// different experiment. dir anchors relative file references.
func ParseSuiteSpec(data []byte, dir string) (*SuiteSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SuiteSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("offramps: parsing suite spec: %w", err)
	}
	if dec.More() {
		// One suite per file: trailing content (a concatenated second
		// suite, merge debris) would otherwise be silently ignored and a
		// different experiment than the file describes would run.
		return nil, fmt.Errorf("offramps: parsing suite spec: trailing content after the suite object")
	}
	s.dir = dir
	// Params keep the form json.Marshal writes them in, so a spec
	// survives the farm's coordinator → worker transfer unchanged.
	for i := range s.Scenarios {
		if t := s.Scenarios[i].Trojan; t != nil {
			t.Params = canonicalJSON(t.Params)
		}
		if d := s.Scenarios[i].Detector; d != nil {
			d.Params = canonicalJSON(d.Params)
		}
	}
	for i := range s.Compare {
		if d := s.Compare[i].Detector; d != nil {
			d.Params = canonicalJSON(d.Params)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// canonicalJSON re-encodes raw JSON (already validated by the decoder)
// as json.Marshal emits it: compact, with HTML characters escaped.
func canonicalJSON(raw json.RawMessage) json.RawMessage {
	if raw == nil {
		return nil
	}
	out, err := json.Marshal(raw)
	if err != nil {
		return raw
	}
	return out
}

// LoadSuiteSpec reads a suite spec file; relative program references
// resolve against the file's directory.
func LoadSuiteSpec(path string) (*SuiteSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("offramps: reading suite spec: %w", err)
	}
	s, err := ParseSuiteSpec(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("offramps: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return s, nil
}

// FindScenario returns the named scenario spec, if the suite has it.
func (s *SuiteSpec) FindScenario(name string) (ScenarioSpec, bool) {
	for _, sc := range s.Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return ScenarioSpec{}, false
}

// ScenarioNames returns the scenario names in canonical suite order —
// the order reports list them and the order a farm coordinator seeds
// its work queue.
func (s *SuiteSpec) ScenarioNames() []string {
	names := make([]string, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		names[i] = sc.Name
	}
	return names
}

// Validate checks cross-scenario references, name uniqueness, and
// suite-wide knobs. Deep per-scenario validation happens at Compile
// time.
func (s *SuiteSpec) Validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("offramps: suite %q has no scenarios", s.Name)
	}
	if s.Budget < 0 {
		return fmt.Errorf("offramps: suite %q: budget must be non-negative", s.Name)
	}
	if s.Workers < 0 {
		return fmt.Errorf("offramps: suite %q: workers must be non-negative", s.Name)
	}
	names := make(map[string]bool, len(s.Scenarios))
	for _, sc := range s.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("offramps: suite %q: scenario without a name", s.Name)
		}
		if names[sc.Name] {
			return fmt.Errorf("offramps: suite %q: duplicate scenario %q", s.Name, sc.Name)
		}
		names[sc.Name] = true
	}
	goldenOf := make(map[string]string) // scenario → its detector's golden
	for _, sc := range s.Scenarios {
		if sc.Detector != nil && sc.Detector.Golden != "" {
			if !names[sc.Detector.Golden] {
				return fmt.Errorf("offramps: suite %q: scenario %q references unknown golden %q", s.Name, sc.Name, sc.Detector.Golden)
			}
			goldenOf[sc.Name] = sc.Detector.Golden
		}
	}
	// Golden references must be acyclic (a scenario cannot be — even
	// transitively — its own reference); execution orders them in waves.
	for start := range goldenOf {
		seen := map[string]bool{start: true}
		for cur := goldenOf[start]; cur != ""; cur = goldenOf[cur] {
			if seen[cur] {
				return fmt.Errorf("offramps: suite %q: golden reference cycle through %q", s.Name, cur)
			}
			seen[cur] = true
		}
	}
	for i, cmp := range s.Compare {
		if !names[cmp.Golden] || !names[cmp.Suspect] {
			return fmt.Errorf("offramps: suite %q: compare %d references unknown scenario (%q vs %q)", s.Name, i, cmp.Golden, cmp.Suspect)
		}
		for _, tapName := range []string{cmp.GoldenTap, cmp.SuspectTap} {
			side, err := fpga.ParseTapSide(tapName)
			if err == nil && side == fpga.TapDual {
				err = fmt.Errorf("compare tap must name one side, got %q", tapName)
			}
			if err != nil {
				return fmt.Errorf("offramps: suite %q: compare %d: %w", s.Name, i, err)
			}
		}
	}
	return nil
}

// CompareResult is one executed CompareSpec. The tap fields echo the
// spec so a suite with several per-tap comparisons of the same scenario
// pair stays distinguishable in reports (and mergeable across shards).
type CompareResult struct {
	Golden     string         `json:"golden"`
	Suspect    string         `json:"suspect"`
	GoldenTap  string         `json:"goldenTap,omitempty"`
	SuspectTap string         `json:"suspectTap,omitempty"`
	Report     *detect.Report `json:"report,omitempty"`
	Err        error          `json:"-"`
	// Error mirrors Err for the JSON sinks.
	Error string `json:"error,omitempty"`
}

// SuiteReport is the outcome of one suite execution: scenario results in
// spec order plus the comparison verdicts.
type SuiteReport struct {
	Suite       string           `json:"suite"`
	BaseSeed    uint64           `json:"baseSeed"`
	Results     []ScenarioResult `json:"results"`
	Comparisons []CompareResult  `json:"comparisons,omitempty"`
}

// Format renders a human-readable suite summary.
func (r *SuiteReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Suite %s (base seed %d)\n", r.Suite, r.BaseSeed)
	fmt.Fprintf(&sb, "%-24s %-10s %-12s %-10s %s\n", "scenario", "seed", "duration", "completed", "verdict")
	for _, res := range r.Results {
		if res.Err != nil {
			fmt.Fprintf(&sb, "%-24s %-10d %-12s %-10s error: %v\n", res.Name, res.Seed, "-", "-", res.Err)
			continue
		}
		if res.Result == nil {
			// Cancelled suites return partial reports; this scenario
			// never started.
			fmt.Fprintf(&sb, "%-24s %-10d %-12s %-10s not run\n", res.Name, res.Seed, "-", "-")
			continue
		}
		fmt.Fprintf(&sb, "%-24s %-10d %-12v %-10v %s\n",
			res.Name, res.Seed, res.Result.Duration, res.Result.Completed, scenarioVerdict(res))
	}
	for _, cmp := range r.Comparisons {
		if cmp.Err != nil {
			fmt.Fprintf(&sb, "compare %s vs %s: error: %v\n", cmp.Golden, cmp.Suspect, cmp.Err)
			continue
		}
		verdict := "no trojan suspected"
		if cmp.Report.TrojanLikely {
			verdict = "TROJAN LIKELY"
		}
		fmt.Fprintf(&sb, "compare %s vs %s [%s]: %s (%d mismatches, largest %.2f%%, %d final)\n",
			cmp.Golden, cmp.Suspect, cmp.Report.Detector, verdict,
			cmp.Report.NumMismatches, cmp.Report.LargestPercent, len(cmp.Report.Final))
	}
	return sb.String()
}

// RunSuite executes every scenario of a suite spec, then its Compare
// entries. It is RunSuiteProgressive under PlainLayout with no budget
// and no early stop: one round holding the whole suite, run in
// dependency-ordered waves, with results in suite order.
func (c Campaign) RunSuite(runCtx context.Context, suite *SuiteSpec) (*SuiteReport, error) {
	rep, _, err := c.RunSuiteProgressive(runCtx, suite, PlainLayout(suite), sched.Config{})
	return rep, err
}

// tapRecording picks the named tap's capture out of a result.
func tapRecording(res *Result, tapName string) (*capture.Recording, error) {
	side, err := fpga.ParseTapSide(tapName)
	if err != nil {
		return nil, err
	}
	if tapName == "" {
		return res.Recording, nil
	}
	switch side {
	case fpga.TapArduino:
		return res.ArduinoRecording, nil
	case fpga.TapRAMPS:
		return res.RAMPSRecording, nil
	default:
		return nil, fmt.Errorf("offramps: compare tap must name one side, got %q", tapName)
	}
}

// runCompare executes one CompareSpec against the collected results.
func runCompare(cmp CompareSpec, results map[string]ScenarioResult) CompareResult {
	out := CompareResult{Golden: cmp.Golden, Suspect: cmp.Suspect, GoldenTap: cmp.GoldenTap, SuspectTap: cmp.SuspectTap}
	fail := func(err error) CompareResult {
		out.Err = err
		out.Error = err.Error()
		return out
	}
	pick := func(name, tapName string) (*capture.Recording, error) {
		r, ok := results[name]
		if !ok || r.Err != nil {
			if !ok {
				return nil, fmt.Errorf("offramps: scenario %q did not run", name)
			}
			return nil, r.Err
		}
		rec, err := tapRecording(r.Result, tapName)
		if err != nil {
			return nil, err
		}
		if rec == nil || rec.Len() == 0 {
			return nil, fmt.Errorf("offramps: scenario %q has no %q-tap capture", name, tapName)
		}
		return rec, nil
	}
	golden, err := pick(cmp.Golden, cmp.GoldenTap)
	if err != nil {
		return fail(err)
	}
	suspect, err := pick(cmp.Suspect, cmp.SuspectTap)
	if err != nil {
		return fail(err)
	}

	name, params := "golden-comparator", json.RawMessage(nil)
	if cmp.Detector != nil {
		name, params = cmp.Detector.Name, cmp.Detector.Params
	}
	d, err := detect.Build(name, params, detect.BuildEnv{Golden: golden})
	if err != nil {
		return fail(err)
	}
	rep, err := detect.Replay(suspect, d)
	if err != nil {
		return fail(err)
	}
	out.Report = rep
	return out
}
