package offramps

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/flaw3d"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/reconstruct"
	"offramps/internal/signal"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). The benchmarks
// report simulated seconds per run and verify the experiment's headline
// property, so `go test -bench .` doubles as a reproduction run.

// freshGoldens is a campaign without a golden cache, so every benchmark
// iteration pays for its own golden print: the experiment benchmarks
// share seeds across experiments, and cross-benchmark cache hits would
// silently deflate whichever benchmark runs later in the binary.
var freshGoldens = Campaign{}

// BenchmarkTableI regenerates Table I: golden print plus all nine
// trojans, judging each physical effect.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := TableI(freshGoldens, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			if !row.Observed {
				b.Fatalf("%s effect not observed: %s", row.ID, row.Measured)
			}
		}
		b.ReportMetric(float64(len(rep.Rows)), "trojans/op")
	}
}

// BenchmarkTableII regenerates Table II: the eight Flaw3D trojans, each
// printed and checked against the golden capture, plus the clean control.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := TableII(freshGoldens, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, row := range rep.Rows {
			if row.Detected {
				detected++
			}
		}
		if detected != len(rep.Rows) {
			b.Fatalf("only %d/%d Flaw3D cases detected", detected, len(rep.Rows))
		}
		if rep.CleanFalsePositive {
			b.Fatal("clean control false positive")
		}
		b.ReportMetric(float64(detected), "detected/op")
	}
}

// BenchmarkFigure4 regenerates Figure 4: the relocation-trojan capture
// comparison and the detector's report.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Figure4(freshGoldens, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Report.TrojanLikely {
			b.Fatal("Figure 4 trojan not detected")
		}
		b.ReportMetric(float64(rep.Report.NumMismatches), "mismatches/op")
	}
}

// BenchmarkOverhead regenerates §V-B: propagation delay, signal envelope,
// and the no-quality-impact comparison.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Overhead(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.MaxStepFrequency >= 20_000 {
			b.Fatalf("step frequency %v outside paper envelope", rep.MaxStepFrequency)
		}
		b.ReportMetric(float64(rep.MaxPropagation), "prop-delay-ns/op")
		b.ReportMetric(rep.MaxStepFrequency, "max-step-hz/op")
	}
}

// BenchmarkDrift regenerates §V-C: repeated known-good prints, measuring
// the worst per-window drift against the 5 % margin.
func BenchmarkDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Drift(freshGoldens, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.FalsePositives != 0 {
			b.Fatalf("%d false positives", rep.FalsePositives)
		}
		b.ReportMetric(rep.MaxDriftPercent, "max-drift-%/op")
	}
}

// BenchmarkGoldenPrint measures one full end-to-end simulated print —
// slicer output through firmware, MITM, drivers, plant, and capture. It
// runs the way a campaign worker does: successive testbeds on one
// pooled core, each iteration's buffers reclaimed for the next. Clean
// paths carry their step trains lazily, so events/op counts only what
// stays on the queue; steps/op (STEP rises seen by the four drivers)
// keeps ns per pulse comparable across that change.
func BenchmarkGoldenPrint(b *testing.B) { benchPrint(b, goldenPart(b), false) }

// BenchmarkGoldenPrintEager is BenchmarkGoldenPrint on the eager rig: a
// no-op Watch on each Arduino STEP line keeps every pulse on the event
// queue, so lazy against eager is measured within one commit.
func BenchmarkGoldenPrintEager(b *testing.B) { benchPrint(b, goldenPart(b), true) }

// BenchmarkRelocationPrint is BenchmarkGoldenPrint on Table II case 5,
// the Flaw3D relocation print that dumps every 5 moves: each dump trip
// presses and releases the Y MIN switch, which its trains carry lazily.
func BenchmarkRelocationPrint(b *testing.B) {
	prog, err := flaw3d.TableII()[4].Apply(goldenPart(b))
	if err != nil {
		b.Fatal(err)
	}
	benchPrint(b, prog, false)
}

// BenchmarkGoldenCodec measures the golden store's payload codec on the
// Table II golden (the test part at seed 1, full capture): encode is
// what a cold sweep pays per store Put, decode what a warm sweep pays
// per store hit.
func BenchmarkGoldenCodec(b *testing.B) {
	results, err := Campaign{Workers: 1}.Run(context.Background(), []Scenario{{Name: "golden", Program: goldenPart(b), Seed: 1}})
	if err == nil {
		err = firstScenarioErr(results)
	}
	if err != nil {
		b.Fatal(err)
	}
	res := results[0].Result
	enc, err := encodeGoldenResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for range b.N {
			if _, err := encodeGoldenResult(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for range b.N {
			if _, err := decodeGoldenResult(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// goldenPart returns the golden test part's program.
func goldenPart(b *testing.B) gcode.Program {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchPrint compiles the program's move plan once, as a campaign
// does, and runs one untimed print first, so neither planning nor the
// core's cold start (engine storage, recording and deposit buffers) is
// spread over the timed iterations and B/op reads the same at any
// -benchtime.
func benchPrint(b *testing.B, prog gcode.Program, eager bool) {
	plan := compilePlan(b, prog)
	core := NewTestbedCore()
	printOne := func(seed uint64) {
		opts := []Option{WithSeed(seed), WithCore(core)}
		if eager {
			opts = append(opts, withEagerSteps())
		}
		tb, err := NewTestbed(opts...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tb.Run(context.Background(), prog, withCompiled(plan))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal(res.HaltError)
		}
		var steps uint64
		for _, a := range signal.Axes {
			steps += tb.Plant.Driver(a).StepsSeen()
		}
		b.ReportMetric(res.Duration.Seconds(), "sim-s/op")
		b.ReportMetric(float64(tb.Engine.Executed()), "events/op")
		b.ReportMetric(float64(steps), "steps/op")
		core.Reclaim(res)
	}
	printOne(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printOne(uint64(i) + 1)
	}
}

// BenchmarkCampaign measures the concurrent campaign runner end to end:
// a small (clean × trojan × seed) grid fanned across the default worker
// pool, the hot path under every re-platformed experiment.
func BenchmarkCampaign(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	scens := []Scenario{
		{Name: "clean-1", Program: prog, Seed: 1},
		{Name: "clean-2", Program: prog, Seed: 2},
		{Name: "t2", Program: prog, Seed: 3, Trojan: func(seed uint64) fpga.Trojan {
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		}},
		{Name: "golden-free", Program: prog, Seed: 4,
			Detector: func() (detect.Detector, error) { return detect.NewRuleEngine(detect.DefaultLimits()) },
			Policy:   FlagOnly},
	}
	run := func() {
		results, err := Campaign{}.Run(context.Background(), scens)
		if err != nil {
			b.Fatal(err)
		}
		if err := firstScenarioErr(results); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(results)), "scenarios/op")
	}
	run() // untimed: warms the pooled cores
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCampaignWide measures the campaign hot path at survey scale:
// a 104-scenario grid (8 golden-free detector variants × 13 seeds) over
// one program — the shape of a detector-threshold sweep. Sub-benchmarks
// contrast full-trace capture with fingerprint mode, where the
// same-(program, seed) variants fuse onto shared simulations and no
// recording is ever materialized.
func BenchmarkCampaignWide(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	const variants, seeds = 8, 13
	var scens []Scenario
	for v := 0; v < variants; v++ {
		lim := detect.DefaultLimits()
		lim.MaxStepsPerWindow += int32(v) * 96
		lim.MaxStationaryExtrude += int32(v) * 8
		for s := 0; s < seeds; s++ {
			scens = append(scens, Scenario{
				Name:    fmt.Sprintf("v%d-s%d", v, s+1),
				Program: prog,
				Seed:    uint64(s) + 1,
				Detector: func() (detect.Detector, error) {
					return detect.NewRuleEngine(lim)
				},
				Policy: FlagOnly,
			})
		}
	}
	for _, mode := range []CaptureMode{CaptureFull, CaptureFingerprint} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			run := func() {
				start := time.Now()
				results, err := Campaign{CaptureMode: mode}.Run(context.Background(), scens)
				if err != nil {
					b.Fatal(err)
				}
				if err := firstScenarioErr(results); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(results))/time.Since(start).Seconds(), "scenarios/sec")
			}
			run() // untimed: warms the pooled cores
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkMonitorObserve measures the live detector's per-transaction
// hot path — it must be far faster than the 0.1 s window period for the
// monitor to keep up with the board in real time.
func BenchmarkMonitorObserve(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	golden, err := captureRun(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream := golden.Transactions
	b.ReportAllocs()
	b.ResetTimer()
	observed := 0
	for i := 0; i < b.N; i++ {
		m, err := detect.NewMonitor(golden, detect.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, tx := range stream {
			if v := m.Observe(tx); v.Err != nil || v.Tripped {
				b.Fatalf("clean stream tripped: %v %v", v.Tripped, v.Err)
			}
		}
		observed += len(stream)
		if m.Finalize().TrojanLikely {
			b.Fatal("clean stream flagged")
		}
	}
	b.ReportMetric(float64(observed)/float64(b.N), "tx/op")
}

// BenchmarkStitchReport measures the merge's stitch step alone: the
// Table II grid's rows, recorded once as the -jsonl stream a sweep
// writes and read back through the resume index before the timer
// starts, reassembled into the canonical report.
func BenchmarkStitchReport(b *testing.B) {
	suite, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", "grid_tableii.json"), false)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	sink := NewJSONLSink(&stream)
	sink.Label = suite.Name
	rep, err := Campaign{Sinks: []ResultSink{sink}}.RunSuite(context.Background(), suite)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range rep.Comparisons {
		if err := sink.EmitCompare(c); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := ReadResumeIndex(&stream, suite.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := StitchReport(suite, ix.Scenarios, ix.Compares)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(raw.Results)+len(raw.Comparisons)), "rows/op")
	}
}

// BenchmarkGridExpand measures GridSpec.Expand of the progressive
// Table II sweep (9 cells × 3 seeds plus 2 extras), the expansion every
// sweep, shard and coordinator pays before its first scenario.
func BenchmarkGridExpand(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("examples", "specs", "grid_tableii_sweep.json"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := ParseGridSpec(data, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		suite, err := g.Expand()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(suite.Scenarios)), "scenarios/op")
	}
}

// BenchmarkJSONLEmit measures JSONLSink.Emit of one Table II row — the
// flaw3d-1 print's result, simulated once before the timer starts — to
// a discarding writer: the per-scenario cost of every -jsonl stream and
// farm journal line.
func BenchmarkJSONLEmit(b *testing.B) {
	suite, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", "grid_tableii.json"), false)
	if err != nil {
		b.Fatal(err)
	}
	if suite, err = suite.Subset("flaw3d-1"); err != nil {
		b.Fatal(err)
	}
	rep, err := Campaign{}.RunSuite(context.Background(), suite)
	if err != nil {
		b.Fatal(err)
	}
	var row ScenarioResult
	for _, r := range rep.Results {
		if r.Name == "flaw3d-1" {
			row = r
		}
	}
	if row.Result == nil {
		b.Fatal("flaw3d-1 did not run")
	}
	sink := NewJSONLSink(io.Discard)
	sink.Label = suite.Name
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := sink.Emit(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorThroughput measures the pure detection algorithm on a
// pre-recorded capture pair (no simulation in the loop) — the cost of the
// paper's real-time analysis path.
func BenchmarkDetectorThroughput(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	golden, err := captureRun(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	tampered, err := flaw3d.Reduce(prog, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	suspect, err := captureRun(tampered, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := detect.Compare(golden, suspect, detect.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.TrojanLikely {
			b.Fatal("missed")
		}
	}
	b.ReportMetric(float64(golden.Len()), "transactions")
}

// BenchmarkAblationExportPeriod sweeps the capture window — the design
// choice §V-C calls out ("This 5% margin of error can be made
// significantly smaller with a faster communication protocol"). Shorter
// windows mean fewer steps per transaction and tighter drift.
func BenchmarkAblationExportPeriod(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	for _, period := range []sim.Time{50 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := func(seed uint64) *Result {
					tb, err := NewTestbed(WithSeed(seed), WithExportPeriod(period))
					if err != nil {
						b.Fatal(err)
					}
					res, err := tb.Run(context.Background(), prog)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				a := run(uint64(i)*2 + 1)
				c := run(uint64(i)*2 + 2)
				rep, err := detect.Compare(a.Recording, c.Recording, detect.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.LargestSubstantial, "drift-%/op")
			}
		})
	}
}

// BenchmarkAblationTimeNoise sweeps the injected execution jitter to show
// the drift margin scales with the machine's asynchrony, the paper's
// stated source of the 5 % margin.
func BenchmarkAblationTimeNoise(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	for _, noise := range []sim.Time{0, 200 * sim.Microsecond, 1000 * sim.Microsecond} {
		noise := noise
		b.Run(noise.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := func(seed uint64) *Result {
					tb, err := NewTestbed(WithSeed(seed), WithTimeNoise(noise))
					if err != nil {
						b.Fatal(err)
					}
					res, err := tb.Run(context.Background(), prog)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				a := run(uint64(i)*2 + 1)
				c := run(uint64(i)*2 + 2)
				rep, err := detect.Compare(a.Recording, c.Recording, detect.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.LargestSubstantial, "drift-%/op")
			}
		})
	}
}

// BenchmarkGoldenFree measures the §VI golden-free rule engine over a
// real capture — like the comparator, it must be far faster than the
// 0.1 s window period to run live.
func BenchmarkGoldenFree(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	rec, err := captureRun(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := detect.CheckGoldenFree(rec, detect.DefaultLimits())
		if err != nil {
			b.Fatal(err)
		}
		if rep.TrojanLikely {
			b.Fatal("clean capture flagged")
		}
	}
}

// BenchmarkReconstruct measures the §VI design reverse-engineering pass.
func BenchmarkReconstruct(b *testing.B) {
	prog, err := TestPart()
	if err != nil {
		b.Fatal(err)
	}
	rec, err := captureRun(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		design, err := reconstruct.FromCapture(rec, reconstruct.DefaultCalibration(), 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if len(design.Layers) == 0 {
			b.Fatal("no layers reconstructed")
		}
	}
}

// compilePlan compiles prog's move plan as a campaign does.
func compilePlan(b *testing.B, prog gcode.Program) *firmware.Compiled {
	plan, err := firmware.Compile(prog, firmware.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkTrojanOverhead measures how much simulation cost the trojan
// datapath adds over bypass — the in-fabric analogue of the paper's
// "trojans are multiplexed over the original control signals". Each
// trojan has its Table I parameters: T2 masks every extruding move's E
// steps, T5 watches Z steps and injects a Z shift at layer 3, and T8
// forces every EN line high for 2 s in every 10 s after homing.
func BenchmarkTrojanOverhead(b *testing.B) {
	prog := goldenPart(b)
	plan := compilePlan(b, prog)
	for _, bc := range []struct{ name, trojan string }{
		{"bypass", ""},
		{"t2-masking", "T2"},
		{"t5-zshift", "T5"},
		{"t8-dropout", "T8"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				opts := []Option{WithSeed(1)}
				if bc.trojan != "" {
					tr, err := trojan.Build(bc.trojan, nil, 1)
					if err != nil {
						b.Fatal(err)
					}
					opts = append(opts, WithTrojan(tr))
				}
				tb, err := NewTestbed(opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(context.Background(), prog, withCompiled(plan)); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(tb.Engine.Executed()), "events/op")
			}
		})
	}
}
