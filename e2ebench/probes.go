package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"

	"offramps"
	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/goldenstore"
	"offramps/internal/trojan"
)

// probe times direct calls into each layer's public functions on the
// Table II grid at the run's seed — the inputs the golden workloads
// sweep — and returns the per-layer timings. These values do not depend
// on the workload; the counts and campaign figures that do come from the
// workload's own traced sweeps.
func (b *bench) probe() (map[string]float64, error) {
	if b.store == nil {
		if err := b.prefill(); err != nil {
			return nil, fmt.Errorf("probe prefill: %w", err)
		}
	}
	m := make(map[string]float64)
	spec, progs, err := b.probeSpec(m)
	if err != nil {
		return nil, fmt.Errorf("probing grid/spec/firmware: %w", err)
	}
	if err := b.probeTestbed(progs, m); err != nil {
		return nil, fmt.Errorf("probing the testbed: %w", err)
	}
	if err := b.probeDetectAndSinks(spec, m); err != nil {
		return nil, fmt.Errorf("probing detect/sinks: %w", err)
	}
	if err := b.probeStore(spec, m); err != nil {
		return nil, fmt.Errorf("probing the golden store: %w", err)
	}
	if err := b.probeFarm(m); err != nil {
		return nil, fmt.Errorf("probing the farm: %w", err)
	}
	return m, nil
}

// program is one distinct program of the grid, with the seed of the
// first scenario that prints it.
type program struct {
	name string
	seed uint64
	prog gcode.Program
}

// probeSpec times grid expansion, program resolution per scenario and
// firmware compilation per distinct program.
func (b *bench) probeSpec(m map[string]float64) (*offramps.SuiteSpec, []program, error) {
	var spec *offramps.SuiteSpec
	var expand []float64
	for i := 0; i < 20; i++ {
		d, err := b.tracer.timed(0, "probe", "grid.expand", func() (err error) {
			spec, err = b.loadGrid(tableIIGrid)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		expand = append(expand, d)
	}
	m["grid.expand_ms"] = median(expand)

	var resolve, compile []float64
	var progs []program
	seen := make(map[offramps.ProgramSpec]bool)
	for _, sc := range spec.Scenarios {
		var prog gcode.Program
		d, err := b.tracer.timed(0, sc.Name, "spec.resolve", func() (err error) {
			prog, err = sc.Program.Resolve("")
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		resolve = append(resolve, d)
		if seen[sc.Program] {
			continue
		}
		seen[sc.Program] = true
		d, err = b.tracer.timed(0, sc.Name, "firmware.compile", func() error {
			_, err := firmware.Compile(prog, firmware.DefaultConfig())
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		compile = append(compile, d)
		progs = append(progs, program{sc.Name, sc.EffectiveSeed(spec.BaseSeed), prog})
	}
	m["spec.resolve_ms"] = median(resolve)
	m["firmware.compile_ms"] = median(compile)
	return spec, progs, nil
}

// probeTestbed times solo Testbed.Run calls on one pooled core: every
// distinct program in full and in fingerprint capture, and the board-
// trojan arm's T2/T5/T8 on the RAMPS tap against the same run without
// the trojan.
func (b *bench) probeTestbed(progs []program, m map[string]float64) error {
	ctx := context.Background()
	core := offramps.NewTestbedCore()
	run := func(trace, name string, prog gcode.Program, opts []offramps.Option, ropts ...offramps.RunOption) (*offramps.Result, uint64, float64, error) {
		var res *offramps.Result
		var events uint64
		d, err := b.tracer.timed(0, trace, name, func() error {
			tb, err := offramps.NewTestbed(append(opts, offramps.WithCore(core))...)
			if err != nil {
				return err
			}
			res, err = tb.Run(ctx, prog, ropts...)
			events = tb.Engine.Executed()
			return err
		})
		return res, events, d, err
	}
	ruleEngine := func() (detect.Detector, error) { return detect.NewRuleEngine(detect.DefaultLimits()) }

	var full, fp, troj, delta, eventRate, simRate []float64
	for _, p := range progs {
		res, events, d, err := run(p.name, "testbed.run.full", p.prog, []offramps.Option{offramps.WithSeed(p.seed)})
		if err != nil {
			return err
		}
		full = append(full, d)
		eventRate = append(eventRate, float64(events)/(d/1e3))
		simRate = append(simRate, res.Duration.Seconds()/(d/1e3))
		if p.name == "golden" {
			m["sim.events"] = float64(events)
			m["capture.windows"] = float64(res.Recording.Len())
		}
		core.Reclaim(res)

		det, err := ruleEngine()
		if err != nil {
			return err
		}
		res, _, d, err = run(p.name, "testbed.run.fingerprint", p.prog, []offramps.Option{offramps.WithSeed(p.seed)},
			offramps.WithCaptureMode(offramps.CaptureFingerprint), offramps.WithDetector(det, offramps.FlagOnly))
		if err != nil {
			return err
		}
		fp = append(fp, d)
		core.Reclaim(res)
	}

	golden := progs[0]
	for _, name := range []string{"T2", "T5", "T8"} {
		var pair [2]float64
		for k := range pair {
			opts := []offramps.Option{offramps.WithSeed(golden.seed), offramps.WithTapSide(fpga.TapRAMPS)}
			span := "testbed.run.bypass"
			if k == 1 {
				t, err := trojan.Build(name, nil, golden.seed)
				if err != nil {
					return err
				}
				opts = append(opts, offramps.WithTrojan(t))
				span = "testbed.run.trojan"
			}
			det, err := ruleEngine()
			if err != nil {
				return err
			}
			res, _, d, err := run(name, span, golden.prog, opts,
				offramps.WithCaptureMode(offramps.CaptureFingerprint), offramps.WithDetectorAt(offramps.BindRAMPS, det, offramps.FlagOnly))
			if err != nil {
				return err
			}
			pair[k] = d
			core.Reclaim(res)
		}
		troj = append(troj, pair[1])
		delta = append(delta, pair[1]-pair[0])
	}

	for class, xs := range map[string][]float64{"full": full, "fingerprint": fp, "trojan": troj} {
		m["testbed.run_ms."+class+".p50"] = median(xs)
		_, m["testbed.run_ms."+class+".tail"] = tail(xs)
	}
	b.solo = [3]float64{median(full), median(fp), median(troj)}
	m["sim.events_per_s"] = median(eventRate)
	m["testbed.sim_s_per_host_s"] = median(simRate)
	m["trojan.run_ms_delta"] = median(delta)
	return nil
}

// probeDetectAndSinks replays a warm sweep's captures through the
// detectors and its rows through the sinks, checking each product
// against the sweep's own.
func (b *bench) probeDetectAndSinks(spec *offramps.SuiteSpec, m map[string]float64) error {
	cache := offramps.NewGoldenCache()
	cache.AttachStore(b.store)
	rep, err := offramps.Campaign{Workers: b.workers, Cache: cache}.RunSuite(context.Background(), spec)
	if err != nil {
		return err
	}
	results := make(map[string]*offramps.Result, len(rep.Results))
	for _, r := range rep.Results {
		if r.Err != nil {
			return r.Err
		}
		results[r.Name] = r.Result
	}

	var compare, replay []float64
	for i, c := range spec.Compare {
		var r detect.Report
		d, err := b.tracer.timed(0, c.Suspect, "detect.compare", func() (err error) {
			r, err = detect.Compare(results[c.Golden].Recording, results[c.Suspect].Recording, detect.DefaultConfig())
			return err
		})
		if err != nil {
			return err
		}
		if want := rep.Comparisons[i].Report.TrojanLikely; r.TrojanLikely != want {
			return fmt.Errorf("detect.Compare %s: TROJAN LIKELY = %v, the sweep said %v", c.Suspect, r.TrojanLikely, want)
		}
		compare = append(compare, d)
	}
	for _, r := range rep.Results {
		rec := r.Result.Recording
		eng, err := detect.NewRuleEngine(detect.DefaultLimits())
		if err != nil {
			return err
		}
		d, err := b.tracer.timed(0, r.Name, "detect.replay", func() error {
			_, err := detect.Replay(rec, eng)
			return err
		})
		if err != nil {
			return err
		}
		replay = append(replay, d*1e3/float64(rec.Len()))
	}
	m["detect.compare_ms"] = median(compare)
	m["detect.replay_us_per_window"] = median(replay)

	var encode, emit, stitch []float64
	for i := 0; i < 10; i++ {
		d, err := b.tracer.timed(0, "probe", "sink.encode_report", func() error {
			doc, err := encodeSuite(rep)
			if err == nil {
				err = b.sameAsRef(doc)
			}
			return err
		})
		if err != nil {
			return err
		}
		encode = append(encode, d)
	}

	// Stream the rows as a farm worker does, then stitch them back.
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = spec.Name
	rows := make(map[string]json.RawMessage)
	compares := make(map[string]json.RawMessage)
	for _, r := range rep.Results {
		buf.Reset()
		d, err := b.tracer.timed(0, r.Name, "sink.jsonl_emit", func() error { return sink.Emit(r) })
		if err != nil {
			return err
		}
		emit = append(emit, d*1e3)
		row, err := offramps.ParseStreamRow(bytes.TrimSpace(buf.Bytes()))
		if err != nil {
			return err
		}
		rows[row.Name] = row.Report
	}
	for _, c := range rep.Comparisons {
		buf.Reset()
		if err := sink.EmitCompare(c); err != nil {
			return err
		}
		row, err := offramps.ParseStreamRow(bytes.TrimSpace(buf.Bytes()))
		if err != nil {
			return err
		}
		compares[row.Key] = row.Report
	}
	for i := 0; i < 10; i++ {
		var raw *offramps.RawSuiteReport
		d, err := b.tracer.timed(0, "probe", "sink.stitch", func() (err error) {
			raw, err = offramps.StitchReport(spec, rows, compares)
			return err
		})
		if err != nil {
			return err
		}
		stitch = append(stitch, d)
		var doc bytes.Buffer
		if err := offramps.EncodeReport(&doc, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*raw}}); err != nil {
			return err
		}
		if err := b.sameAsRef(doc.Bytes()); err != nil {
			return fmt.Errorf("stitched report: %w", err)
		}
	}
	m["sink.encode_report_ms"] = median(encode)
	m["sink.jsonl_emit_us"] = median(emit)
	m["sink.stitch_ms"] = median(stitch)
	return nil
}

var errStoreMiss = errors.New("golden store miss")

// probeStore times the golden lookup stage by stage: store Get on every
// prefilled entry (hit) and on random keys (Bloom-negative), Put into a
// fresh store, and a one-golden Campaign.Run on the warm store, from
// which the codec's decode time is derived.
func (b *bench) probeStore(spec *offramps.SuiteSpec, m map[string]float64) error {
	keys, err := b.store.Keys()
	if err != nil {
		return err
	}
	if len(keys) != tableIIScenarios {
		return fmt.Errorf("store holds %d entries, want %d", len(keys), tableIIScenarios)
	}
	payloads := make([][]byte, len(keys))
	var get, absent, put, sizes, lookup []float64
	for r := 0; r < 10; r++ {
		for i, k := range keys {
			d, err := b.tracer.timed(0, "probe", "goldenstore.get", func() error {
				var ok bool
				if payloads[i], ok = b.store.Get(k); !ok {
					return errStoreMiss
				}
				return nil
			})
			if err != nil {
				return err
			}
			get = append(get, d*1e3)
		}
	}
	for _, p := range payloads {
		sizes = append(sizes, float64(len(p))/1024)
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x600d))
	for i := 0; i < len(get); i++ {
		var k goldenstore.Key
		for j := range k.Program {
			k.Program[j] = byte(rng.Uint32())
		}
		k.Seed = rng.Uint64()
		d, err := b.tracer.timed(0, "probe", "goldenstore.get_absent", func() error {
			if _, ok := b.store.Get(k); ok {
				return fmt.Errorf("random key %x is a store hit", k.Program[:4])
			}
			return nil
		})
		if err != nil {
			return err
		}
		absent = append(absent, d*1e3)
	}

	dir := b.scratch("put-store")
	defer os.RemoveAll(dir)
	ps, err := goldenstore.Open(dir)
	if err != nil {
		return err
	}
	for i, k := range keys {
		d, err := b.tracer.timed(0, "probe", "goldenstore.put", func() error { return ps.Put(k, payloads[i]) })
		if err != nil {
			return err
		}
		put = append(put, d)
	}

	for _, sc := range spec.Scenarios {
		cache := offramps.NewGoldenCache()
		cache.AttachStore(b.store)
		d, err := b.tracer.timed(0, sc.Name, "goldencache.warm_lookup", func() error {
			scen, err := sc.Compile(offramps.SpecContext{BaseSeed: spec.BaseSeed})
			if err != nil {
				return err
			}
			res, err := offramps.Campaign{Workers: 1, Cache: cache}.Run(context.Background(), []offramps.Scenario{scen})
			if err == nil {
				err = res[0].Err
			}
			return err
		})
		if err != nil {
			return err
		}
		if hits, _ := cache.StoreStats(); hits != 1 || cache.Sims() != 0 {
			return fmt.Errorf("warm lookup of %s: %d store hits, %d simulations", sc.Name, hits, cache.Sims())
		}
		lookup = append(lookup, d)
	}

	m["goldenstore.get_us.p50"] = median(get)
	_, m["goldenstore.get_us.tail"] = tail(get)
	m["goldenstore.get_absent_us"] = median(absent)
	m["goldenstore.put_ms"] = median(put)
	m["goldenstore.entry_kib"] = median(sizes)
	m["goldencache.warm_lookup_ms"] = median(lookup)
	m["goldencodec.decode_ms"] = median(lookup) - median(get)/1e3 - m["spec.resolve_ms"]
	return nil
}

// probeFarm alternates warm sweeps with traced farm sweeps on the same
// store; the farm's overhead per scenario is the difference of their
// medians.
func (b *bench) probeFarm(m map[string]float64) error {
	var warm, farm []float64
	for i := 0; i < 3; i++ {
		w := b.warmSweep(nil, "probe-warm")
		f := b.farmSweep(b.tracer, "probe-farm-"+strconv.Itoa(i))
		for _, s := range []sweep{w, f} {
			if len(s.problems) > 0 {
				return errors.New(s.problems[0])
			}
		}
		warm = append(warm, w.wall.Seconds())
		farm = append(farm, f.wall.Seconds())
	}
	m["farm.overhead_ms_per_scenario"] = (median(farm) - median(warm)) * 1e3 / tableIIScenarios
	b.http.metrics(m)
	return nil
}
