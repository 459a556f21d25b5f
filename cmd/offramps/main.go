// Command offramps runs one simulated print on the full OFFRAMPS testbed:
// Marlin-twin firmware → FPGA MITM → RAMPS drivers → printer plant. It can
// arm any of the paper's Table I trojans, attach live detectors that halt
// the print within one capture window of a suspected trojan, export the
// monitoring capture as CSV, and dump the control signals as a VCD
// waveform for GTKWave.
//
// Usage:
//
//	offramps                         # golden print of the built-in part
//	offramps -gcode part.gcode       # print a sliced file
//	offramps -trojan T7 -settle 60s  # thermal-runaway attack, watch physics
//	offramps -capture out.csv        # save the pulse-profile capture
//	offramps -vcd steps.vcd          # save STEP/DIR waveforms
//	offramps -monitor golden.csv     # live golden monitor, abort on trip
//	offramps -golden-free            # live physics rules, abort on trip
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"offramps"
	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "offramps:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("offramps", flag.ContinueOnError)
	var (
		gcodePath  = fs.String("gcode", "", "G-code file to print (default: built-in 20 mm test box)")
		trojanID   = fs.String("trojan", "", "arm a Table I trojan: T1..T9")
		seed       = fs.Uint64("seed", 1, "time-noise seed (a different seed is a different physical run)")
		settle     = fs.Duration("settle", 2*time.Second, "simulated time to keep running after the print ends")
		capPath    = fs.String("capture", "", "write the pulse-profile capture CSV here")
		vcdPath    = fs.String("vcd", "", "write STEP/DIR/heater waveforms as VCD here")
		noMITM     = fs.Bool("direct", false, "bypass the FPGA with jumpers (Figure 3a)")
		budget     = fs.Duration("budget", time.Hour, "simulated-time budget")
		monitorCSV = fs.String("monitor", "", "golden capture CSV: attach a live monitor that aborts on trip")
		goldenFree = fs.Bool("golden-free", false, "attach the live golden-free rule engine (aborts on trip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prog, err := loadProgram(*gcodePath)
	if err != nil {
		return err
	}

	opts := []offramps.Option{
		offramps.WithSeed(*seed),
		offramps.WithSettle(sim.FromDuration(*settle)),
	}
	if *noMITM {
		opts = append(opts, offramps.WithoutMITM())
	}
	if *trojanID != "" {
		tr, err := findTrojan(*trojanID, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("arming %s: %s\n", tr.ID(), tr.Description())
		opts = append(opts, offramps.WithTrojan(tr))
	}

	tb, err := offramps.NewTestbed(opts...)
	if err != nil {
		return err
	}

	ropts := []offramps.RunOption{offramps.WithLimit(sim.FromDuration(*budget))}
	if *monitorCSV != "" {
		golden, err := readCapture(*monitorCSV)
		if err != nil {
			return fmt.Errorf("golden capture: %w", err)
		}
		m, err := detect.NewMonitor(golden, detect.DefaultConfig())
		if err != nil {
			return err
		}
		ropts = append(ropts, offramps.WithDetector(m, offramps.AbortOnTrip))
	}
	if *goldenFree {
		e, err := detect.NewRuleEngine(detect.DefaultLimits())
		if err != nil {
			return err
		}
		ropts = append(ropts, offramps.WithDetector(e, offramps.AbortOnTrip))
	}

	var traces []*signal.Trace
	if *vcdPath != "" {
		for _, pin := range []string{
			signal.PinXStep, signal.PinXDir, signal.PinYStep, signal.PinYDir,
			signal.PinZStep, signal.PinEStep, signal.PinHotend, signal.PinBed, signal.PinFan,
		} {
			traces = append(traces, signal.NewTrace(tb.RAMPS.Line(pin)))
		}
	}

	res, err := tb.Run(context.Background(), prog, ropts...)
	if err != nil {
		return err
	}
	printSummary(res)

	if *capPath != "" && res.Recording != nil {
		f, err := os.Create(*capPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Recording.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("capture: %d transactions -> %s\n", res.Recording.Len(), *capPath)
	}
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := signal.WriteVCD(f, traces); err != nil {
			return err
		}
		fmt.Printf("waveforms -> %s\n", *vcdPath)
	}
	return nil
}

func loadProgram(path string) (gcode.Program, error) {
	if path == "" {
		return offramps.TestPart()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gcode.Parse(f)
}

func readCapture(path string) (*capture.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return capture.ReadCSV(f)
}

func findTrojan(id string, seed uint64) (trojan.Info, error) {
	for _, tr := range trojan.Suite(seed) {
		if tr.ID() == id {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("unknown trojan %q (want T1..T9)", id)
}

func printSummary(res *offramps.Result) {
	status := "completed"
	if res.Aborted {
		status = fmt.Sprintf("ABORTED by detector at %v — %s", res.AbortedAt, res.TripReason)
	} else if !res.Completed {
		status = fmt.Sprintf("HALTED: %v", res.HaltError)
	}
	fmt.Printf("print %s in %v simulated\n", status, res.Duration)
	fmt.Printf("part: %s\n", res.Quality)
	fmt.Printf("thermal: hotend peak %.1f°C (exceeded spec: %v), bed peak %.1f°C\n",
		res.PeakHotendTemp, res.HotendExceededSafe, res.PeakBedTemp)
	fmt.Printf("cooling: peak fan duty %.2f\n", res.PeakFanDuty)
	lost := uint64(0)
	for _, n := range res.StepsLost {
		lost += n
	}
	if lost > 0 {
		fmt.Printf("steps lost to disabled drivers: %d\n", lost)
	}
	for _, rep := range res.Detections {
		verdict := "no trojan suspected"
		if rep.TrojanLikely {
			verdict = "TROJAN LIKELY"
		}
		fmt.Printf("detector %s: %s\n", rep.Detector, verdict)
	}
}
