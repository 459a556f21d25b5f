// Command experiments regenerates every table and figure in the paper's
// evaluation section (see DESIGN.md §3 for the experiment index), plus
// the tap-side topology and self-attestation experiments this
// reproduction adds. Every experiment but Overhead runs its committed
// examples/specs file through one shared campaign: -workers bounds its
// pool, and one golden
// cache (backed by -golden-store when given) serves the goldens the
// experiments have in common. -json writes the machine-readable reports
// alongside the Format() text; with -json - the reports go to stdout
// and the text to stderr.
//
// Usage:
//
//	experiments -all
//	experiments -table1 -figure4
//	experiments -drift -seed 7
//	experiments -all -workers 4
//	experiments -all -json reports.json
//	experiments -overhead -json - > overhead.json
//	experiments -all -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"offramps"
	"offramps/internal/goldenstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and runs the selected experiments, writing the
// reports' text to stdout — or to stderr when -json - claims stdout for
// the JSON document.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		table1   = fs.Bool("table1", false, "Table I: the nine-trojan suite")
		table2   = fs.Bool("table2", false, "Table II: Flaw3D detection matrix")
		figure4  = fs.Bool("figure4", false, "Figure 4: detection output excerpt")
		overhead = fs.Bool("overhead", false, "§V-B: monitoring overhead")
		drift    = fs.Bool("drift", false, "§V-C: time-noise drift bound")
		tapside  = fs.Bool("tapside", false, "§V-D: tap-side topology (co-location blind spot)")
		selfatt  = fs.Bool("selfattest", false, "dual-tap board self-attestation (golden-free board-trojan detection)")
		seed     = fs.Uint64("seed", 1, "base time-noise seed")
		workers  = fs.Int("workers", 0, "campaign worker-pool size (0 = GOMAXPROCS)")
		jsonOut  = fs.String("json", "", "also write the machine-readable reports to `file` (\"-\" = stdout, text to stderr)")
		storeDir = fs.String("golden-store", "", "persist golden runs in `dir` across invocations")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file`")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the experiments to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table1, *table2, *figure4, *overhead, *drift, *tapside, *selfatt = true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*figure4 && !*overhead && !*drift && !*tapside && !*selfatt {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -all or pick experiments")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments: memprofile:", err)
			}
		}()
	}

	// One campaign runs every selected experiment, so a golden print the
	// experiments share simulates once; -golden-store backs its cache
	// with a persistent tier, so a rerun of the same tables serves its
	// goldens from disk instead of re-simulating them.
	c := offramps.Campaign{Workers: *workers, Cache: offramps.NewGoldenCache()}
	if *storeDir != "" {
		store, err := goldenstore.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("golden-store: %w", err)
		}
		c.Cache.AttachStore(store)
	}

	type report interface{ Format() string }
	list := []struct {
		enabled bool
		name    string
		key     string // stable key for the -json document
		run     func() (report, error)
	}{
		{*table1, "Table I", "table1", func() (report, error) { return offramps.TableI(c, *seed) }},
		{*table2, "Table II", "table2", func() (report, error) { return offramps.TableII(c, *seed) }},
		{*figure4, "Figure 4", "figure4", func() (report, error) { return offramps.Figure4(c, *seed) }},
		{*overhead, "Overhead (§V-B)", "overhead", func() (report, error) { return offramps.Overhead(*seed) }},
		{*drift, "Drift (§V-C)", "drift", func() (report, error) { return offramps.Drift(c, *seed) }},
		{*tapside, "Tap sides (§V-D)", "tapside", func() (report, error) { return offramps.TapSides(c, *seed) }},
		{*selfatt, "Self-attestation", "selfattest", func() (report, error) { return offramps.SelfAttest(c, *seed) }},
	}
	text := stdout
	if *jsonOut == "-" {
		text = stderr
	}
	reports := make(map[string]any)
	for _, ex := range list {
		if !ex.enabled {
			continue
		}
		fmt.Fprintf(text, "==== %s ====\n", ex.name)
		start := time.Now()
		rep, err := ex.run()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		fmt.Fprint(text, rep.Format())
		fmt.Fprintf(text, "(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		reports[ex.key] = rep
	}
	if *storeDir != "" {
		storeHits, storeMisses := c.Cache.StoreStats()
		fmt.Fprintf(text, "golden store: %d hits, %d misses, %d simulations\n",
			storeHits, storeMisses, c.Cache.Sims())
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, *seed, reports); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}

// writeJSON emits the machine-readable report document to path ("-" =
// stdout).
func writeJSON(path string, stdout io.Writer, seed uint64, reports map[string]any) error {
	doc := struct {
		Seed    uint64         `json:"seed"`
		Reports map[string]any `json:"reports"`
	}{Seed: seed, Reports: reports}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
