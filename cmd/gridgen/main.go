// Command gridgen expands a parameter-grid sweep description into a
// plain suite-spec file: grid JSON in, suite JSON out. The expansion is
// the same deterministic cross-product `suite -grid` runs in-process —
// materializing it lets the suite be inspected, diffed, committed, or
// handed to a runner that only speaks suite specs.
//
// Usage:
//
//	gridgen grid.json                  # expanded suite on stdout
//	gridgen -o suite.json grid.json
//	gridgen -names grid.json           # one scenario name per line
//	gridgen -names -shard 2/4 grid.json  # ...owned by shard 2 of 4
//
// -names lists the expanded scenario names (with -shard, only the named
// shard's), which is how a CI matrix or remote executor can preview a
// sweep's slices without running anything.
//
// Static -shard slices and the farm's dynamic lease queue (see
// internal/farm and cmd/coordinator) are two partitions of the same
// scenario-name space: `gridgen -names -shard i/N` previews exactly the
// set a `suite -shard i/N` run would own, while a coordinator deals the
// same names out one lease at a time. Either way the reassembled report
// is byte-identical to the unsharded run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"offramps"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridgen", flag.ContinueOnError)
	var (
		out   = fs.String("o", "", "write the expanded suite spec to `file` (default stdout)")
		names = fs.Bool("names", false, "print expanded scenario names instead of the suite JSON")
		shard = fs.String("shard", "", "with -names, list only shard `i/N`'s owned scenarios")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("want exactly one grid file, got %d args", fs.NArg())
	}
	if *shard != "" && !*names {
		return fmt.Errorf("-shard requires -names (use cmd/suite -shard to run a slice)")
	}

	suite, err := offramps.LoadSuiteOrGrid(fs.Arg(0), true)
	if err != nil {
		return err
	}

	if *names {
		owned := func(string) bool { return true }
		if *shard != "" {
			idx, cnt, err := offramps.ParseShard(*shard)
			if err != nil {
				return err
			}
			owned = func(name string) bool { return offramps.ShardOf(name, cnt) == idx-1 }
		}
		w := stdout
		for _, sc := range suite.Scenarios {
			if owned(sc.Name) {
				fmt.Fprintln(w, sc.Name)
			}
		}
		return nil
	}

	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(suite); err != nil {
		return err
	}
	if f != nil {
		return f.Close()
	}
	return nil
}
