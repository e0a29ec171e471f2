// rsinbench regenerates every experiment table of the paper reproduction
// (DESIGN.md §5, the rows of experiments.Suite) and prints them. Use -exp
// to select a single experiment and -trials to trade accuracy for speed.
//
//	go run ./cmd/rsinbench                 # the full suite
//	go run ./cmd/rsinbench -exp E4         # one experiment
//	go run ./cmd/rsinbench -trials 5000    # tighter confidence
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rsin/internal/experiments"
)

type options struct {
	run    []int // indices into experiments.Suite, in run order
	seed   int64
	trials int
	csv    bool
}

// parseFlags turns the command line into options. Like the flag package's
// own errors, a rejected value is reported on stderr before it is returned.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fail := func(format string, a ...any) (options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(stderr, "rsinbench:", err)
		return options{}, err
	}
	ids := make([]string, len(experiments.Suite))
	for i, e := range experiments.Suite {
		ids[i] = e.ID
	}
	fs := flag.NewFlagSet("rsinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment ID to run ("+strings.Join(ids, ", ")+"); empty = all")
	seed := fs.Int64("seed", 1, "RNG seed")
	trials := fs.Int("trials", 2000, "trials per ensemble point (at least 2)")
	format := fs.String("format", "table", "output format: table | csv")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	// E5-E7 run trials/2 per point; below 2 that ensemble is empty and
	// every blocking probability prints as 0.0%.
	if *trials < 2 {
		return fail("-trials %d: need at least 2", *trials)
	}
	if *format != "table" && *format != "csv" {
		return fail("unknown -format %q (table | csv)", *format)
	}
	opt := options{seed: *seed, trials: *trials, csv: *format == "csv"}
	for i, id := range ids {
		if *exp == "" || strings.EqualFold(*exp, id) {
			opt.run = append(opt.run, i)
		}
	}
	if len(opt.run) == 0 {
		return fail("unknown experiment %q (%s)", *exp, strings.Join(ids, ", "))
	}
	return opt, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	for _, i := range opt.run {
		t := experiments.Suite[i].Run(opt.seed, opt.trials)
		if opt.csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
		if len(opt.run) > 1 {
			fmt.Println()
		}
	}
}
