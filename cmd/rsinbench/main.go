// rsinbench regenerates every experiment table of the paper reproduction
// (DESIGN.md §5) and prints them. Use -exp to select a single experiment
// and -trials to trade accuracy for speed.
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

// suite is the one experiment table: the -exp help, the lookup and the
// run order all come from it. Each row derives its own seed offset and
// ensemble size from -seed and -trials.
var suite = []struct {
	id  string
	run func(seed int64, trials int) *experiments.Table
}{
	{"E1", func(int64, int) *experiments.Table { return experiments.E1Fig2() }},
	{"E4", func(s int64, n int) *experiments.Table { return experiments.E4CubeBlocking(s, n) }},
	{"E5", func(s int64, n int) *experiments.Table { return experiments.E5OmegaBlocking(s+1, n/2) }},
	{"E6", func(s int64, n int) *experiments.Table { return experiments.E6OccupancySweep(s+2, n/2) }},
	{"E7", func(s int64, n int) *experiments.Table { return experiments.E7ExtraStages(s+3, n/2) }},
	{"E10", func(s int64, n int) *experiments.Table { return experiments.E10TokenVsMonitor(s+4, small(n)) }},
	{"E11", func(s int64, _ int) *experiments.Table { return experiments.E11TableII(s + 5) }},
	{"E12", func(s int64, n int) *experiments.Table { return experiments.E12DinicScaling(s+6, small(n)) }},
	{"E13", func(s int64, n int) *experiments.Table { return experiments.E13Integrality(s+7, small(n)) }},
	{"E14", func(s int64, _ int) *experiments.Table { return experiments.E14LoadBalance(s + 8) }},
	{"E15", func(s int64, _ int) *experiments.Table { return experiments.E15CyclePolicy(s + 9) }},
	{"E16", func(s int64, n int) *experiments.Table { return experiments.E16Placement(s+10, small(n)) }},
	{"E17", func(s int64, n int) *experiments.Table { return experiments.E17CircuitVsPacket(s+11, small(n)/2+1) }},
	{"E18", func(s int64, n int) *experiments.Table { return experiments.E18FaultTolerance(s+12, small(n)) }},
}

// small is the ensemble size of the experiments that solve a whole trace
// per trial: a tenth of -trials, never none.
func small(trials int) int {
	if trials < 10 {
		return 10
	}
	return trials / 10
}

type options struct {
	run    []int // indices into suite, in run order
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
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.id
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
		t := suite[i].run(opt.seed, opt.trials)
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
