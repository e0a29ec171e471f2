// rsinbench regenerates every experiment table of the paper reproduction
// (DESIGN.md §5) and prints them. Use -exp to select a single experiment
// and -trials to trade accuracy for speed.
//
//	go run ./cmd/rsinbench                 # the full suite
//	go run ./cmd/rsinbench -exp E4         # one experiment
//	go run ./cmd/rsinbench -trials 5000    # tighter confidence
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rsin/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID to run (E1, E4-E7, E10-E16); empty = all")
		seed     = flag.Int64("seed", 1, "RNG seed")
		trials   = flag.Int("trials", 2000, "trials per ensemble point")
		format   = flag.String("format", "table", "output format: table | csv")
		schedRun = flag.Bool("sched", false, "run the scheduling-service benchmark and its gate table instead of the paper tables")
		smoke    = flag.Bool("smoke", false, "with -sched: shrink the run for CI smoke testing")
		jsonOut  = flag.String("json", "", "with -sched: write the machine-readable report (BENCH_sched.json) here")
		openLoop = flag.Bool("openloop", false, "with -sched: also run the open-loop overload sweep through the HTTP front door (Poisson arrivals over a rate grid past the knee) and its shed gate")
	)
	flag.Parse()

	if *schedRun {
		if err := runSchedBench(*seed, *smoke, *openLoop, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	render := func(t *experiments.Table) string {
		if *format == "csv" {
			return t.CSV()
		}
		return t.String()
	}

	small := *trials / 10
	if small == 0 {
		small = 10
	}
	run := map[string]func() *experiments.Table{
		"E1":  experiments.E1Fig2,
		"E4":  func() *experiments.Table { return experiments.E4CubeBlocking(*seed, *trials) },
		"E5":  func() *experiments.Table { return experiments.E5OmegaBlocking(*seed+1, *trials/2) },
		"E6":  func() *experiments.Table { return experiments.E6OccupancySweep(*seed+2, *trials/2) },
		"E7":  func() *experiments.Table { return experiments.E7ExtraStages(*seed+3, *trials/2) },
		"E10": func() *experiments.Table { return experiments.E10TokenVsMonitor(*seed+4, small) },
		"E11": func() *experiments.Table { return experiments.E11TableII(*seed + 5) },
		"E12": func() *experiments.Table { return experiments.E12DinicScaling(*seed+6, small) },
		"E13": func() *experiments.Table { return experiments.E13Integrality(*seed+7, small) },
		"E14": func() *experiments.Table { return experiments.E14LoadBalance(*seed + 8) },
		"E15": func() *experiments.Table { return experiments.E15CyclePolicy(*seed + 9) },
		"E16": func() *experiments.Table { return experiments.E16Placement(*seed+10, small) },
		"E17": func() *experiments.Table { return experiments.E17CircuitVsPacket(*seed+11, small/2+1) },
		"E18": func() *experiments.Table { return experiments.E18FaultTolerance(*seed+12, small) },
	}

	if *exp != "" {
		f, ok := run[strings.ToUpper(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		fmt.Print(render(f()))
		return
	}
	for _, id := range []string{"E1", "E4", "E5", "E6", "E7", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18"} {
		fmt.Print(render(run[id]()))
		fmt.Println()
	}
}
