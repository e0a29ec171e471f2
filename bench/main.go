// Command bench is the repository's benchmark: seven named workloads over
// the scheduling service, the end-to-end metrics a user of it sees, and a
// traced stack walk that splits each workload's cost by layer. See
// README.md in this directory for the tables and how to word a claim.
//
//	go run ./bench                                  every workload, then the traced pass; writes bench/out/
//	go run ./bench -record                          the same, and one line appended to bench/history.jsonl
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                                one workload, one JSON result line (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"rsin/internal/stats"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == awakeArg {
		os.Exit(awakeChild())
	}
	stop := keepAwake()
	// An interrupted run still stops its spinners and waits for them.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		stop()
		os.Exit(130)
	}()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print one JSON result line; empty runs them all")
	seed := fs.Int64("seed", 1, "selects the op script: processors, tiers, need vectors, arrival instants, fault targets")
	seconds := fs.Int("seconds", 0, "measured window in seconds (default: each workload's own 20 s or 10 s)")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced stack walk")
	record := fs.Bool("record", false, "append the full run's end-to-end metrics to history.jsonl")
	dir := fs.String("dir", "bench", "the benchmark's directory: out/ and history.jsonl are written under it")
	breakCheck := fs.String("break", "", "self-test of the gate: 'ledger' tells the ledger every resource is already held")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *breakCheck != "" && *breakCheck != "ledger" {
		fmt.Fprintf(stderr, "bench: unknown -break %q\n", *breakCheck)
		return 2
	}
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		window := w.Window
		if *seconds > 0 {
			window = time.Duration(*seconds) * time.Second
		}
		res, spans, err := driverRun(w, *seed, window, *trace == 1, false, *breakCheck == "ledger")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		if spans != nil {
			if err := writeJSON(filepath.Join(*dir, "out", "spans-"+w.Name+".json"), spans); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	if err := fullRun(stdout, *seed, *seconds, *dir, *record, *breakCheck == "ledger"); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the driver's result line. Failed counts operations that
// ended in an outcome their workload does not allow; any such operation
// also fails the run, so a printed result has none. Refusals a workload
// exists to provoke (shed, deadline, sever budget) are outcomes, counted
// by serviced_share.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range defs {
		out[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// driverRun is one invocation in the driver's form: untraced it measures
// set-up and the end-to-end metrics over window; traced it walks the
// stack within the same window and returns the per-layer metrics.
func driverRun(w *workloadDef, seed int64, window time.Duration, traced, smoke, breakLedger bool) (*driverResult, []span, error) {
	if traced {
		segs := 1 + len(w.Depths)
		if w.Name == "untyped_sat" {
			segs++ // the obs on/off pair
		}
		if !w.Open {
			segs-- // D3 runs a fixed count, not a share of the window
		}
		layer, spans, attempted, err := stackWalk(w, seed, window/time.Duration(segs), smoke)
		if err != nil {
			return nil, nil, err
		}
		return &driverResult{Correct: true, Attempted: attempted, Metrics: pick(perLayer, layer)}, spans, nil
	}
	warm := warmUp
	if smoke {
		warm = window / 4
	}
	setupS, err := measureSetup(w, smoke)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	r, err := runAt(w, w.Depths[0], runOpts{seed: seed, warm: warm, dur: window, exercise: !smoke, smoke: smoke, breakLedger: breakLedger})
	if err != nil {
		return nil, nil, err
	}
	r.e2e["setup_s"] = setupS
	return &driverResult{Correct: true, Attempted: r.attempted, Metrics: pick(endToEnd, r.e2e)}, nil, nil
}

// measureSetup times fresh set-ups and returns the median in seconds:
// build the fabric, the scheduler and (front door) server, listener and
// connections, run every client's first operation through to release —
// lazy arenas, routing tables, the first LP — and close. It sets up
// minSetups times, then on while set-ups stay cheap; once for a smoke run.
// The first operations are always script 0's: set-up measures lazy
// initialization, and which need vectors a seed happens to deal first
// moved typed_pool's figure 38% between seeds.
func measureSetup(w *workloadDef, smoke bool) (float64, error) {
	var secs []float64
	begin := time.Now()
	for i := 0; i < maxSetups; i++ {
		if smoke && i > 0 || i >= minSetups && time.Since(begin) > setupBudget {
			break
		}
		t0 := time.Now()
		e, err := build(w, w.Depths[0], nil)
		if err != nil {
			return 0, err
		}
		if w.Open {
			// No clients: one zero-hold request per connection.
			fire := fireHTTP(e, dWire)
			for c := range e.httpc {
				if out := fire(arrival{Proc: c}); out != oServiced {
					e.fail(fmt.Errorf("first request on connection %d: outcome %d", c, out))
				}
			}
		} else {
			var wg sync.WaitGroup
			for c := 0; c < w.Clients; c++ {
				cl := newClient(e, w.Depths[0], 0, c, t0, false)
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl.opFor()()
				}()
			}
			wg.Wait()
		}
		e.close()
		if e.err != nil {
			return 0, e.err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return stats.Quantile(secs, 0.5), nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fullRun is `go run ./bench`: every workload untraced with its own
// window, every metric printed by name with its unit, then the traced
// pass, then bench/out.
func fullRun(stdout io.Writer, seed int64, seconds int, dir string, record, breakLedger bool) error {
	type row struct {
		E2E   map[string]float64 `json:"end_to_end"`
		Layer map[string]float64 `json:"per_layer"`
	}
	results := map[string]*row{}
	// Nothing is printed until every workload has passed its checks: a
	// broken run leaves no metrics behind to be quoted.
	var text strings.Builder
	fmt.Fprintf(&text, "rsin bench: seed %d, %s, nproc %d; one process, load generator shares the CPUs\n", seed, runtime.Version(), runtime.NumCPU())
	for i := range workloads {
		w := &workloads[i]
		window := w.Window
		if seconds > 0 {
			window = time.Duration(seconds) * time.Second
		}
		fmt.Fprintf(os.Stderr, "bench: %s: set-ups, %v warm-up, %v window\n", w.Name, warmUp, window)
		setupS, err := measureSetup(w, false)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		r, err := runAt(w, w.Depths[0], runOpts{seed: seed, warm: warmUp, dur: window, exercise: true, breakLedger: breakLedger})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		r.e2e["setup_s"] = setupS
		results[w.Name] = &row{E2E: r.e2e, Layer: r.layer}
		fmt.Fprintf(&text, "\n%s — %s\n", w.Name, w.Why)
		if w.Depths[0] == dWire {
			fmt.Fprintf(&text, "  (traffic crossed loopback over %d h2c connections)\n", connLimit())
		}
		for _, m := range endToEnd {
			fmt.Fprintf(&text, "  %-24s %14.6g %-6s (%s is better, bound %.1f%%)\n", m.Name, r.e2e[m.Name], m.Unit, m.Better, 100*m.Bound)
		}
		fmt.Fprintf(&text, "  latency samples %d; highest percentile with >=10 samples beyond it: p%g = %.6g ms; better-decile p99 over slices %.6g ms (ungated)\n",
			r.samples, 100*r.topPct, r.topMS, r.p99)
	}
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s: traced stack walk\n", w.Name)
		layer, spans, _, err := stackWalk(w, seed, 3*time.Second, false)
		if err != nil {
			return fmt.Errorf("%s: traced pass: %w", w.Name, err)
		}
		// The long untraced run's tails stand; the walk's short base run
		// only feeds trace.overhead_share.
		for k, v := range results[w.Name].Layer {
			layer[k] = v
		}
		results[w.Name].Layer = layer
		if err := writeJSON(filepath.Join(dir, "out", "spans-"+w.Name+".json"), spans); err != nil {
			return err
		}
		fmt.Fprintf(&text, "\n%s — per layer (traced pass)\n", w.Name)
		for _, m := range perLayer {
			fmt.Fprintf(&text, "  %-32s %14.6g %s\n", m.Name, layer[m.Name], m.Unit)
		}
		sum := layer["http.self_us"] + layer["server.self_us"] + layer["sched.self_us"] + layer["system.self_us"] + layer["core.self_us"]
		fmt.Fprintf(&text, "  self costs sum to %.6g us; top depth traced cpu_us_per_task %.6g us\n", sum, layer["trace.top_cpu_us"])
	}
	if err := writeJSON(filepath.Join(dir, "out", "results.json"), results); err != nil {
		return err
	}
	if record {
		e2e := map[string]map[string]float64{}
		for name, r := range results {
			e2e[name] = r.E2E
		}
		line, err := json.Marshal(struct {
			Time      string                        `json:"time"`
			Commit    string                        `json:"commit"`
			GoVersion string                        `json:"go_version"`
			NProc     int                           `json:"nproc"`
			Seed      int64                         `json:"seed"`
			Seconds   int                           `json:"seconds_override,omitempty"`
			EndToEnd  map[string]map[string]float64 `json:"end_to_end"`
		}{time.Now().UTC().Format(time.RFC3339), commitID(), runtime.Version(), runtime.NumCPU(), seed, seconds, e2e})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err := io.WriteString(stdout, text.String())
	return err
}

// commitID names the commit a recorded run measured; "unknown" outside a
// git checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		id += "+dirty"
	}
	return id
}
