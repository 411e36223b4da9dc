// Command benchmark is certa's repeatable benchmark: three workloads that
// drive the library, one server and a router ring from outside, check
// every answer against a reference explanation, and report end-to-end
// and per-layer metrics.
//
//	bash benchmark/run.sh --workload serve-zipf --seed 3 --seconds 20 --trace 0
//	cd benchmark && go run . -workload batch-cold -quick
//
// Each metric prints as one "workload metric value unit" line; the
// last line of standard output is a JSON summary with the keys
// correct, attempted, failed and metrics. The exit status is 0 when
// every check passed, 1 when an answer differed from its reference,
// and 2 when the run could not complete. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// profile is how big a run is.
type profile struct {
	seconds   float64 // length of the measured phases
	seed      int64   // drives the request stream
	quick     bool    // smoke-test profile: one pass, quickRequests per step
	nproc     int
	poolSeeds int // test pairs the pool is blocked around
	setupReps int
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// quickRequests is the size of every step in the quick profile.
	quickRequests = 8
)

func newProfile(seconds float64, seed int64, quick bool) profile {
	p := profile{seconds: seconds, seed: seed, quick: quick, nproc: runtime.NumCPU(), poolSeeds: 8, setupReps: 3}
	if quick {
		p.poolSeeds, p.setupReps = 1, 1
	}
	return p
}

// runTimeout bounds one workload run, below the 180 s a run may take.
const runTimeout = 170 * time.Second

// outcome is what a workload run returns.
type outcome struct {
	values            values
	attempted, failed int
	checkErr          error // an answer differed from its reference
}

type workload struct {
	name string
	run  func(ctx context.Context, p profile, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"batch-cold", runBatchCold},
	{"serve-zipf", serveWorkload(serveZipf)},
	{"ring-zipf", serveWorkload(ringZipf)},
}

func serveWorkload(spec serveSpec) func(context.Context, profile, bool) (*outcome, error) {
	return func(ctx context.Context, p profile, traced bool) (*outcome, error) {
		return runServe(ctx, p, traced, spec)
	}
}

func warnf(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(runAgree(os.Args[2:], os.Stdout))
	}
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

// run parses the flags, runs the selected workloads and prints their
// metrics; it returns the exit status.
func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Int64("seed", 7, "seed of the request stream")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phases, in seconds")
	trace := fs.String("trace", "both", "0: end-to-end metrics; 1: per-layer metrics (traced run); both: one run of each")
	outPath := fs.String("out", "", "append every run's result to this file as a JSON line")
	quick := fs.Bool("quick", false, "smoke profile: a 16-pair pool, one pass, 8 requests per step")
	list := fs.Bool("list", false, "print the workload names, one a line, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		warnf("usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|both] [-out FILE] [-quick] [-list]")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		warnf("unknown workload %q (want all or one of %s)", *name, workloadNames())
		return 2
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		warnf("-trace must be 0, 1 or both, not %q", *trace)
		return 2
	}
	return runWorkloads(ctx, selected, traces, newProfile(*seconds, *seed, *quick), *outPath, stdout)
}

// runWorkloads runs each selected workload once per trace mode, prints
// every metric and then the JSON summary, and returns the exit status.
func runWorkloads(ctx context.Context, selected []workload, traces []bool, p profile, outPath string, stdout io.Writer) int {
	total := result{Correct: true, Metrics: map[string]measurement{}}
	for _, w := range selected {
		for _, traced := range traces {
			res, err := runOne(ctx, w, p, traced)
			if err != nil {
				warnf("%s: %v", w.name, err)
				return 2
			}
			printLines(stdout, w.name, res.Metrics)
			if outPath != "" {
				if err := appendRecord(outPath, w.name, p, traced, res); err != nil {
					warnf("%v", err)
					return 2
				}
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, m := range res.Metrics {
				if len(selected) > 1 {
					k = w.name + "." + k
				}
				total.Metrics[k] = m
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		warnf("encoding the result: %v", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload once and shapes its outcome into a result.
func runOne(ctx context.Context, w workload, p profile, traced bool) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	start := time.Now()
	o, err := w.run(ctx, p, traced)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded %s: %w", runTimeout, err)
		}
		return result{}, err
	}
	res := result{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]measurement{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := fill(res.Metrics, defs, o.values); err != nil {
		return result{}, err
	}
	if o.checkErr != nil {
		warnf("%s: correctness check failed: %v", w.name, o.checkErr)
	}
	if u := o.values["trace.unattributed_pct"]; traced && math.Abs(u) > unattributedTolerancePct {
		warnf("%s: the top-level stages leave %.1f%% of the time unattributed (tolerance %d%%)", w.name, u, unattributedTolerancePct)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s trace=%v seed=%d: %d attempted, %d failed, %.1fs\n",
		w.name, traced, p.seed, o.attempted, o.failed, time.Since(start).Seconds())
	return res, nil
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

func appendRecord(path, name string, p profile, traced bool, res result) error {
	line, err := json.Marshal(record{Workload: name, Seed: p.seed, Seconds: p.seconds, Trace: traced, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
