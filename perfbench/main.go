// Command perfbench is the repository benchmark. It drives three
// workloads through the framework's public entry points — the Figure-7
// ISPIDER pipeline (fig7-batch), a two-phase quality-view stream
// (stream) and an HTTP-served view fleet (fleet-http) — checks every
// output against a reference, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fig7-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// timing decorators at each layer's public interface are switched on for
// the middle half of the run, and the result carries the per-layer
// metrics plus the tracing overhead against the untraced quarters.
// The line before the result is a stamped record: environment, inputs,
// workload parameters and the workload-named figures behind the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run builds its workload at least setupRepeats times, and keeps
// building while less than setupBudget has been spent (at most
// setupMax builds), so that even a sub-millisecond set-up has a steady
// median; setup_s is the median and the last build is the one measured.
// Every build starts from a collected heap, so garbage the previous one
// left does not land in its time.
const (
	setupRepeats = 5
	setupBudget  = time.Second
	setupMax     = 50
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the stamped line printed before the result.
type record struct {
	Benchmark string            `json:"benchmark"`
	Env       map[string]any    `json:"env"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Params    map[string]any    `json:"params"`
	Detail    map[string]metric `json:"detail"`
	Checks    map[string]int64  `json:"checks"`
	Result    result            `json:"result"`
}

// workload is one benchmark scenario after set-up.
type workload interface {
	// params describes the workload's fixed inputs for the record.
	params() map[string]any
	// drive runs the load for about d and returns what it observed.
	// Oracle checks that would disturb the timing are returned in
	// observed.checks and run after the measurement closes.
	drive(ctx context.Context, d time.Duration, tr *tracer) (*observed, error)
	close()
}

// builders maps workload names to their set-up functions. tr is nil on
// untraced runs, so no decorator is installed at all.
var builders = map[string]func(ctx context.Context, seed int64, tr *tracer) (workload, error){
	"fig7-batch": newFig7,
	"stream":     newStream,
	"fleet-http": newFleet,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload: fig7-batch, stream or fleet-http")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	opts.trace = trace == 1
	if _, ok := builders[opts.workload]; !ok || opts.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig7-batch|stream|fleet-http, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	rec, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run builds the workload, measures it and assembles the record.
func run(ctx context.Context, opts options) (*record, error) {
	var tr *tracer
	if opts.trace {
		tr = &tracer{}
	}
	build := builders[opts.workload]
	var (
		w      workload
		setups []float64
		spent  time.Duration
	)
	for i := 0; i < setupRepeats || (spent < setupBudget && i < setupMax); i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		began := time.Now()
		var err error
		if w, err = build(ctx, opts.seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opts.workload, err)
		}
		took := time.Since(began)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer w.close()

	// Warm up outside the measurement so lazy set-up and first-use
	// allocations do not land in the timed phase.
	warm := time.Duration(opts.seconds * float64(time.Second) / 10)
	if warm > time.Second {
		warm = time.Second
	}
	if _, err := w.drive(ctx, warm, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", opts.workload, err)
	}

	rec := &record{
		Benchmark: "perfbench",
		Env:       environment(),
		Workload:  opts.workload,
		Seed:      opts.seed,
		Seconds:   opts.seconds,
		Trace:     opts.trace,
		Params:    w.params(),
		Detail:    map[string]metric{},
		Checks:    map[string]int64{},
	}
	total := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		obs, rm, err := measure(ctx, w, total, nil)
		if err != nil {
			return nil, err
		}
		rec.Result = endToEnd(obs, rm, median(setups))
		finish(rec, obs)
		return rec, nil
	}

	// Traced run: the decorators time the middle half; the quarters
	// before and after it run untraced, so the throughput difference is
	// the tracing overhead on a workload whose speed holds steady. On one
	// that slows as it runs, the bracket does not cancel the slowdown.
	base, _, err := measure(ctx, w, total/4, nil)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	obs, rm, err := measure(ctx, w, total/2, tr)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	after, _, err := measure(ctx, w, total/4, nil)
	if err != nil {
		return nil, err
	}
	base.absorb(after)
	rec.Result = perLayer(obs, rm, tr, base)
	finish(rec, obs)
	return rec, nil
}

// measure drives the workload for d with a clean heap and the runtime
// metrics bracketing the timed phase, then runs the deferred checks.
func measure(ctx context.Context, w workload, d time.Duration, tr *tracer) (*observed, runtimeDelta, error) {
	runtime.GC()
	before := readRuntime()
	peak := startHeapSampler()
	obs, err := w.drive(ctx, d, tr)
	maxLive := peak()
	after := readRuntime()
	if err != nil {
		return nil, runtimeDelta{}, err
	}
	rm := after.since(before)
	rm.maxLiveBytes = maxLive
	obs.runChecks()
	return obs, rm, nil
}

// finish copies the observation's bookkeeping into the record.
func finish(rec *record, obs *observed) {
	for name, series := range obs.series {
		sum := summarize(series)
		rec.Detail[name+"_n"] = metric{float64(sum.n), "count"}
		rec.Detail[name+"_p50_ms"] = metric{sum.p50, "ms"}
		rec.Detail[name+"_p90_ms"] = metric{sum.p90, "ms"}
		rec.Detail[name+"_p99_ms"] = metric{sum.p99, "ms"}
		rec.Detail[name+"_mean_ms"] = metric{sum.mean, "ms"}
	}
	for name, v := range obs.detail {
		rec.Detail[name] = v
	}
	rec.Checks["passed"] = obs.checksRun - obs.checkFailures
	rec.Checks["failed"] = obs.checkFailures
	if rec.Result.Attempted > 0 {
		rec.Detail["error_rate"] = metric{float64(rec.Result.Failed) / float64(rec.Result.Attempted), "ratio"}
	}
}

// environment stamps the record with what the figures depend on.
func environment() map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["modified"] = s.Value == "true"
			}
		}
	}
	return env
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
