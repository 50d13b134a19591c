// Command perfbench is the repository benchmark: it composes the CryptoNN
// stack in one process the way cmd/cryptonn-authority and
// cmd/cryptonn-server do (authority behind its own loopback listener, the
// training service wired to it through a key-service pool), drives one
// workload, checks every output against a plaintext oracle, and prints
// one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-dense --seed 1 --seconds 30 --trace 0
//
// Workloads are train-mnist, serve-dense and serve-topk (README.md in
// this directory says why each exists and which layer metrics should
// move which end-to-end metric). --trace 0 prints the end-to-end
// metrics; --trace 1 runs the workload twice, untraced and then with
// timing decorators around each layer's entry points, and prints the
// per-layer metrics plus the tracing overhead.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the machine and the inputs. The exit code is non-zero when an
// output disagrees with its oracle, an operation fails, or a run is
// invalid (the load generator fell behind its schedule).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int
	// mismatches counts outputs that disagreed with their oracle (also
	// included in failed).
	mismatches int
	// invalid, when non-empty, says why the run's numbers cannot be
	// reported (for example, the load generator fell behind).
	invalid string
	// endToEnd and perLayer hold the metrics by name.
	endToEnd, perLayer map[string]metric
	// info records workload geometry, rates, limits and percentile
	// choices for the record line.
	info map[string]any
	// headline is the number the traced and untraced runs are compared
	// on for the tracing overhead: the unloaded request latency when
	// serving, the end-to-end training time when training.
	headline float64
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		info:     map[string]any{},
	}
}

func (o *outcome) e2e(name, unit string, v float64)   { o.endToEnd[name] = metric{v, unit} }
func (o *outcome) layer(name, unit string, v float64) { o.perLayer[name] = metric{v, unit} }

// workloads maps each workload name to the function that runs it once
// for about the given measurement time: full, with every
// end-to-end measurement (repeated set-up, the max_rps search); or not,
// as one of the two like-for-like runs of --trace 1, traced when tr is
// non-nil.
var workloads = map[string]func(seed int64, seconds float64, full bool, tr *tracer) (*outcome, error){
	"train-mnist": runTrain,
	"serve-dense": runServeDense,
	"serve-topk":  runServeTopK,
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: train-mnist, serve-dense or serve-topk")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 30, "measurement time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	plain, err := drive(*seed, *seconds, *trace == 0, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res := result{
		Correct:   plain.mismatches == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   plain.endToEnd,
	}
	info := plain.info
	invalid := plain.invalid
	if *trace == 1 {
		tr := newTracer()
		traced, err := drive(*seed, *seconds, false, tr)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", *workload, err)
		}
		res.Correct = res.Correct && traced.mismatches == 0
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = traced.perLayer
		res.Metrics["trace.overhead_ratio"] = metric{overheadRatio(plain, traced), "ratio"}
		if invalid == "" {
			invalid = traced.invalid
		}
		info["traced"] = traced.info
	}
	if err := printRecord(*workload, *seed, *seconds, *trace, info); err != nil {
		return err
	}
	switch {
	case !res.Correct:
		return fmt.Errorf("%s: outputs disagree with the plaintext oracle", *workload)
	case res.Failed > 0:
		return fmt.Errorf("%s: %d of %d operations failed", *workload, res.Failed, res.Attempted)
	case invalid != "":
		return fmt.Errorf("%s: run invalid: %s", *workload, invalid)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// overheadRatio compares the traced run's headline number with the
// untraced run's: the relative slowdown the timing decorators cost.
func overheadRatio(plain, traced *outcome) float64 {
	if plain.headline <= 0 {
		return 0
	}
	return traced.headline/plain.headline - 1
}

// printRecord prints the line that records the machine and the inputs
// of this result.
func printRecord(workload string, seed int64, seconds float64, trace int, info map[string]any) error {
	rec := map[string]any{
		"record":        "perfbench",
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"date_utc":      time.Now().UTC().Format(time.RFC3339),
		"workload_info": info,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel reads the processor model name; "unknown" when the platform
// does not expose it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, as stamped
// by the go tool; a build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	return rev + dirty
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

var errMismatch = errors.New("output disagrees with the plaintext oracle")
