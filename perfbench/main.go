// Command perfbench is the repository's steady-state benchmark. One
// invocation runs one workload against the Region-Cache stack (and, for
// replay-table1, all four schemes), checks that every output is correct,
// and prints one JSON result object as the last line of standard output.
//
//	perfbench --workload serve-bc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 the same workload runs over a stack with
// timing decorators at server.Backend, cache.RegionStore and zns.Zoned, and
// the result carries the per-layer metrics instead. See NOTES.md for what
// each workload is for and how each metric is taken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration // the measured wall-clock time of the run
	trace    bool
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run: the correctness verdict, the op
// accounting, and every metric the run measured.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// problems lists every failed correctness check or validity gate; a
	// run with any problem exits non-zero.
	problems []string
}

func newResult() *result { return &result{Metrics: map[string]metricValue{}} }

// set records a metric.
func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// fail records a failed correctness check or validity gate.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *result) error{
	"serve-bc":      runServe,
	"serve-hot":     runServe,
	"replay-table1": runReplay,
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against, so the metric names printed and the names declared never drift.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-bc | serve-hot | replay-table1")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "measured wall-clock seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace == 1))
}

// specPath is the benchmark declaration, read from the repository root the
// benchmark runs in.
const specPath = "BENCHMARK.json"

func run(name string, seed uint64, seconds int, trace bool) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", specPath, err)
		return 2
	}
	fn, ok := workloads[name]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", name, seconds)
		return 2
	}
	cfg := runConfig{workload: name, seed: seed, window: time.Duration(seconds) * time.Second, trace: trace}
	res := newResult()
	if err := fn(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}

	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			res.fail("metric %s declared in %s was not measured", m.Name, specPath)
		case v.Unit != m.Unit:
			res.fail("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		default:
			out[m.Name] = v
		}
	}
	printSummary(res.Metrics)
	res.Metrics = out
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary writes every measured metric, declared or not, one per line,
// ahead of the result line.
func printSummary(ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
