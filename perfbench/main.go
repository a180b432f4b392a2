// Command perfbench is positres's end-to-end benchmark. One run drives
// one named workload — the paper's campaign matrix (five SDRBench
// fields × {posit32, ieee32}, N = 100 000, 313 trials per bit) on the
// direct in-memory path, a single-node service, or a coordinator with
// one worker — as a closed loop with one caller for a fixed measuring
// time, checks every output against the engine's byte-identity
// contract, and prints its metrics. With -trace 1 the run instead
// splits the workload's time across the modules a trial crosses:
// spans around every call into a layer, and a ladder that replays one
// op through the layers' public calls, one rung at a time.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload direct_matrix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// give provenance and each metric with its unit. BENCHMARK.json at the
// repository root lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload     string
	seed         uint64
	measure      time.Duration // summed wall time of the timed ops
	trace        bool
	n            int // elements per field
	trialsPerBit int
	setups       int // set-up repetitions; setup_s is their median
	workDir      string
	repoDir      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The paper's campaign size; tests shrink it through options.
	o := options{n: 100_000, trialsPerBit: 313, setups: 5}
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "run seed; every campaign seed derives from it")
	fs.Float64Var(&seconds, "seconds", 20, "measuring time in seconds (summed over timed ops)")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for data dirs and the trace file")
	fs.StringVar(&o.repoDir, "repo", ".", "repository root (for the git revision)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.measure = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if err := o.validate(trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := runBenchmark(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func (o *options) validate(trace int) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	switch {
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.measure <= 0:
		return fmt.Errorf("-seconds must be positive")
	}
	return nil
}

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json repeats them and a test keeps
// the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; reported with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"campaign_p50_s", "s"},
	{"csv_fetch_p50_ms", "ms"},
	{"agg_fetch_p50_ms", "ms"},
	{"cpu_s_per_mtrial", "s"},
	{"peak_rss_mib", "MiB"},
}

// tails are the p90s of the end-to-end timings. They are printed with
// -trace 0 but kept out of the result: on a shared machine a burst of
// CPU steal moves a p90 by 20–40 % from one run to the next, more than
// any bound a regression gate could use.
var tails = []metricDef{
	{"campaign_p90_s", "s"},
	{"csv_fetch_p90_ms", "ms"},
	{"agg_fetch_p90_ms", "ms"},
}

// perLayer splits the time by module; reported with -trace 1.
var perLayer = append([]metricDef{
	{"sdrbench.datasets", "count"},
	{"sdrbench.generate_ms", "ms"},
	{"sdrbench.generate_s", "s"},
	{"stats.summarize_ms", "ms"},
	{"stats.summarize_s", "s"},
	{"core.trials", "count"},
	{"core.kernel_s", "s"},
	{"core.kernel_ns_per_trial", "ns"},
	{"core.run_s", "s"},
	{"core.run_other_s", "s"},
	{"wire.frames", "count"},
	{"wire.frame_bytes", "bytes"},
	{"wire.encode_s", "s"},
	{"wire.decode_s", "s"},
	{"serve.shard_requests", "count"},
	{"serve.shard_handler_s", "s"},
	{"serve.shard_hop_s", "s"},
	{"serve.response_bytes", "bytes"},
	{"serve.wire_fallbacks", "count"},
	{"runner.journal_s", "s"},
	{"runner.journal_bytes", "bytes"},
	{"runner.journal_records", "count"},
	{"store.append_s", "s"},
	{"store.seal_s", "s"},
	{"store.bytes", "bytes"},
	{"store.render_csv_ms", "ms"},
	{"store.aggregate_ms", "ms"},
	{"runner.shards", "count"},
	{"runner.shard_p50_ms", "ms"},
	{"runner.shard_p90_ms", "ms"},
	{"runner.retries", "count"},
	{"runner.failed_shards", "count"},
	{"runner.worker_util", "frac"},
	{"runner.orchestration_s", "s"},
	{"serve.service_s", "s"},
	{"serve.http_errors", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.sys_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_trial", "bytes"},
	{"runtime.allocs_per_trial", "count"},
	{"trace.residual_s", "s"},
	{"trace.overhead_frac", "frac"},
}, ladderMetricDefs()...)

// metric is one reported value.
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

// metricSet fills a result's metrics from a definition table, so a
// run can only report names the table declares.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

// build returns the metrics map, failing when a declared metric was
// never set or an undeclared one was.
func (m *metricSet) build() (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out) != len(m.values) {
		for name := range m.values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// printResult writes each metric on its own line, then the result
// object as the last line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
