package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny is a benchmark invocation small enough for a unit test.
func tiny(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload: workload, seed: 0x5eed1e55, measure: 20 * time.Millisecond, trace: trace,
		n: 512, trialsPerBit: 2, setups: 2, workDir: t.TempDir(), repoDir: "..",
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricTables(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if d.unit == "" {
			t.Errorf("metric %s has no unit", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics the program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "direct_matrix,service_local,cluster_1worker"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", name)
		}
	}
}

func TestEveryWorkloadRuns(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runBenchmark(context.Background(), tiny(t, name, false), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; every one must be positive", name, m.Value)
				}
			}
			if !strings.Contains(out.String(), `"gomaxprocs"`) || !strings.Contains(out.String(), `"data_dir_fs"`) {
				t.Errorf("no provenance line in output:\n%s", out.String())
			}
			for _, d := range tails {
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("p90 %s not printed:\n%s", d.name, out.String())
				}
			}
		})
	}
}

func TestTracedRunEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			o := tiny(t, name, true)
			res, err := runBenchmark(context.Background(), o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed %d of %d ops", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer)
			for _, zero := range []string{"serve.wire_fallbacks", "serve.http_errors", "runner.failed_shards"} {
				if v := res.Metrics[zero].Value; v != 0 {
					t.Errorf("%s = %v, want 0", zero, v)
				}
			}
			if got, want := res.Metrics["core.trials"].Value, float64(trialsPerOpFor(t, o)); got != want {
				t.Errorf("core.trials = %v, want %v", got, want)
			}
			if _, err := os.Stat(o.workDir + "/trace-" + name + "-1592598101.json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestLadderSumsToTop pins the ladder's accounting: the layer times of
// all rungs plus trace.residual_s equal the top rung's wall time.
func TestLadderSumsToTop(t *testing.T) {
	o := tiny(t, "service_local", true)
	tr := newTracer()
	lad, err := runLadder(context.Background(), o, t.TempDir(), 42, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(lad.rungs) != len(ladderRungs) {
		t.Fatalf("%d rungs, want %d", len(lad.rungs), len(ladderRungs))
	}
	total := lad.metrics.values["trace.residual_s"]
	for _, r := range lad.rungs {
		total += r.LayerS
	}
	if top := lad.rungs[len(lad.rungs)-1].WallS; math.Abs(total-top) > 1e-9*math.Max(1, top) {
		t.Fatalf("layers + residual = %v s, top rung = %v s", total, top)
	}
	if len(tr.snapshot()) == 0 {
		t.Fatal("the ladder recorded no spans")
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	if got := quantile(xs, 0.5); math.Abs(got-49.5) > 1e-9 {
		t.Errorf("median of 0..99 = %v, want 49.5", got)
	}
	p90 := quantile(xs, 0.9)
	if p90 < 88 || p90 > 91 {
		t.Errorf("p90 of 0..99 = %v, want about 89.1", p90)
	}
	if xs[0] != 99 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("p90 of one sample = %v", got)
	}
	prev := math.Inf(-1)
	for q := 0.05; q < 1; q += 0.05 {
		v := quantile(xs, q)
		if v < prev || v < 0 || v > 99 {
			t.Fatalf("quantile(%.2f) = %v after %v: not monotone within the data", q, v, prev)
		}
		prev = v
	}
}

func TestSeedsDeriveFromRunSeed(t *testing.T) {
	take := func(seed uint64) []uint64 {
		s := &seeds{state: seed}
		return []uint64{s.next(), s.next(), s.next()}
	}
	a, b := take(7), take(7)
	for i := range a {
		if a[i] != b[i] || a[i] == 0 {
			t.Fatalf("seed 7 gave %v then %v", a, b)
		}
	}
	if c := take(8); c[0] == a[0] {
		t.Fatalf("seeds 7 and 8 share a first campaign seed %d", c[0])
	}
}

func TestOutputCheckCatchesMismatch(t *testing.T) {
	pairs, err := matrixPairs()
	if err != nil {
		t.Fatal(err)
	}
	w := newDirect(tiny(t, "direct_matrix", false), pairs, 3, nil)
	_, check, err := w.op(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(context.Background()); err != nil {
		t.Fatalf("clean op failed its check: %v", err)
	}
	b := w.bufs[4].Bytes()
	b[len(b)-2] ^= 1 // one flipped bit in one CSV
	if err := check(context.Background()); err == nil {
		t.Fatal("a corrupted CSV passed the output check")
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	out.Reset()
	// A seed never used while the benchmark was tuned.
	args := []string{"--workload", "direct_matrix", "--seed", "987654321", "--seconds", "0.02", "--trace", "0",
		"-work-dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result has no %q key", key)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func trialsPerOpFor(t *testing.T, o options) int {
	t.Helper()
	pairs, err := matrixPairs()
	if err != nil {
		t.Fatal(err)
	}
	return trialsPerOp(pairs, o.trialsPerBit)
}
