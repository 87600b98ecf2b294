// Command perfbench is the repository's benchmark. It drives the solving
// service in process through its own HTTP handlers — serve.Server, or for
// the sharded workload the shard coordinator over in-process shards — with
// one client in a closed loop, checks every answer against computations made
// apart from the program, and prints one metric per line followed by a JSON
// summary as the last line of standard output.
//
//	perfbench --workload paper|large|ingest|sharded --seed N --seconds S --trace 0|1
//
// With --trace 1 it runs for half the time, then replays the same rounds on
// a fresh set-up with per-layer tracing and prints the per-layer metrics
// instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

var nan = math.NaN()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports (BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_request", "ms"},
	{"heap_mb", "MB"},
}

// perLayerDefs are the per-layer metrics of the traced run (BENCHMARK.json).
// Counts are per request of the kind that does the work.
var perLayerDefs = []metricDef{
	{"serve.self_ms", "ms"},
	{"serve.memo_hits", "count"},
	{"serve.prep_builds", "count"},
	{"serve.allocs_per_request", "count"},
	{"serve.alloc_kb_per_request", "KB"},
	{"core.rescans", "count"},
	{"core.candidates", "count"},
	{"core.mfi_candidates", "count"},
	{"itemsets.dfs_nodes", "count"},
	{"ilp.nodes", "count"},
	{"lp.pivots", "count"},
	{"estimate.build_ms", "ms"},
	{"estimate.score_us", "us"},
	{"estimate.lp_fallbacks", "count"},
	{"estimate.width", "ratio"},
	{"index.build_ms", "ms"},
	{"index.mem_mb", "MB"},
	{"index.satisfied_us", "us"},
	{"index.delta_ms", "ms"},
	{"index.segments", "count"},
	{"index.compactions", "count"},
	{"dataset.parse_ms", "ms"},
	{"dataset.extend_ms", "ms"},
	{"shard.calls_per_request", "count"},
	{"shard.candidates_per_call", "count"},
	{"shard.hedges", "count"},
	{"shard.retries", "count"},
	{"runtime.gc_cycles", "count"},
}

// The detail metrics are printed for the workloads that exercise them but
// are not in the summary: a metric there must be measured on every workload
// and steady within its bound on this host (README.md).
var detailEndToEnd = []metricDef{
	{"setup_wall_s", "s"},
	{"greedy_p50_ms", "ms"},
	{"requests_per_s", "1/s"},
	{"greedy_p90_ms", "ms"},
	{"brute_ms_per_tuple", "ms"},
	{"mfi_ms_per_tuple", "ms"},
	{"ilp_ms_per_tuple", "ms"},
	{"estimate_p50_ms", "ms"},
	{"append_p50_ms", "ms"},
}

var detailPerLayer = []metricDef{
	{"core.select_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"itemsets.mine_ms", "ms"},
	{"ilp.branch_bound_ms", "ms"},
	{"shard.score_ms", "ms"},
	{"shard.self_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, large, ingest or sharded")
	seed := fs.Int64("seed", 1, "seed every input is made from")
	seconds := fs.Float64("seconds", 10, "timed seconds of the closed loop")
	trace := fs.Int("trace", 0, "1 replays the run traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper, large, ingest, sharded), --seconds > 0, --trace 0|1\n")
		return 2
	}
	nAppends := wl.nAppends
	if nAppends == 0 {
		nAppends = deltaSteps * batchSize
	}
	in, err := makeInputs(*seed, wl.logSize, nAppends)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	// A traced run splits its time between the untraced run and the traced
	// replay of the same rounds, so it lasts about as long as a plain run.
	plainSeconds := *seconds
	if *trace == 1 {
		plainSeconds /= 2
	}
	plain := &session{wl: wl, in: in, seed: *seed, width: len(in.attrs)}
	if err := plain.loop(plainSeconds, 0); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	errs := plain.verify()
	e2e := plain.endToEnd()
	fmt.Fprintf(stdout, "# %s seed %d: %d rounds, %d operations, %d failed\n",
		wl.name, *seed, plain.rounds, len(plain.records), plain.failed())
	printMetrics(stdout, endToEnd, e2e)
	printMetrics(stdout, detailEndToEnd, e2e)
	res := result{Attempted: len(plain.records), Failed: plain.failed()}
	res.Metrics = pick(endToEnd, e2e)

	if *trace == 1 {
		traced := &session{wl: wl, in: in, seed: *seed, width: len(in.attrs), tr: newTracer()}
		if err := traced.loop(*seconds, plain.rounds); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", wl.name, err)
			return 1
		}
		errs = append(errs, traced.verify()...)
		layers, err := traced.perLayer()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", wl.name, err)
			return 1
		}
		te2e := traced.endToEnd()
		fmt.Fprintf(stdout, "# traced replay: %d operations, %d failed\n", len(traced.records), traced.failed())
		printMetrics(stdout, perLayerDefs, layers)
		printMetrics(stdout, detailPerLayer, layers)
		fmt.Fprintf(stdout, "# tracing overhead: greedy_p50_ms %+.4f ms, requests_per_s %+.2f%%\n",
			te2e["greedy_p50_ms"]-e2e["greedy_p50_ms"],
			100*(te2e["requests_per_s"]/e2e["requests_per_s"]-1))
		res.Attempted += len(traced.records)
		res.Failed += traced.failed()
		res.Metrics = pick(perLayerDefs, layers)
	}

	res.Correct = len(errs) == 0
	for i, err := range errs {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more check failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEnd computes the session's end-to-end metrics and the detail metrics
// of the kinds it ran.
func (s *session) endToEnd() map[string]float64 {
	tput, cpu := s.throughput()
	out := map[string]float64{
		"setup_s":            quantile(durations(s.setupCPU), 0.5),
		"setup_wall_s":       quantile(durations(s.setups), 0.5),
		"requests_per_s":     tput,
		"greedy_p50_ms":      quantile(s.latencies("greedy"), 0.5),
		"greedy_p90_ms":      quantile(s.latencies("greedy"), 0.9),
		"cpu_ms_per_request": cpu,
		"heap_mb":            s.heapMB,
		"brute_ms_per_tuple": mean(s.latencies("brute")),
		"mfi_ms_per_tuple":   mean(s.latencies("mfi-exact")),
		"ilp_ms_per_tuple":   mean(s.latencies("ilp")),
		"estimate_p50_ms":    quantile(s.latencies("estimate"), 0.5),
		"append_p50_ms":      quantile(s.latencies("append"), 0.5),
	}
	return out
}

// printMetrics prints one "name value unit" line per metric the session
// measured (NaN marks a kind of work the workload does not do).
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) {
			continue
		}
		fmt.Fprintf(w, "%-28s %14.6f %s\n", d.name, v, d.unit)
	}
}

// pick builds the summary's metrics; a layer the workload does not exercise
// reads 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
