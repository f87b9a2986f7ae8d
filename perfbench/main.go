// Perfbench is the repository's wall-clock benchmark. Where colbench prices
// work with sim.CostModel, perfbench times it: each workload generates its
// inputs from a seed, sets up a dataset, drives the system through its
// public entry points for a fixed number of seconds, checks every answer
// against an oracle computed from the generated records, and prints its
// metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload crawl_job|serve_mix|ingest_live|all --seed N
//	          --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures an untraced and a traced half of the run, reports per-layer
// metrics (including the tracing overhead) and writes the span file to
// DIR. --workload all runs every workload untraced and prints one row per
// workload. A wrong answer makes the command exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// outcome is what a workload measured. e2e holds the end-to-end metrics
// under the names of the benchmark definition; table holds the same
// measurements under the workload-specific names the summary table prints.
type outcome struct {
	attempted  int64
	failed     int64
	mismatches []string
	e2e        map[string]float64
	table      map[string]float64
	layer      map[string]float64
	spans      []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, table: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records a wrong answer; the run then exits non-zero.
func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"crawl_job":   runCrawl,
	"serve_mix":   runServe,
	"ingest_live": runIngest,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"crawl_job", "serve_mix", "ingest_live"}

// setupRepeats is how many times each run sets its dataset up; setup_s is
// the median.
const setupRepeats = 3

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "crawl_job, serve_mix, ingest_live, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	env := environment(cfg)
	fmt.Printf("perfbench %s\n", env)

	if cfg.workload == "all" {
		os.Exit(runAll(cfg, def))
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	o, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			fail(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(o.spans), path)
	}
	printTable([]string{cfg.workload}, []*outcome{o})
	res, err := def.result(o, cfg.trace)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", m)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and prints one table row each.
func runAll(cfg config, def *definition) int {
	var outs []*outcome
	status := 0
	for _, name := range workloadOrder {
		c := cfg
		c.workload, c.trace = name, false
		o, err := workloads[name](c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, m := range o.mismatches {
			fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answer: %s\n", name, m)
		}
		if _, err := def.result(o, false); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if len(o.mismatches) > 0 || o.failed > 0 {
			status = 1
		}
		outs = append(outs, o)
	}
	printTable(workloadOrder, outs)
	return status
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// tableColumns are the end-to-end metrics by their workload-specific
// names, with units; a workload that has no such metric prints "-".
var tableColumns = [][2]string{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"}, {"job_p99_ms", "ms"}, {"jobs_per_s", "1/s"},
	{"query_p50_ms", "ms"}, {"query_p95_ms", "ms"}, {"query_p99_ms", "ms"}, {"goodput_qps", "1/s"},
	{"ingest_rec_per_s", "1/s"}, {"visible_p50_ms", "ms"}, {"visible_p99_ms", "ms"},
	{"write_amp", "ratio"}, {"space_amp", "ratio"},
	{"failed_frac", "ratio"}, {"peak_heap_mb", "MB"}, {"samples", "count"},
	{"steal_frac", "ratio"},
}

func printTable(names []string, outs []*outcome) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, c := range tableColumns {
		fmt.Fprintf(tw, "%s [%s]\t", c[0], c[1])
	}
	fmt.Fprintln(tw)
	for i, o := range outs {
		fmt.Fprintf(tw, "%s\t", names[i])
		for _, c := range tableColumns {
			if v, ok := o.table[c[0]]; ok {
				fmt.Fprintf(tw, "%.4g\t", v)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// definition is the part of BENCHMARK.json the program checks its output
// against: the metric names and units of both runs.
type definition struct {
	EndToEnd []defMetric `json:"end_to_end"`
	PerLayer []defMetric `json:"per_layer"`
}

type defMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders an outcome as the final JSON line. Every end-to-end
// metric must have been measured. A per-layer metric of a layer the
// workload never reaches is reported as 0; a per-layer metric the
// definition does not list is a programming error.
func (d *definition) result(o *outcome, trace bool) (*result, error) {
	res := &result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	defs, values := d.EndToEnd, o.e2e
	if trace {
		defs, values = d.PerLayer, o.layer
	}
	known := map[string]bool{}
	for _, m := range defs {
		known[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

// since is time.Since in milliseconds.
func since(t time.Time) float64 { return ms(time.Since(t)) }
