// Colbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	colbench [-experiment all|<name>] [-scale F] [-seed N] [-list]
//
// The -experiment help and -list enumerate the experiment table; names are
// never repeated here, so adding an experiment cannot leave the usage text
// behind.
//
// Scale multiplies the laptop-scale record counts each experiment measures
// before extrapolating to the paper's dataset sizes; 1.0 takes a few
// seconds per experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"colmr/internal/bench"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Config) error
}{
	{"figure7", "Section 6.2 scan microbenchmark: TXT vs SEQ vs CIF vs RCFile",
		func(c bench.Config) error { _, err := bench.Figure7(c); return err }},
	{"table1", "Section 6.3 crawl job over 11 storage-format variants",
		func(c bench.Config) error { _, err := bench.Table1(c); return err }},
	{"colocation", "Section 6.4 ColumnPlacementPolicy vs default placement",
		func(c bench.Config) error { _, err := bench.Colocation(c); return err }},
	{"figure8", "Appendix B.1 deserialization read bandwidth",
		func(c bench.Config) error { _, err := bench.Figure8(c); return err }},
	{"figure9", "Appendix B.2 RCFile row-group size tuning",
		func(c bench.Config) error { _, err := bench.Figure9(c); return err }},
	{"table2", "Appendix B.3 load times",
		func(c bench.Config) error { _, err := bench.Table2(c); return err }},
	{"figure10", "Appendix B.4 selectivity sweep (lazy materialization)",
		func(c bench.Config) error { _, err := bench.Figure10(c); return err }},
	{"figure11", "Appendix B.5 record-width sweep",
		func(c bench.Config) error { _, err := bench.Figure11(c); return err }},
	{"selectivity", "selectivity sweep: predicate pushdown + zone maps vs scan-then-filter",
		func(c bench.Config) error { _, err := bench.Selectivity(c); return err }},
	{"elision", "split elision sweep: scheduler-tier pruning vs group-tier-only baseline",
		func(c bench.Config) error { _, err := bench.Elision(c); return err }},
	{"bloom", "bloom pruning sweep: string-equality filters vs zone-maps-only on unsorted data",
		func(c bench.Config) error { _, err := bench.Bloom(c); return err }},
	{"sharedscan", "shared scan sweep: co-scheduled batches vs independent runs (1/2/4/8 jobs)",
		func(c bench.Config) error { _, err := bench.SharedScan(c); return err }},
	{"cachereuse", "cache reuse sweep: one session resubmitting a job vs cold runs",
		func(c bench.Config) error { _, err := bench.CacheReuse(c); return err }},
	{"vectorized", "vectorized execution sweep: batch eval cold and with a warm vector cache (writes BENCH_vectorized.json)",
		func(c bench.Config) error {
			res, err := bench.Vectorized(c)
			if err != nil {
				return err
			}
			return writeJSON("BENCH_vectorized.json", res)
		}},
	{"agg", "aggregation pushdown sweep: in-scan folding vs materialize-then-fold, plus dictionary-id evaluation (writes BENCH_agg.json)",
		func(c bench.Config) error {
			res, err := bench.Aggregation(c)
			if err != nil {
				return err
			}
			return writeJSON("BENCH_agg.json", res)
		}},
	{"planning", "cost-based planning sweep: histogram estimates vs truth, chosen vs forced materialization across skew (writes BENCH_planning.json)",
		func(c bench.Config) error {
			res, err := bench.Planning(c)
			if err != nil {
				return err
			}
			return writeJSON("BENCH_planning.json", res)
		}},
	{"serve", "scan server sweep: sharing window vs continuous arrivals (rate x overlap x window)",
		func(c bench.Config) error { _, err := bench.Serve(c); return err }},
	{"ingest", "streaming ingest sweep: arrival rate x compaction cadence x recrawl vs bulk load (writes BENCH_ingest.json)",
		func(c bench.Config) error {
			res, err := bench.Ingest(c)
			if err != nil {
				return err
			}
			return writeJSON("BENCH_ingest.json", res)
		}},
	{"skiplevels", "ablation: skip-list level configuration",
		func(c bench.Config) error { _, err := bench.AblationSkipLevels(c); return err }},
	{"parallelism", "ablation: split granularity vs cluster parallelism (§4.3)",
		func(c bench.Config) error { _, err := bench.AblationParallelism(c); return err }},
	{"blocksize", "ablation: compression block size",
		func(c bench.Config) error { _, err := bench.AblationBlockSize(c); return err }},
	{"recovery", "ablation: datanode failure and re-replication (§4.3 future work)",
		func(c bench.Config) error { _, err := bench.AblationRecovery(c); return err }},
}

// writeJSON records an experiment's result struct as a machine-readable
// artifact in the working directory, the perf-trajectory baseline later
// changes are compared against.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// experimentNames renders the -experiment flag's value set from the
// experiments table, so the usage string cannot drift from what runs.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	names = append(names, "all")
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (one of: "+experimentNames()+")")
		scale      = flag.Float64("scale", 1.0, "record-count multiplier for the measured sample")
		seed       = flag.Int64("seed", 2011, "generator and placement seed")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed, Out: os.Stdout}
	want := strings.ToLower(*experiment)
	ran := 0
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "colbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs wall time]\n\n", e.name, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "colbench: unknown experiment %q (use -list)\n", *experiment)
		os.Exit(2)
	}
}
