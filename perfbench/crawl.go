package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// crawl_job is the paper's Section 6.3 job: the distinct content-types of
// pages whose URL contains "ibm.com/jp", over a CIF crawl dataset whose
// metadata column is a dictionary compressed skip list, projecting
// url,metadata with lazy records (Table 1's CIF-DCSL row). Jobs run back
// to back through mapred.Run, one in flight. The job never touches
// predicate pushdown, vectorized evaluation, the caches, serving or
// ingest, so changes to those should leave it unmoved.
const (
	crawlRecords      = 40000
	crawlContentBytes = 2000
	crawlSplits       = 16
	crawlReducers     = 40
	crawlDataset      = "/bench/crawl"
	crawlWarmup       = 3 // untimed jobs before each measured phase
)

// crawlLayouts gives each colfile layout a crawl column. The job reads
// only url (plain) and metadata (DCSL); the replay pass applies the job's
// access pattern to the skip-list and block columns as well, so every
// layout's Value/SkipTo cost is measured on crawl data.
var crawlLayouts = map[string]colfile.Options{
	"metadata":    {Layout: colfile.DCSL},
	"annotations": {Layout: colfile.SkipList},
	"inlink":      {Layout: colfile.Block, Codec: "lzo"},
}

// crawlData is one loaded crawl dataset plus what the oracle folded from
// the generated records.
type crawlData struct {
	fs        *hdfs.FileSystem
	schema    *serde.Schema
	expected  map[string]bool // content-types of matching pages
	userBytes int64           // serialized size of the generated records
	written   int64           // bytes the load wrote through hdfs
	stored    int64           // dataset bytes after the load
	gen       time.Duration   // time spent generating records
}

// loadCrawl generates and loads the dataset. The returned duration is the
// set-up time: generation plus load, excluding the oracle's bookkeeping.
func loadCrawl(seed int64) (*crawlData, time.Duration, error) {
	start := time.Now()
	var paused time.Duration
	fs := hdfs.New(sim.DefaultCluster(), seed)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: seed, ContentBytes: crawlContentBytes})
	var stats sim.TaskStats
	w, err := core.NewWriter(fs, crawlDataset, gen.Schema(), core.LoadOptions{
		SplitRecords: crawlRecords / crawlSplits,
		PerColumn:    crawlLayouts,
	}, &stats)
	if err != nil {
		return nil, 0, err
	}
	d := &crawlData{fs: fs, schema: gen.Schema(), expected: map[string]bool{}}
	var buf []byte
	for i := int64(0); i < crawlRecords; i++ {
		g0 := time.Now()
		rec := gen.Record(i)
		g1 := time.Now()
		d.gen += g1.Sub(g0)
		if buf, err = serde.AppendRecord(buf[:0], rec); err != nil {
			return nil, 0, err
		}
		d.userBytes += int64(len(buf))
		if url := rec.GetAt(0).(string); strings.Contains(url, workload.MatchPattern) {
			ct, _ := rec.GetAt(4).(map[string]any)["content-type"].(string)
			d.expected[ct] = true
		}
		g2 := time.Now()
		paused += g2.Sub(g1)
		if err := w.Append(rec); err != nil {
			return nil, 0, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start) - paused
	d.written = stats.IO.BytesWritten
	d.stored = fs.TreeSize(crawlDataset)
	return d, setup, nil
}

// crawlJob builds the job; found collects the reducer's distinct keys.
func crawlJob(found *sync.Map) *mapred.Job {
	conf := mapred.JobConf{InputPaths: []string{crawlDataset}, NumReducers: crawlReducers}
	core.SetColumns(&conf, "url", "metadata")
	core.SetLazy(&conf, true)
	return &mapred.Job{
		Conf:   conf,
		Input:  &core.InputFormat{},
		Mapper: mapred.MapperFunc(crawlMap),
		Reducer: mapred.ReducerFunc(func(key any, _ []any, emit mapred.Emit) error {
			found.Store(key, true)
			return emit(key, nil)
		}),
		Output: mapred.NullOutput{},
	}
}

// crawlMap is the Figure 1 mapper: metadata is deserialized only for
// matching pages.
func crawlMap(_, value any, emit mapred.Emit) error {
	rec := value.(serde.Record)
	url, err := rec.Get("url")
	if err != nil {
		return err
	}
	if !strings.Contains(url.(string), workload.MatchPattern) {
		return nil
	}
	md, err := rec.Get("metadata")
	if err != nil {
		return err
	}
	ct, _ := md.(map[string]any)["content-type"].(string)
	return emit(ct, nil)
}

func runCrawl(cfg config) (*outcome, error) {
	o := newOutcome()
	var d *crawlData
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		d = nil // let the previous dataset go before building the next
		var took time.Duration
		var err error
		if d, took, err = loadCrawl(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.table["setup_s"] = o.e2e["setup_s"]
	o.layer["workload.gen_us_per_record"] = float64(d.gen.Microseconds()) / crawlRecords

	if !cfg.trace {
		m, err := crawlMeasure(d, cfg.seconds, nil, o)
		if err != nil {
			return nil, err
		}
		m.report(o)
		return o, nil
	}
	base, err := crawlMeasure(d, cfg.seconds/2, nil, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := crawlMeasure(d, cfg.seconds/2, tr, o)
	if err != nil {
		return nil, err
	}
	m.report(o)
	o.layer["trace.overhead_frac"] = m.p50/base.p50 - 1
	m.layers(o)
	if err := crawlReplay(d, tr, o, m.p50); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	o.layer["hdfs.written_mb"] = float64(d.written) / (1 << 20)
	o.spans = tr.finish()
	return o, nil
}

// crawlRun is one measured phase of crawl_job.
type crawlRun struct {
	jobs     []float64 // wall ms per mapred.Run
	total    sim.TaskStats
	failed   int64
	proc     procStats
	p50, p99 float64
	modeled  float64 // modeled seconds of one job
	d        *crawlData
}

func crawlMeasure(d *crawlData, seconds float64, tr *tracer, o *outcome) (*crawlRun, error) {
	m := &crawlRun{d: d}
	// Untimed jobs first, so that the heap and the collector's pacing have
	// settled when timing starts.
	for n := 0; n < crawlWarmup; n++ {
		var found sync.Map
		if _, err := mapred.Run(d.fs, crawlJob(&found)); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	model := sim.DefaultModelFor(sim.DefaultCluster())
	probe := startProbe()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		op := fmt.Sprintf("job-%d", n)
		var found sync.Map
		_, end := tr.begin(op, 0, "mapred.Run")
		t0 := time.Now()
		res, err := mapred.Run(d.fs, crawlJob(&found))
		took := since(t0)
		end()
		o.attempted++
		if err != nil {
			m.failed++
			o.failed++
			o.mismatch("job %d failed: %v", n, err)
			continue
		}
		m.jobs = append(m.jobs, took)
		m.total.Add(res.Total)
		m.modeled = model.TotalTime(res.Total)
		var got []string
		found.Range(func(k, _ any) bool {
			got = append(got, k.(string))
			return true
		})
		if !sameSet(got, d.expected) {
			o.mismatch("job %d: content-types %v, want %v", n, got, keys(d.expected))
		}
	}
	m.proc = probe.finish()
	if len(m.jobs) == 0 {
		return nil, fmt.Errorf("every job failed")
	}
	m.p50, m.p99 = median(m.jobs), quantile(m.jobs, 0.99)
	return m, nil
}

func (m *crawlRun) report(o *outcome) {
	// One job is in flight, so the loop completes jobs at the inverse of
	// the job time. It is taken at the median job, as latency is: jobs per
	// wall second also weigh the slowest jobs, which follow the host's CPU
	// steal, and spread more from run to run.
	jobsPerS := 1e3 / m.p50
	for _, t := range []map[string]float64{o.e2e, o.table} {
		t["peak_heap_mb"] = m.proc.peakMB
		t["write_amp"] = float64(m.d.written) / float64(m.d.userBytes)
		t["space_amp"] = float64(m.d.stored) / float64(m.d.userBytes)
	}
	o.e2e["latency_p50_ms"] = m.p50
	o.table["samples"] = float64(len(m.jobs))
	o.e2e["throughput_per_s"] = jobsPerS
	o.table["job_p50_ms"], o.table["job_p99_ms"], o.table["jobs_per_s"] = m.p50, m.p99, jobsPerS
	o.table["failed_frac"] = frac(float64(o.failed), float64(o.attempted))
	o.table["steal_frac"] = m.proc.stealFrac
}

// layers adds the counters of the measured jobs, per job.
func (m *crawlRun) layers(o *outcome) {
	n := float64(len(m.jobs))
	t := m.total
	o.layer["serde.records_materialized_per_op"] = float64(t.CPU.RecordsMaterialized) / n
	o.layer["serde.values_materialized_per_op"] = float64(t.CPU.ValuesMaterialized) / n
	o.layer["compress.decoded_mb_per_op"] = float64(t.CPU.ZlibBytes+t.CPU.LzoBytes) / (1 << 20) / n
	o.layer["hdfs.charged_mb_per_op"] = float64(t.IO.TotalChargedBytes()) / (1 << 20) / n
	o.layer["hdfs.scan_cache_hit_frac"] = frac(float64(t.BytesFromCache), float64(t.BytesFromCache+t.IO.TotalChargedBytes()))
	o.layer["mapred.run_ms_per_job"] = m.p50
	o.layer["mapred.shuffle_pairs_per_job"] = float64(t.OutputRecords) / n
	o.layer["mapred.tasks_failed"] = float64(m.failed)
	o.layer["sim.measured_over_modeled"] = m.p50 / 1e3 / m.modeled
	m.proc.layer(o.layer, int64(len(m.jobs)))
}

// crawlReplay drives the layers below mapred.Run directly, repeating the
// job's access pattern over every split: the hdfs read path, colfile
// Value/SkipTo per layout (url scanned in full, the other columns visited
// only at matching ordinals, as lazy records do), and the CIF reader's
// Open/Next loop with the mapper's field accesses.
func crawlReplay(d *crawlData, tr *tracer, o *outcome, jobMS float64) error {
	dirs, err := splitDirs(d.fs, crawlDataset)
	if err != nil {
		return err
	}
	var rd readStats
	lay := layoutTimes{}
	for _, dir := range dirs {
		op := "replay-" + dir[strings.LastIndex(dir, "/")+1:]
		root, end := tr.begin(op, 0, "replay.split")
		for _, col := range []string{"url", "metadata"} {
			if err := rd.readFile(d.fs, dir+"/"+col, tr, op, root); err != nil {
				return err
			}
		}
		// The job's access pattern: every url value, then the lazy
		// columns at the matching ordinals only.
		var matches []int64
		err := lay.scan(d.fs, d.schema, dir, "url", colfile.Plain, tr, op, root, nil, func(i int64, v any) {
			if strings.Contains(v.(string), workload.MatchPattern) {
				matches = append(matches, i)
			}
		})
		if err != nil {
			return err
		}
		for _, c := range []struct {
			col    string
			layout colfile.Layout
		}{{"metadata", colfile.DCSL}, {"annotations", colfile.SkipList}, {"inlink", colfile.Block}, {"srcUrl", colfile.Plain}} {
			if err := lay.scan(d.fs, d.schema, dir, c.col, c.layout, tr, op, root, matches, nil); err != nil {
				return err
			}
		}
		end()
	}
	rd.report(o)
	lay.report(o, true, false)

	// The CIF reader as mapred.Run drives it, with the mapper's accesses.
	var found sync.Map
	job := crawlJob(&found)
	in := &core.InputFormat{}
	splits, err := in.Splits(d.fs, &job.Conf)
	if err != nil {
		return err
	}
	var openT, nextT time.Duration
	var records int64
	for _, sp := range splits {
		var stats sim.TaskStats
		t0 := time.Now()
		rr, err := in.Open(d.fs, &job.Conf, sp, hdfs.AnyNode, &stats)
		t1 := time.Now()
		tr.record("replay-core", 0, "core.InputFormat.Open", t0, t1)
		openT += t1.Sub(t0)
		if err != nil {
			return err
		}
		for {
			k, v, ok, err := rr.Next()
			if err != nil {
				rr.Close()
				return err
			}
			if !ok {
				break
			}
			records++
			if err := crawlMap(k, v, func(any, any) error { return nil }); err != nil {
				rr.Close()
				return err
			}
		}
		t2 := time.Now()
		tr.record("replay-core", 0, "core.Reader.Next", t1, t2)
		nextT += t2.Sub(t1)
		rr.Close()
	}
	o.layer["core.open_us_per_split"] = float64(openT.Microseconds()) / float64(len(splits))
	o.layer["core.next_ns_per_record"] = float64(nextT.Nanoseconds()) / float64(records)
	// mapred.Run spreads the splits over its workers (one per CPU, at
	// most 8), so one job's share of the sequential replay is its time
	// over the worker count.
	workers := min(runtime.NumCPU(), 8, len(splits))
	o.layer["mapred.overhead_ms_per_job"] = jobMS - ms(openT+nextT)/float64(workers)
	return nil
}

// splitDirs lists a bulk-loaded dataset's split-directories.
func splitDirs(fs *hdfs.FileSystem, dataset string) ([]string, error) {
	infos, err := fs.List(dataset)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, fi := range infos {
		if fi.IsDir {
			dirs = append(dirs, fi.Path)
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s has no split-directories", dataset)
	}
	return dirs, nil
}

// readStats times the hdfs read path: Open, then ReadAt over a whole file.
type readStats struct {
	bytes int64
	read  time.Duration
}

func (s *readStats) readFile(fs *hdfs.FileSystem, path string, tr *tracer, op string, parent int64) error {
	t0 := time.Now()
	f, err := fs.Open(path, hdfs.AnyNode)
	t1 := time.Now()
	tr.record(op, parent, "hdfs.Open", t0, t1)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	for off := int64(0); off < f.Size(); {
		n, err := f.ReadAt(buf, off)
		off += int64(n)
		if err != nil && err != io.EOF {
			return err
		}
		if n == 0 {
			break
		}
	}
	t2 := time.Now()
	tr.record(op, parent, "hdfs.ReadAt", t1, t2)
	s.bytes += f.Size()
	s.read += t2.Sub(t1)
	return nil
}

func (s *readStats) report(o *outcome) {
	o.layer["hdfs.read_mb_per_s"] = frac(float64(s.bytes)/(1<<20), s.read.Seconds())
}

func sameSet(got []string, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, g := range got {
		if !want[g] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
