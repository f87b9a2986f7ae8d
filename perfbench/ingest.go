package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// ingest_live runs colingest's write path with its defaults: a crawl
// arrival stream with recrawls and skewed page sizes is appended without
// pacing by one writer, flushing every memtable and compacting every few
// flushes, and every few arrivals a live count/min/max query runs through
// serve.Enqueue on a ServeLive server, between two appends. Each round
// ingests the same pre-generated arrivals into a fresh store; rounds repeat
// until the measured time is spent. The dataset outgrows the scan cache and
// every commit invalidates part of it. A write-path gain that costs the
// reads, or a read-path gain that costs ingest, shows here.
const (
	ingestArrivals     = 4096
	ingestContentBytes = 4000 // mean page body before skew
	ingestRate         = 200  // arrivals per second of fetch time (colingest -rate)
	ingestRecrawl      = 0.25
	ingestSkew         = 0.5
	ingestMemtable     = 256
	ingestCompactEvery = 4
	ingestBucketMillis = 60_000
	ingestSplitRecords = 4096
	ingestQueryEvery   = 16 // arrivals between live queries
	ingestDataset      = "/bench/live"
)

// ingestInput is the pre-generated arrival stream and what the oracle
// needs from it.
type ingestInput struct {
	schema    *serde.Schema
	recs      []*serde.GenericRecord
	seenAt    []int64 // distinct URLs among the first i+1 arrivals
	userBytes int64   // serialized size of every arrival
	liveBytes int64   // serialized size of each URL's last version
	gen       time.Duration
}

func genArrivals(seed int64) (*ingestInput, time.Duration, error) {
	start := time.Now()
	var paused time.Duration
	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: seed, ContentBytes: ingestContentBytes},
		Seed:            seed,
		RatePerSec:      ingestRate,
		RecrawlFraction: ingestRecrawl,
		ContentSkew:     ingestSkew,
	})
	in := &ingestInput{
		schema: stream.Crawl().Schema(),
		recs:   make([]*serde.GenericRecord, ingestArrivals),
		seenAt: make([]int64, ingestArrivals),
	}
	last := map[int64]int64{}
	var buf []byte
	var err error
	for i := range in.recs {
		g0 := time.Now()
		a := stream.Next()
		g1 := time.Now()
		in.gen += g1.Sub(g0)
		in.recs[i] = a.Rec
		in.seenAt[i] = stream.Seen()
		if buf, err = serde.AppendRecord(buf[:0], a.Rec); err != nil {
			return nil, 0, err
		}
		in.userBytes += int64(len(buf))
		last[a.Index] = int64(len(buf))
		paused += time.Since(g1)
	}
	for _, n := range last {
		in.liveBytes += n
	}
	return in, time.Since(start) - paused, nil
}

func runIngest(cfg config) (*outcome, error) {
	o := newOutcome()
	var in *ingestInput
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		in = nil // let the previous arrivals go before generating the next
		var took time.Duration
		var err error
		if in, took, err = genArrivals(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.table["setup_s"] = o.e2e["setup_s"]
	o.layer["workload.gen_us_per_record"] = float64(in.gen.Microseconds()) / ingestArrivals

	if !cfg.trace {
		m, err := ingestMeasure(in, cfg.seconds, nil, o)
		if err != nil {
			return nil, err
		}
		m.report(o)
		return o, nil
	}
	base, err := ingestMeasure(in, cfg.seconds/2, nil, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := ingestMeasure(in, cfg.seconds/2, tr, o)
	if err != nil {
		return nil, err
	}
	m.report(o)
	o.layer["trace.overhead_frac"] = m.visP50/base.visP50 - 1
	m.layers(o)
	if err := ingestReplay(in, tr, o); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	o.spans = tr.finish()
	return o, nil
}

// ingestRun is one measured phase of ingest_live: one or more rounds.
type ingestRun struct {
	rounds         int
	recPerS        []float64 // per round
	writeAmp       []float64 // per round
	spaceAmp       []float64 // per round
	queries        []float64 // Enqueue to Wait, ms
	visible        []float64 // Append to the commit that made the record visible, ms
	appends        []float64 // every Append call, us
	flushes        []float64 // Append calls that ended in a flush commit, ms
	compacts       []float64 // Append calls that ended in a compaction commit, ms
	fresh          int64     // fresh partitions scanned by live queries
	cacheBytes     int64
	chargedBytes   int64
	stats          sim.TaskStats // summed over rounds
	measured       float64       // seconds spent appending, summed over rounds
	peakMB         float64       // live heap at the end of the appends, max over rounds
	modeled        float64       // modeled load seconds, summed over rounds
	proc           procStats
	queryP50, p99  float64
	visP50, visP99 float64
}

func ingestMeasure(in *ingestInput, seconds float64, tr *tracer, o *outcome) (*ingestRun, error) {
	m := &ingestRun{}
	probe := startProbe()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for m.rounds == 0 || time.Now().Before(deadline) {
		if err := ingestRound(in, m, tr, o); err != nil {
			return nil, err
		}
		m.rounds++
	}
	m.proc = probe.finish()
	if len(m.queries) == 0 {
		return nil, fmt.Errorf("no live query ran")
	}
	m.queryP50, m.p99 = median(m.queries), quantile(m.queries, 0.99)
	m.visP50, m.visP99 = median(m.visible), quantile(m.visible, 0.99)
	return m, nil
}

// ingestRound ingests every arrival into a fresh store with live queries
// between the appends, then flushes, compacts and collects garbage,
// checking every count against the stream.
func ingestRound(in *ingestInput, m *ingestRun, tr *tracer, o *outcome) error {
	fs := hdfs.New(sim.DefaultCluster(), int64(m.rounds))
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	srv := serve.New(fs, serve.Options{CacheBytes: serveCacheBytes})
	defer srv.Close()
	var stats sim.TaskStats
	ing, err := ingest.New(fs, ingest.Options{
		Dataset:         ingestDataset,
		Schema:          in.schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    ingestBucketMillis,
		MemtableRecords: ingestMemtable,
		CompactEvery:    ingestCompactEvery,
		Load:            core.LoadOptions{SplitRecords: ingestSplitRecords},
		Session:         srv.Session(),
		Stats:           &stats,
	})
	if err != nil {
		return err
	}
	srv.ServeLive(ing)

	// Visibility: a commit makes visible every record appended before it.
	// Commit callbacks run on the writer goroutine, inside Append.
	appendAt := make([]time.Time, len(in.recs))
	pending, visibleUpTo := 0, 0
	var flushed, compacted bool
	ing.OnCommit(func(_ int64, retired []string) {
		now := time.Now()
		for ; visibleUpTo < pending; visibleUpTo++ {
			m.visible = append(m.visible, ms(now.Sub(appendAt[visibleUpTo])))
		}
		if len(retired) > 0 {
			compacted = true
		} else {
			flushed = true
		}
	})

	agg, err := scan.ParseAggregate("count, min(fetchTime), max(fetchTime)")
	if err != nil {
		return err
	}
	// query runs one live query between appends and checks its count
	// exactly: every commit so far made visible all arrivals appended
	// before it, so the count is the number of distinct URLs among them.
	lastCount := int64(0)
	query := func(label string) time.Duration {
		op := fmt.Sprintf("read-%d-%s", m.rounds, label)
		t0 := time.Now()
		tk, err := srv.Enqueue("reader", core.ScanDataset(ingestDataset).Aggregate(agg).AggJob())
		t1 := time.Now()
		var res *liveAnswer
		if err == nil {
			res, err = waitAgg(tk)
		}
		t2 := time.Now()
		root := tr.record(op, 0, "live.query", t0, t2)
		tr.record(op, root, "serve.Enqueue", t0, t1)
		tr.record(op, root, "serve.Ticket.Wait", t1, t2)
		o.attempted++
		if err != nil {
			o.failed++
			o.mismatch("live query after %d visible arrivals: %v", visibleUpTo, err)
			return t2.Sub(t0)
		}
		m.queries = append(m.queries, ms(t2.Sub(t0)))
		m.fresh += res.fresh
		m.cacheBytes += res.report.BytesFromCache
		m.chargedBytes += res.report.ChargedBytes
		switch want := in.seenAt[visibleUpTo-1]; {
		case res.count != want:
			o.mismatch("live count %d after %d visible arrivals, want %d distinct URLs", res.count, visibleUpTo, want)
		case res.count < lastCount:
			o.mismatch("live count fell from %d to %d", lastCount, res.count)
		case res.count > 0 && res.minTime > res.maxTime:
			o.mismatch("min(fetchTime) %d > max(fetchTime) %d", res.minTime, res.maxTime)
		}
		lastCount = max(lastCount, res.count)
		return t2.Sub(t0)
	}

	// The reader queries between appends, every ingestQueryEvery arrivals
	// once the first commit has made something visible. Running it on the
	// writer's goroutine makes each query see the same store on every run
	// of a seed, so its latency does not depend on how the two would
	// interleave; its time is left out of the append rate.
	var reading time.Duration
	loopStart := time.Now()
	batchRoot, batchStart := int64(0), loopStart
	for i, rec := range in.recs {
		if i%ingestMemtable == 0 {
			batchRoot, batchStart = tr.newID(), time.Now()
		}
		flushed, compacted = false, false
		t0 := time.Now()
		appendAt[i] = t0
		pending = i + 1
		err := ing.Append(rec)
		t1 := time.Now()
		o.attempted++
		if err != nil {
			o.failed++
			o.mismatch("append %d: %v", i, err)
		}
		d := t1.Sub(t0)
		m.appends = append(m.appends, float64(d.Nanoseconds())/1e3)
		name := "ingest.Append"
		switch {
		case compacted:
			m.compacts = append(m.compacts, ms(d))
			name = "ingest.Append+compact"
		case flushed:
			m.flushes = append(m.flushes, ms(d))
			name = "ingest.Append+flush"
		}
		if tr != nil {
			op := fmt.Sprintf("batch-%d-%d", m.rounds, i/ingestMemtable)
			tr.record(op, batchRoot, name, t0, t1)
			if (i+1)%ingestMemtable == 0 || i == len(in.recs)-1 {
				tr.recordAs(batchRoot, op, 0, "ingest.batch", batchStart, t1)
			}
		}
		if (i+1)%ingestQueryEvery == 0 && visibleUpTo > 0 {
			reading += query(strconv.Itoa(i + 1))
		}
	}
	loop := time.Since(loopStart) - reading

	// The store is at its largest here: every generation written so far
	// stays on hdfs until GC. The live heap after a collection at this
	// point is the round's peak; sampling it as the collector happens to
	// run would read more or less floating garbage from run to run.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.peakMB = max(m.peakMB, float64(mem.HeapAlloc)/(1<<20))

	for _, step := range []func() error{ing.Flush, ing.Compact} {
		if err := step(); err != nil {
			return err
		}
	}
	query("final")
	if err := ing.GC(); err != nil {
		return err
	}
	query("gc")

	model := sim.DefaultModelFor(sim.DefaultCluster())
	m.recPerS = append(m.recPerS, float64(len(in.recs))/loop.Seconds())
	m.writeAmp = append(m.writeAmp, float64(stats.IO.BytesWritten)/float64(in.userBytes))
	m.spaceAmp = append(m.spaceAmp, float64(fs.TreeSize(ingestDataset))/float64(in.liveBytes))
	m.measured += loop.Seconds()
	m.modeled += model.LoadSeconds(stats)
	m.stats.Add(stats)
	return nil
}

// liveAnswer is what the benchmark checks of a live query's answer.
type liveAnswer struct {
	count, minTime, maxTime int64
	fresh                   int64
	report                  serve.Report
}

func waitAgg(tk *serve.Ticket) (*liveAnswer, error) {
	res, err := tk.Wait()
	if err != nil {
		return nil, err
	}
	rows := res.Agg.Rows()
	if len(rows) != 1 || len(rows[0].Values) != 3 {
		return nil, fmt.Errorf("aggregate returned %d rows", len(rows))
	}
	out := &liveAnswer{fresh: res.Total.FreshPartitionsScanned, report: tk.Report()}
	v := rows[0].Values
	var ok bool
	if out.count, ok = v[0].(int64); !ok {
		return nil, fmt.Errorf("count is %T", v[0])
	}
	if out.count > 0 {
		out.minTime, _ = v[1].(int64)
		out.maxTime, _ = v[2].(int64)
	}
	return out, nil
}

func (m *ingestRun) report(o *outcome) {
	for _, t := range []map[string]float64{o.e2e, o.table} {
		t["peak_heap_mb"] = m.peakMB
		t["write_amp"] = median(m.writeAmp)
		t["space_amp"] = median(m.spaceAmp)
	}
	o.e2e["latency_p50_ms"] = m.visP50
	o.table["samples"] = float64(len(m.queries))
	o.e2e["throughput_per_s"] = median(m.recPerS)
	o.table["query_p50_ms"], o.table["query_p99_ms"] = m.queryP50, m.p99
	o.table["ingest_rec_per_s"] = median(m.recPerS)
	o.table["visible_p50_ms"], o.table["visible_p99_ms"] = m.visP50, m.visP99
	o.table["failed_frac"] = frac(float64(o.failed), float64(o.attempted))
	o.table["steal_frac"] = m.proc.stealFrac
}

func (m *ingestRun) layers(o *outcome) {
	r := float64(m.rounds)
	o.layer["ingest.append_us_p50"] = median(m.appends)
	o.layer["ingest.append_us_p99"] = quantile(m.appends, 0.99)
	o.layer["ingest.flush_ms"] = mean(m.flushes)
	o.layer["ingest.compact_ms"] = mean(m.compacts)
	o.layer["ingest.compaction_mb"] = float64(m.stats.CompactionBytes) / (1 << 20) / r
	o.layer["ingest.flushed_files"] = float64(m.stats.FlushedFiles) / r
	o.layer["ingest.upserts_resolved"] = float64(m.stats.UpsertsResolved) / r
	o.layer["ingest.fresh_partitions_per_query"] = float64(m.fresh) / float64(len(m.queries))
	o.layer["ingest.visible_p50_ms"] = m.visP50
	o.layer["ingest.visible_p99_ms"] = m.visP99
	o.layer["hdfs.written_mb"] = float64(m.stats.IO.BytesWritten) / (1 << 20) / r
	o.layer["hdfs.scan_cache_hit_frac"] = frac(float64(m.cacheBytes), float64(m.cacheBytes+m.chargedBytes))
	o.layer["hdfs.charged_mb_per_op"] = float64(m.chargedBytes) / (1 << 20) / float64(len(m.queries))
	o.layer["sim.measured_over_modeled"] = m.measured / m.modeled
	m.proc.layer(o.layer, int64(m.rounds*ingestArrivals))
}

// ingestReplay times the colfile writers on their own: every arrival
// appended column by column to fresh plain column files, as a flush writes
// them.
func ingestReplay(in *ingestInput, tr *tracer, o *outcome) error {
	fs := hdfs.New(sim.DefaultCluster(), 1)
	var cpu sim.CPUStats
	var files []*hdfs.FileWriter
	var cols []colfile.Writer
	for _, f := range in.schema.Fields {
		fw, err := fs.Create("/replay/"+f.Name, hdfs.AnyNode)
		if err != nil {
			return err
		}
		cw, err := colfile.NewWriter(fw, f.Type, colfile.Options{}, &cpu)
		if err != nil {
			return err
		}
		files = append(files, fw)
		cols = append(cols, cw)
	}
	t0 := time.Now()
	for _, rec := range in.recs {
		for i, cw := range cols {
			if err := cw.Append(rec.GetAt(i)); err != nil {
				return err
			}
		}
	}
	for i, cw := range cols {
		if err := cw.Close(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	t1 := time.Now()
	tr.record("replay-write", 0, "colfile.Writer.Append", t0, t1)
	o.layer["colfile.append_us_per_record"] = float64(t1.Sub(t0).Nanoseconds()) / 1e3 / float64(len(in.recs))
	return nil
}
