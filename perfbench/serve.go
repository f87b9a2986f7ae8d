package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// serve_mix drives colserve's HTTP handler over loopback with colserve's
// default options. The dataset fits the scan cache. Queries come from a
// seeded mix across four tenants — selective int ranges on a clustered
// column, Bloom-prunable string equality, prefixes, grouped aggregates and
// a broad projection with a limit — drawn from few enough distinct
// predicates that sharing windows merge them. Arrivals are an open-loop
// Poisson stream at a fixed rate; latency counts from each request's due
// time. The mix exercises admission and sharing, planning, every pruning
// tier, vectorized evaluation and decode, the scan cache and JSON; it
// barely materializes records and never writes.
const (
	serveRecords    = 100000
	serveSplits     = 16
	serveWindow     = 0.050 // colserve -window 50 (ms)
	serveMaxBatches = 2     // colserve -maxbatches
	serveCacheBytes = 64 << 20
	serveRate       = 7.0    // queries per second of schedule
	serveLimitMS    = 1000.0 // latency limit a query must meet to count as goodput
	serveDataset    = "/bench/serve"
	serveStatsEvery = colfile.DefaultStatsEvery
)

// serveLayouts spreads the layouts over the columns the queries read, so
// that plain, skip-list, zlib and lzo blocks and DCSL are each decoded.
var serveLayouts = map[string]colfile.Options{
	"str1": {Layout: colfile.SkipList},
	"str3": {Layout: colfile.Block, Codec: "lzo"},
	"str5": {Layout: colfile.DCSL},
	"int1": {Layout: colfile.SkipList},
	"int2": {Layout: colfile.Block, Codec: "zlib"},
	"int3": {Layout: colfile.Block, Codec: "lzo"},
}

var serveTenants = []string{"web", "batch", "dash", "adhoc"}

// serveTemplates are the query templates and their shares of the mix.
var serveTemplates = []struct {
	kind    string
	percent int
}{{"range", 35}, {"eq", 25}, {"prefix", 15}, {"agg", 15}, {"broad", 10}}

// serveGen is the synthetic generator with two columns reshaped: int1
// grows with the record index, so range predicates on it prune splits and
// groups, and str5 is a 12-value category to group by.
type serveGen struct {
	*workload.Synthetic
	int0, int1, int3, str5 int
}

func newServeGen(seed int64) serveGen {
	s := workload.NewSynthetic(seed)
	sc := s.Schema()
	return serveGen{Synthetic: s, int0: sc.FieldIndex("int0"), int1: sc.FieldIndex("int1"), int3: sc.FieldIndex("int3"), str5: sc.FieldIndex("str5")}
}

func (g serveGen) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	rec.SetAt(g.int1, int32(1+i*10000/serveRecords))
	rec.SetAt(g.str5, fmt.Sprintf("cat-%02d", rec.GetAt(g.int3).(int32)%12))
	return rec
}

// serveQuery is one distinct query of the mix with its oracle answer.
type serveQuery struct {
	kind    string // the template: range, eq, prefix, agg or broad
	req     serve.QueryRequest
	pred    scan.Predicate
	agg     *scan.Aggregate // nil for record queries
	matched int64
	groups  map[string]*aggCell // agg queries: count and min(int0) per str5
}

type aggCell struct {
	count int64
	min   int32
}

// expectedAgg renders the oracle's aggregate rows as the handler does.
func (q *serveQuery) expectedAgg() []string {
	var rows []string
	for g, c := range q.groups {
		rows = append(rows, fmt.Sprintf("%s|%d|%d", g, c.count, c.min))
	}
	sort.Strings(rows)
	return rows
}

// serveMix builds the distinct queries. Needles for string equality are
// values of records chosen by the seed.
func serveMix(seed int64, gen serveGen) []*serveQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	var qs []*serveQuery
	add := func(kind string, req serve.QueryRequest) {
		req.Tenant = serveTenants[rng.Intn(len(serveTenants))]
		qs = append(qs, &serveQuery{kind: kind, req: req, pred: scan.MustParse(req.Where)})
	}
	for i := 0; i < 8; i++ {
		lo := 1 + rng.Intn(9800)
		add("range", serve.QueryRequest{Where: fmt.Sprintf("int1 >= %d && int1 < %d", lo, lo+200), Columns: []string{"int1", "str4"}})
	}
	for i := 0; i < 8; i++ {
		needle := gen.Record(rng.Int63n(serveRecords)).GetAt(0).(string)
		add("eq", serve.QueryRequest{Where: "str0 == " + strconv.Quote(needle), Columns: []string{"str0", "int0"}})
	}
	for _, p := range []string{"ab", "kq", "Qz", "7e", "xx", "M-"} {
		add("prefix", serve.QueryRequest{Where: fmt.Sprintf("prefix(str1, %q)", p), Columns: []string{"str1", "int5"}})
	}
	for _, x := range []int{1000, 2500, 5000} {
		add("agg", serve.QueryRequest{Where: fmt.Sprintf("int2 <= %d", x), Agg: "count,min(int0) group by str5"})
	}
	for _, y := range []int{100, 200} {
		add("broad", serve.QueryRequest{Where: fmt.Sprintf("int3 <= %d", y),
			Columns: []string{"str0", "str3", "int0", "int2"}, Limit: 10})
	}
	for _, q := range qs {
		if q.req.Agg != "" {
			q.agg, _ = scan.ParseAggregate(q.req.Agg) // a fixed spec above; checked by runServe
			q.groups = map[string]*aggCell{}
		}
	}
	return qs
}

// serveData is one loaded dataset.
type serveData struct {
	fs        *hdfs.FileSystem
	schema    *serde.Schema
	userBytes int64
	written   int64
	stored    int64
	gen       time.Duration
}

// loadServe generates and loads the dataset; with qs non-nil it also folds
// each query's expected answer from the generated records (not timed).
func loadServe(seed int64, qs []*serveQuery) (*serveData, time.Duration, error) {
	start := time.Now()
	var paused time.Duration
	fs := hdfs.New(sim.SingleNode(), seed)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	gen := newServeGen(seed)
	var stats sim.TaskStats
	w, err := core.NewWriter(fs, serveDataset, gen.Schema(), core.LoadOptions{
		SplitRecords: serveRecords / serveSplits,
		PerColumn:    serveLayouts,
	}, &stats)
	if err != nil {
		return nil, 0, err
	}
	d := &serveData{fs: fs, schema: gen.Schema()}
	var buf []byte
	for i := int64(0); i < serveRecords; i++ {
		g0 := time.Now()
		rec := gen.Record(i)
		g1 := time.Now()
		d.gen += g1.Sub(g0)
		if buf, err = serde.AppendRecord(buf[:0], rec); err != nil {
			return nil, 0, err
		}
		d.userBytes += int64(len(buf))
		if qs != nil {
			ev := scan.Getter(rec.Get)
			for _, q := range qs {
				ok, err := q.pred.Eval(ev)
				if err != nil {
					return nil, 0, fmt.Errorf("oracle: %s: %w", q.req.Where, err)
				}
				if !ok {
					continue
				}
				q.matched++
				if q.groups != nil {
					g, v := rec.GetAt(gen.str5).(string), rec.GetAt(gen.int0).(int32)
					c := q.groups[g]
					if c == nil {
						c = &aggCell{min: v}
						q.groups[g] = c
					}
					c.count++
					c.min = min(c.min, v)
				}
			}
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
	d.stored = fs.TreeSize(serveDataset)
	return d, setup, nil
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	gen := newServeGen(cfg.seed)
	qs := serveMix(cfg.seed, gen)
	for _, q := range qs {
		if q.req.Agg != "" && q.agg == nil {
			return nil, fmt.Errorf("bad aggregate %q", q.req.Agg)
		}
	}
	var d *serveData
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		oracle := qs
		if r > 0 {
			oracle = nil // the answers are folded once; later set-ups only load
		}
		var took time.Duration
		var err error
		d = nil // let the previous dataset go before building the next
		if d, took, err = loadServe(cfg.seed, oracle); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.table["setup_s"] = o.e2e["setup_s"]
	o.layer["workload.gen_us_per_record"] = float64(d.gen.Microseconds()) / serveRecords

	if !cfg.trace {
		m, err := serveMeasure(cfg, d, qs, cfg.seconds, nil, o)
		if err != nil {
			return nil, err
		}
		m.report(o, d)
		return o, nil
	}
	base, err := serveMeasure(cfg, d, qs, cfg.seconds/2, nil, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := serveMeasure(cfg, d, qs, cfg.seconds/2, tr, o)
	if err != nil {
		return nil, err
	}
	m.report(o, d)
	o.layer["trace.overhead_frac"] = m.p50/base.p50 - 1
	m.layers(o)
	if err := serveReplay(d, qs, m, tr, o); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	o.layer["hdfs.written_mb"] = float64(d.written) / (1 << 20)
	o.spans = tr.finish()
	return o, nil
}

// serveRun is one measured phase of serve_mix.
type serveRun struct {
	latencies []float64 // due time to decoded response, ms
	late      []float64 // how late the sender issued each request, ms
	handler   []float64 // traced: ServeHTTP time, ms
	http      []float64 // traced: round trip minus handler time, ms
	window    []float64 // sharing-window wait from each response's report, ms
	good      int64
	schedule  float64 // seconds from the schedule's start to the last answer
	counts    []int64 // how often each distinct query was sent
	stats     serve.Stats
	queueMax  int
	vecMB     float64
	pruned    struct{ splits, splitQueries, groupRecs, liveRecs, groups, bloom, filtered, matched float64 }
	proc      procStats
	p50, p95  float64
	p99       float64
	sess      *mapred.Session
}

// serveMeasure runs one open-loop phase against a fresh server over the
// loaded dataset.
func serveMeasure(cfg config, d *serveData, qs []*serveQuery, seconds float64, tr *tracer, o *outcome) (*serveRun, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ int64(seconds*1000)))
	// A Poisson stream conditioned on its count: n arrival times drawn
	// uniformly over the schedule, so every run covers the same span.
	n := max(1, int(serveRate*seconds))
	due := make([]time.Duration, n)
	pick := make([]int, n)
	byKind := map[string][]int{}
	for j, q := range qs {
		byKind[q.kind] = append(byKind[q.kind], j)
	}
	// Each template gets exactly its share of the schedule, in seeded
	// order, so runs differ in timing and parameters but not in mix.
	var kinds []string
	for _, t := range serveTemplates {
		for k := 0; k < (n*t.percent+50)/100; k++ {
			kinds = append(kinds, t.kind)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, serveTemplates[0].kind)
	}
	kinds = kinds[:n]
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	for i := range due {
		due[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
		js := byKind[kinds[i]]
		pick[i] = js[rng.Intn(len(js))]
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })

	srv := serve.New(d.fs, serve.Options{Window: serveWindow, MaxBatches: serveMaxBatches, CacheBytes: serveCacheBytes})
	var handler http.Handler = serve.NewHandler(srv, serve.HandlerOptions{
		Datasets: map[string]string{"synthetic": serveDataset}, Default: "synthetic",
	})
	var handlerMS sync.Map
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op := r.Header.Get("X-Perfbench-Op")
			parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			t1 := time.Now()
			tr.record(op, parent, "serve.ServeHTTP", t0, t1)
			handlerMS.Store(op, ms(t1.Sub(t0)))
		})
	}
	ts := httptest.NewServer(handler)
	nproc := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	client := &http.Client{Transport: transport}
	defer func() {
		transport.CloseIdleConnections()
		ts.Close()
		srv.Close()
	}()

	m := &serveRun{counts: make([]int64, len(qs)), sess: srv.Session()}
	var mu sync.Mutex
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					st := srv.Stats()
					if q := st.Queued + st.Forming + st.WaitingBatches; q > m.queueMax {
						m.queueMax = q
					}
				}
			}
		}()
	}

	probe := startProbe()
	start := time.Now()
	work := make(chan int, n) // every request of the schedule can be pending at once
	var workers sync.WaitGroup
	for w := 0; w < nproc; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range work {
				q := qs[pick[i]]
				op := "q-" + strconv.Itoa(i) + "-" + q.kind
				dueAt := start.Add(due[i])
				resp, sent, err := serveSend(client, ts.URL, q, op, tr, dueAt)
				lat := since(dueAt)
				mu.Lock()
				o.attempted++
				m.counts[pick[i]]++
				if err != nil {
					o.failed++
					o.mismatch("query %d (%s): %v", i, q.req.Where, err)
					mu.Unlock()
					continue
				}
				ok := serveCheck(q, resp, o)
				m.latencies = append(m.latencies, lat)
				if ok && lat <= serveLimitMS {
					m.good++
				}
				m.window = append(m.window, (resp.Serve.SealAt-resp.Serve.ArriveAt)*1e3)
				m.pruned.splits += float64(resp.Stats.SplitsPruned)
				m.pruned.splitQueries += serveSplits
				splitRecs := float64(resp.Stats.SplitsPruned) * serveRecords / serveSplits
				m.pruned.groupRecs += float64(resp.Stats.RecordsPruned) - splitRecs
				m.pruned.liveRecs += serveRecords - splitRecs
				m.pruned.groups += float64(resp.Stats.GroupsPruned)
				m.pruned.bloom += float64(resp.Stats.BloomPruned)
				m.pruned.filtered += float64(resp.Stats.RecordsFiltered)
				m.pruned.matched += float64(resp.Matched)
				if h, ok := handlerMS.Load(op); ok {
					m.handler = append(m.handler, h.(float64))
					m.http = append(m.http, sent-h.(float64))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range due {
		dueAt := start.Add(due[i])
		time.Sleep(time.Until(dueAt))
		m.late = append(m.late, since(dueAt))
		work <- i
	}
	close(work)
	workers.Wait()
	// Goodput is per second from the schedule's start to its last answer,
	// so a backlog left at the end of the schedule lowers it.
	m.schedule = time.Since(start).Seconds()
	m.proc = probe.finish()
	close(stopSampler)
	sampler.Wait()
	srv.Drain()
	m.stats = srv.Stats()
	vb, _ := srv.Session().VecCacheUsage()
	m.vecMB = float64(vb) / (1 << 20)
	if len(m.latencies) == 0 {
		return nil, fmt.Errorf("every query failed")
	}
	m.p50, m.p95, m.p99 = median(m.latencies), quantile(m.latencies, 0.95), quantile(m.latencies, 0.99)
	return m, nil
}

// serveSend posts one query and decodes the response; rtt is the round
// trip in milliseconds. Traced, the query's root span runs from its due
// time, so it includes any wait for a free connection.
func serveSend(client *http.Client, url string, q *serveQuery, op string, tr *tracer, dueAt time.Time) (resp *serve.QueryResponse, rtt float64, err error) {
	root := tr.newID()
	defer func() { tr.recordAs(root, op, 0, "client.query", dueAt, time.Now()) }()
	body, err := json.Marshal(q.req)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Perfbench-Op", op)
	req.Header.Set("X-Perfbench-Span", strconv.FormatInt(root, 10))
	t0 := time.Now()
	tr.record(op, root, "client.wait", dueAt, t0)
	hr, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	dec := json.NewDecoder(hr.Body)
	if hr.StatusCode != http.StatusOK {
		var e map[string]string
		dec.Decode(&e)
		return nil, 0, fmt.Errorf("status %d: %s", hr.StatusCode, e["error"])
	}
	t1 := time.Now()
	var out serve.QueryResponse
	if err := dec.Decode(&out); err != nil {
		return nil, 0, fmt.Errorf("decode response: %w", err)
	}
	t2 := time.Now()
	tr.record(op, root, "http.RoundTrip", t0, t1)
	tr.record(op, root, "json.Decode", t1, t2)
	return &out, ms(t1.Sub(t0)), nil
}

// serveCheck compares a response with the oracle.
func serveCheck(q *serveQuery, resp *serve.QueryResponse, o *outcome) bool {
	if resp.Matched != q.matched {
		o.mismatch("%s: matched %d, want %d", q.req.Where, resp.Matched, q.matched)
		return false
	}
	if q.groups != nil {
		var got []string
		for _, r := range resp.Agg {
			got = append(got, r.Group+"|"+strings.Join(r.Values, "|"))
		}
		sort.Strings(got)
		if want := q.expectedAgg(); strings.Join(got, ";") != strings.Join(want, ";") {
			o.mismatch("%s %s: rows %v, want %v", q.req.Where, q.req.Agg, got, want)
			return false
		}
		return true
	}
	if want := min(int64(q.req.Limit), q.matched); int64(len(resp.Rows)) != want {
		o.mismatch("%s: %d rows, want %d", q.req.Where, len(resp.Rows), want)
		return false
	}
	for _, row := range resp.Rows {
		if len(row) != len(q.req.Columns) {
			o.mismatch("%s: row has %d columns, want %d", q.req.Where, len(row), len(q.req.Columns))
			return false
		}
	}
	return true
}

func (m *serveRun) report(o *outcome, d *serveData) {
	goodput := float64(m.good) / m.schedule
	for _, t := range []map[string]float64{o.e2e, o.table} {
		t["peak_heap_mb"] = m.proc.peakMB
		t["write_amp"] = float64(d.written) / float64(d.userBytes)
		t["space_amp"] = float64(d.stored) / float64(d.userBytes)
	}
	o.e2e["latency_p50_ms"] = m.p50
	// A run holds a few hundred queries: the 95th percentile is the
	// highest with ten or more samples beyond it.
	o.table["query_p95_ms"] = m.p95
	o.table["samples"] = float64(len(m.latencies))
	o.e2e["throughput_per_s"] = goodput
	o.table["query_p50_ms"], o.table["query_p99_ms"], o.table["goodput_qps"] = m.p50, m.p99, goodput
	o.table["failed_frac"] = frac(float64(o.failed), float64(o.attempted))
	o.table["steal_frac"] = m.proc.stealFrac
}

func (m *serveRun) layers(o *outcome) {
	st := m.stats
	o.layer["bench.gen_late_p99_ms"] = quantile(m.late, 0.99)
	o.layer["serve.handler_ms"] = median(m.handler)
	o.layer["serve.http_ms"] = median(m.http)
	o.layer["serve.window_wait_ms"] = mean(m.window)
	o.layer["serve.batch_size_mean"] = frac(float64(st.Completed), float64(st.Batches))
	o.layer["serve.shared_batch_frac"] = frac(float64(st.SharedBatches), float64(st.Batches))
	o.layer["serve.bytes_saved_frac"] = frac(float64(st.BytesSaved), float64(st.BytesSaved+st.ChargedBytes))
	o.layer["serve.queue_depth_max"] = float64(m.queueMax)
	o.layer["hdfs.scan_cache_hit_frac"] = frac(float64(st.BytesFromCache), float64(st.BytesFromCache+st.ChargedBytes))
	o.layer["hdfs.charged_mb_per_op"] = frac(float64(st.ChargedBytes)/(1<<20), float64(st.Completed))
	p := m.pruned
	o.layer["scan.splits_pruned_frac"] = frac(p.splits, p.splitQueries)
	o.layer["scan.groups_pruned_frac"] = frac(p.groupRecs, p.liveRecs)
	o.layer["scan.bloom_pruned_frac"] = frac(p.bloom, p.groups)
	o.layer["scan.filtered_per_matched"] = frac(p.filtered, p.matched)
	o.layer["vec.cache_mb"] = m.vecMB
	m.proc.layer(o.layer, st.Completed)
}

// vecSource serves pre-decoded column vectors to VecEval.
type vecSource map[string]*scan.Vector

func (s vecSource) ColVec(col string) (*scan.Vector, error) {
	v, ok := s[col]
	if !ok {
		return nil, fmt.Errorf("column %q was not decoded", col)
	}
	return v, nil
}

func (s vecSource) KeyVec(string, string, *scan.Selection) (*scan.Selection, bool, error) {
	return nil, false, nil
}

// serveReplay drives the layers below the handler directly: parsing and
// planning each distinct query, batch decode of every filter column and
// VecEval of every predicate over the decoded vectors, the CIF reader's
// Open/Next loop, and each query run solo through mapred.Run and as one
// batch through the server's session, weighting per-query figures by how
// often the mix sent each query.
func serveReplay(d *serveData, qs []*serveQuery, m *serveRun, tr *tracer, o *outcome) error {
	model := sim.DefaultModel()
	const parseReps = 200
	var parseT, planT time.Duration
	jobs := make([]*mapred.Job, len(qs))
	for i, q := range qs {
		t0 := time.Now()
		for r := 0; r < parseReps; r++ {
			if _, err := scan.Parse(q.req.Where); err != nil {
				return err
			}
		}
		t1 := time.Now()
		tr.record("replay-plan", 0, "scan.Parse", t0, t1)
		parseT += t1.Sub(t0) / parseReps
		jobs[i] = serveJob(q)
		conf := jobs[i].Conf
		t2 := time.Now()
		if _, err := (&core.InputFormat{}).Explain(d.fs, &conf, model); err != nil {
			return fmt.Errorf("explain %s: %w", q.req.Where, err)
		}
		t3 := time.Now()
		tr.record("replay-plan", 0, "core.InputFormat.Explain", t2, t3)
		planT += t3.Sub(t2)
	}
	o.layer["scan.parse_us"] = float64(parseT.Microseconds()) / float64(len(qs))
	o.layer["scan.plan_us"] = float64(planT.Microseconds()) / float64(len(qs))

	// Batch decode of the columns the mix filters, groups or projects on,
	// then every predicate evaluated over the decoded group.
	dirs, err := splitDirs(d.fs, serveDataset)
	if err != nil {
		return err
	}
	cols := []string{"int1", "str0", "str1", "int2", "int3", "str3", "str5"}
	lay := layoutTimes{}
	var rd readStats
	var evalT time.Duration
	var evalRows int64
	for _, dir := range dirs {
		op := "replay-" + dir[strings.LastIndex(dir, "/")+1:]
		root, end := tr.begin(op, 0, "replay.split")
		for _, col := range cols {
			if err := rd.readFile(d.fs, dir+"/"+col, tr, op, root); err != nil {
				return err
			}
		}
		readers := map[string]colfile.VectorDecoder{}
		var total int64
		for _, col := range cols {
			r, err := openColumn(d.fs, d.schema, dir, col, nil)
			if err != nil {
				return err
			}
			readers[col] = r.(colfile.VectorDecoder)
			total = r.Total()
		}
		src := vecSource{}
		for _, col := range cols {
			src[col] = scan.NewVector(colfile.VecKindOf(d.schema.Fields[d.schema.FieldIndex(col)].Type), serveStatsEvery)
		}
		t0 := time.Now()
		for start := int64(0); start < total; start += serveStatsEvery {
			end := min(start+serveStatsEvery, total)
			for _, col := range cols {
				v := src[col]
				v.Reset(v.Kind, serveStatsEvery)
				s := time.Now()
				if err := readers[col].DecodeVector(start, end, v, nil); err != nil {
					return fmt.Errorf("%s/%s decode: %w", dir, col, err)
				}
				acc := lay.get(layoutOf(col))
				acc.decode += time.Since(s)
				acc.rows += end - start
			}
			for _, q := range qs {
				sel := scan.GetFullSelection(int(end - start))
				s := time.Now()
				out, err := q.pred.VecEval(src, sel)
				evalT += time.Since(s)
				if err != nil {
					return fmt.Errorf("veceval %s: %w", q.req.Where, err)
				}
				evalRows += end - start
				scan.PutSelection(sel)
				if out != sel {
					scan.PutSelection(out)
				}
			}
		}
		tr.record(op, root, "colfile.DecodeVector+scan.VecEval", t0, time.Now())
		end()
	}
	lay.report(o, false, true)
	rd.report(o)
	o.layer["scan.veceval_ns_per_row"] = frac(float64(evalT.Nanoseconds()), float64(evalRows))

	// Each query solo through mapred.Run, weighted by how often it was
	// sent, and the CIF reader loop of every record query.
	var sent, measured, modeled float64
	var total sim.TaskStats
	var openT, nextT time.Duration
	var opens, records int64
	for i, q := range qs {
		w := float64(m.counts[i])
		if w == 0 {
			continue
		}
		t0 := time.Now()
		res, err := mapred.Run(d.fs, serveJob(q))
		took := time.Since(t0)
		tr.record("replay-solo", 0, "mapred.Run", t0, t0.Add(took))
		if err != nil {
			return fmt.Errorf("solo %s: %w", q.req.Where, err)
		}
		sent += w
		measured += w * took.Seconds()
		modeled += w * model.ScanSeconds(res.Total)
		for k := 0; k < int(w); k++ {
			total.Add(res.Total)
		}
		if q.groups != nil {
			continue
		}
		job := serveJob(q)
		in := &core.InputFormat{}
		splits, err := in.Splits(d.fs, &job.Conf)
		if err != nil {
			return err
		}
		for _, sp := range splits {
			var stats sim.TaskStats
			s0 := time.Now()
			rr, err := in.Open(d.fs, &job.Conf, sp, hdfs.AnyNode, &stats)
			s1 := time.Now()
			tr.record("replay-core", 0, "core.InputFormat.Open", s0, s1)
			if err != nil {
				return err
			}
			opens++
			openT += s1.Sub(s0)
			for {
				_, _, ok, err := rr.Next()
				if err != nil {
					rr.Close()
					return err
				}
				if !ok {
					break
				}
				records++
			}
			s2 := time.Now()
			tr.record("replay-core", 0, "core.Reader.Next", s1, s2)
			nextT += s2.Sub(s1)
			rr.Close()
		}
	}
	o.layer["compress.decoded_mb_per_op"] = float64(total.CPU.ZlibBytes+total.CPU.LzoBytes) / (1 << 20) / sent
	o.layer["serde.records_materialized_per_op"] = float64(total.CPU.RecordsMaterialized) / sent
	o.layer["serde.values_materialized_per_op"] = float64(total.CPU.ValuesMaterialized) / sent
	o.layer["mapred.run_ms_per_job"] = measured / sent * 1e3
	o.layer["sim.measured_over_modeled"] = measured / modeled
	o.layer["core.open_us_per_split"] = frac(float64(openT.Microseconds()), float64(opens))
	o.layer["core.next_ns_per_record"] = frac(float64(nextT.Nanoseconds()), float64(records))

	// The whole mix as one batch through the server's session: its cache
	// counters as the session sees them.
	batch := make([]*mapred.Job, len(qs))
	for i, q := range qs {
		batch[i] = serveJob(q)
	}
	t0 := time.Now()
	br, err := m.sess.RunBatch(batch...)
	tr.record("replay-batch", 0, "mapred.Session.RunBatch", t0, time.Now())
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	_, vecHits, _ := mapred.VecStats(br)
	vecBatches := br.Shared.VecBatches
	for _, r := range br.Results {
		vecBatches += r.Total.VecBatches
	}
	o.layer["vec.cache_hit_frac"] = frac(float64(vecHits), float64(vecHits+vecBatches))
	return nil
}

// serveJob builds the job the handler builds for a request.
func serveJob(q *serveQuery) *mapred.Job {
	b := core.ScanDataset(serveDataset).Columns(q.req.Columns...).Where(q.pred)
	if q.agg != nil {
		return b.Aggregate(q.agg).AggJob()
	}
	return b.Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
}

// layoutOf is the layout serve_mix loads a column in.
func layoutOf(col string) colfile.Layout {
	if o, ok := serveLayouts[col]; ok {
		return o.Layout
	}
	return colfile.Plain
}
