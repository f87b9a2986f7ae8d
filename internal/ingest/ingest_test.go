package ingest_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

func testFS(nodes int) *hdfs.FileSystem {
	cfg := sim.DefaultCluster()
	cfg.Nodes = nodes
	cfg.BlockSize = 1 << 16
	cfg.TransferUnit = 1 << 12
	fs := hdfs.New(cfg, 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	return fs
}

// arrivals replays a deterministic crawl stream: n arrivals, a recrawl
// fraction revisiting seen URLs with fresh volatile columns.
func arrivals(n int, recrawl float64, seed int64) ([]workload.Arrival, *workload.Crawl) {
	s := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: seed, ContentBytes: 200, Inlinks: 2},
		Seed:            seed,
		RatePerSec:      50,
		RecrawlFraction: recrawl,
	})
	out := make([]workload.Arrival, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out, s.Crawl()
}

// finalSet reduces an arrival sequence to the record set a finished ingest
// holds: the latest version of each URL, ordered by last arrival — the
// ingester's upsert rule.
func finalSet(arr []workload.Arrival) []*serde.GenericRecord {
	order := make([]*serde.GenericRecord, 0, len(arr))
	byKey := make(map[int64]int)
	for _, a := range arr {
		if p, ok := byKey[a.Index]; ok {
			order[p] = nil
		}
		order = append(order, a.Rec)
		byKey[a.Index] = len(order) - 1
	}
	out := order[:0]
	for _, r := range order {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

func ingestOptions(dataset string, schema *serde.Schema, memtable int) ingest.Options {
	return ingest.Options{
		Dataset:         dataset,
		Schema:          schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    4000, // a few buckets per stream second at 50/s
		MemtableRecords: memtable,
		Load: core.LoadOptions{
			SplitRecords: 64,
			PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
		},
	}
}

func bulkLoad(t *testing.T, fs *hdfs.FileSystem, dataset string, schema *serde.Schema, recs []*serde.GenericRecord) {
	t.Helper()
	w, err := core.NewWriter(fs, dataset, schema, core.LoadOptions{
		SplitRecords: 64,
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// rowKey renders one record's full content deterministically (maps are
// summarized by stable fields; content by a hash), so slice equality is
// record-set-and-order equality.
func rowKey(rec *serde.GenericRecord) string {
	url, _ := rec.Get("url")
	src, _ := rec.Get("srcUrl")
	ft, _ := rec.Get("fetchTime")
	inl, _ := rec.Get("inlink")
	md, _ := rec.Get("metadata")
	content, _ := rec.Get("content")
	h := fnv.New64a()
	h.Write(content.([]byte))
	lm := md.(map[string]any)["last-modified"]
	return fmt.Sprintf("%v|%v|%v|%d|%v|%d|%x",
		url, src, ft, len(inl.([]any)), lm, len(content.([]byte)), h.Sum64())
}

// scanRows runs a full-record scan as one map task (DirsPerSplit pinned
// high so row order is the dataset's scan order).
func scanRows(t *testing.T, fs *hdfs.FileSystem, dataset string, pred scan.Predicate) []string {
	t.Helper()
	var mu sync.Mutex
	var rows []string
	job := core.ScanDataset(dataset).
		Where(pred).
		DirsPerSplit(1 << 20).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			rows = append(rows, rowKey(v.(*serde.GenericRecord)))
			return nil
		}))
	if _, err := mapred.Run(fs, job); err != nil {
		t.Fatal(err)
	}
	return rows
}

func aggRows(t *testing.T, fs *hdfs.FileSystem, dataset, spec string, pred scan.Predicate) string {
	t.Helper()
	agg, err := scan.ParseAggregate(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := core.ScanDataset(dataset).Where(pred).Aggregate(agg).AggJob()
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v", res.Agg.Rows())
}

// TestIngestCompactEquivalence is the subsystem's property test: an
// ingested-then-compacted dataset answers every query — scans and
// aggregates, vectorized and scalar — identically to bulk-loading the same
// final record set, across random arrival orders, recrawl overlaps, and
// compaction points.
func TestIngestCompactEquivalence(t *testing.T) {
	trials := 5
	n := 400
	if testing.Short() {
		trials, n = 2, 220
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + trial)))
			recrawl := []float64{0, 0.2, 0.45}[trial%3]
			arr, crawl := arrivals(n, recrawl, int64(7000+trial))

			fsI := testFS(3)
			opts := ingestOptions("/live/crawl", crawl.Schema(), 32+rng.Intn(64))
			ing, err := ingest.New(fsI, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Random mid-stream flush/compaction points.
			flushAt := map[int]bool{}
			compactAt := map[int]bool{}
			for i := 0; i < 3; i++ {
				flushAt[rng.Intn(len(arr))] = true
				compactAt[rng.Intn(len(arr))] = true
			}
			for i, a := range arr {
				if err := ing.Append(a.Rec); err != nil {
					t.Fatal(err)
				}
				if flushAt[i] {
					if err := ing.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if compactAt[i] {
					if err := ing.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ing.Flush(); err != nil {
				t.Fatal(err)
			}
			if trial%2 == 0 {
				if err := ing.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := ing.GC(); err != nil {
					t.Fatal(err)
				}
			}

			final := finalSet(arr)
			fsB := testFS(3)
			bulkLoad(t, fsB, "/bulk/crawl", crawl.Schema(), final)

			if got := ing.Stats().UpsertsResolved; got != int64(len(arr)-len(final)) {
				t.Errorf("UpsertsResolved = %d, want %d", got, len(arr)-len(final))
			}

			mid := int64(1293840000000 + 2000)
			preds := []scan.Predicate{
				nil,
				scan.HasPrefix("url", "http://www.ibm.com"),
				scan.Gt("fetchTime", mid),
			}
			for pi, pred := range preds {
				got := scanRows(t, fsI, "/live/crawl", pred)
				want := scanRows(t, fsB, "/bulk/crawl", pred)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pred %d: ingest scan (%d rows) != bulk scan (%d rows)",
						pi, len(got), len(want))
				}
				ga := aggRows(t, fsI, "/live/crawl", "count,count(url),min(fetchTime),max(fetchTime),sum(fetchTime),avg(fetchTime)", pred)
				wa := aggRows(t, fsB, "/bulk/crawl", "count,count(url),min(fetchTime),max(fetchTime),sum(fetchTime),avg(fetchTime)", pred)
				if ga != wa {
					t.Fatalf("pred %d: ingest agg %s != bulk agg %s", pi, ga, wa)
				}
			}
		})
	}
}

// TestIngestSharedScanEquivalence runs a shared batch (two scans + an
// aggregate co-scheduled on one cursor set) over an ingested dataset and
// checks every member's result against solo runs on the bulk-loaded
// equivalent.
func TestIngestSharedScanEquivalence(t *testing.T) {
	arr, crawl := arrivals(300, 0.35, 4242)
	fsI := testFS(3)
	ing, err := ingest.New(fsI, ingestOptions("/live/crawl", crawl.Schema(), 48))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			if err := ing.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	fsB := testFS(3)
	bulkLoad(t, fsB, "/bulk/crawl", crawl.Schema(), finalSet(arr))

	pred1 := scan.HasPrefix("url", "http://www.ibm.com")
	pred2 := scan.Gt("fetchTime", int64(1293840000000+3000))

	var mu sync.Mutex
	rows := map[int][]string{}
	collect := func(member int) mapred.Mapper {
		return mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			rows[member] = append(rows[member], rowKey(v.(*serde.GenericRecord)))
			return nil
		})
	}
	agg, err := scan.ParseAggregate("count,avg(fetchTime)")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*mapred.Job{
		core.ScanDataset("/live/crawl").Where(pred1).DirsPerSplit(1 << 20).Job(collect(0)),
		core.ScanDataset("/live/crawl").Where(pred2).DirsPerSplit(1 << 20).Job(collect(1)),
		core.ScanDataset("/live/crawl").Where(pred2).Aggregate(agg).AggJob(),
	}
	br, err := mapred.RunBatch(fsI, jobs...)
	if err != nil {
		t.Fatal(err)
	}

	want0 := scanRows(t, fsB, "/bulk/crawl", pred1)
	want1 := scanRows(t, fsB, "/bulk/crawl", pred2)
	sort.Strings(rows[0])
	sort.Strings(rows[1])
	sortedCopy := func(s []string) []string {
		c := append([]string(nil), s...)
		sort.Strings(c)
		return c
	}
	if !reflect.DeepEqual(rows[0], sortedCopy(want0)) {
		t.Errorf("shared member 0: %d rows, want %d", len(rows[0]), len(want0))
	}
	if !reflect.DeepEqual(rows[1], sortedCopy(want1)) {
		t.Errorf("shared member 1: %d rows, want %d", len(rows[1]), len(want1))
	}
	gotAgg := fmt.Sprintf("%v", br.Results[2].Agg.Rows())
	wantAgg := aggRows(t, fsB, "/bulk/crawl", "count,avg(fetchTime)", pred2)
	if gotAgg != wantAgg {
		t.Errorf("shared agg member: %s, want %s", gotAgg, wantAgg)
	}
}

// TestIngestConcurrentServe drives a colserve server and an ingester over
// the same dataset at once: queries race flush and compaction commits. The
// manifest protocol must keep every query answerable (no torn layouts, no
// stale caches, no vanished files), and the live row count — distinct URLs
// committed so far — must be nondecreasing across sequential queries.
func TestIngestConcurrentServe(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 250
	}
	arr, crawl := arrivals(n, 0.3, 777)
	fs := testFS(3)
	srv := serve.New(fs, serve.Options{CacheBytes: 1 << 20})
	defer srv.Close()

	opts := ingestOptions("/live/crawl", crawl.Schema(), 40)
	opts.CompactEvery = 3
	opts.Session = srv.Session()
	ing, err := ingest.New(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeLive(ing)
	var commits atomic.Int64
	ing.OnCommit(func(int64, []string) { commits.Add(1) })

	agg, err := scan.ParseAggregate("count")
	if err != nil {
		t.Fatal(err)
	}
	countQuery := func() int64 {
		t.Helper()
		tk, err := srv.Enqueue("reader", core.ScanDataset("/live/crawl").Aggregate(agg).AggJob())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query racing ingest failed: %v", err)
		}
		return res.Agg.Rows()[0].Values[0].(int64)
	}

	done := make(chan error, 1)
	go func() {
		for _, a := range arr {
			if err := ing.Append(a.Rec); err != nil {
				done <- err
				return
			}
		}
		done <- ing.Flush()
	}()

	last := int64(-1)
	queries := 0
	writing := true
	for writing {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
			if ing.Generation() == 0 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			n := countQuery()
			if n < last {
				t.Fatalf("live count went backwards: %d after %d", n, last)
			}
			last = n
			queries++
		}
	}
	if queries == 0 || commits.Load() == 0 {
		t.Fatalf("race never materialized: %d queries, %d commits", queries, commits.Load())
	}
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(finalSet(arr)))
	if got := countQuery(); got != want {
		t.Fatalf("final live count %d, want %d distinct URLs", got, want)
	}
}

// TestIngestFreshPartitionCounters checks the ingest-side accounting:
// flushes produce files and fresh partitions that scans observe via
// merge-on-read, and compaction retires them.
func TestIngestFreshPartitionCounters(t *testing.T) {
	arr, crawl := arrivals(200, 0.3, 99)
	fs := testFS(3)
	ing, err := ingest.New(fs, ingestOptions("/live/crawl", crawl.Schema(), 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if ing.Stats().FlushedFiles == 0 {
		t.Fatal("no flushed files counted")
	}
	if ing.Generation() == 0 {
		t.Fatal("no manifest committed")
	}

	var stats sim.TaskStats
	pre := scanRows(t, fs, "/live/crawl", nil)
	job := core.ScanDataset("/live/crawl").DirsPerSplit(1 << 20).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	stats = res.Total
	if stats.FreshPartitionsScanned == 0 {
		t.Error("scan over uncompacted dataset read no fresh partitions")
	}

	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if ing.Stats().CompactionBytes == 0 {
		t.Error("compaction wrote no bytes")
	}
	res, err = mapred.Run(fs, core.ScanDataset("/live/crawl").DirsPerSplit(1<<20).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil })))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.FreshPartitionsScanned != 0 {
		t.Errorf("compacted dataset still scanned %d fresh partitions", res.Total.FreshPartitionsScanned)
	}
	post := scanRows(t, fs, "/live/crawl", nil)
	if !reflect.DeepEqual(pre, post) {
		t.Error("compaction changed scan results")
	}
}
