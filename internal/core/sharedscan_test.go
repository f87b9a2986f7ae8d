package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// loadClustered writes a dataset whose x column is monotone in the load
// order, so split-directories cover disjoint x ranges.
func loadClustered(t *testing.T, fs *hdfs.FileSystem, dataset string, records, splits int64) {
	t.Helper()
	schema := serde.RecordOf("C",
		serde.Field{Name: "x", Type: serde.Long()},
		serde.Field{Name: "y", Type: serde.Int()},
		serde.Field{Name: "s", Type: serde.String()})
	opts := LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20},
		SplitRecords: (records + splits - 1) / splits,
	}
	w, err := NewWriter(fs, dataset, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < records; i++ {
		rec := serde.NewRecord(schema)
		rec.SetAt(0, i*1000/records)
		rec.SetAt(1, int32(i%10))
		rec.SetAt(2, fmt.Sprintf("v%04d", i))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedScanAutoDirsPerSplit checks selectivity-estimated task sizing:
// a selective predicate merges its few surviving, sparsely matching
// directories into fewer map tasks, while an unselective scan keeps one
// directory per task.
func TestSharedScanAutoDirsPerSplit(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/a", 1600, 16)
	in := &InputFormat{DirsPerSplit: AutoDirsPerSplit}

	plan := func(pred scan.Predicate, elide bool) ([]mapred.Split, scan.PruneReport) {
		conf := &mapred.JobConf{InputPaths: []string{"/a"}}
		SetColumns(conf, "s")
		if pred != nil {
			scan.SetPredicate(conf, pred)
		}
		scan.SetElision(conf, elide)
		splits, report, err := in.PlannedSplits(fs, conf)
		if err != nil {
			t.Fatal(err)
		}
		return splits, report
	}

	// Unselective: every directory survives, one task each (the fixed
	// default's behavior).
	full, _ := plan(nil, true)
	if len(full) != 16 {
		t.Fatalf("unfiltered auto plan has %d splits, want 16", len(full))
	}

	// Clustered-selective: every surviving directory is dense with matches,
	// so merging would not reduce per-task matching work — auto sizing must
	// keep one task per survivor, like the fixed default.
	clustered, report := plan(scan.Le("x", 250), true)
	surviving := report.SplitsTotal - report.SplitsPruned
	if surviving < 2 {
		t.Fatalf("elision left %d surviving directories; the fixture is broken", surviving)
	}
	if len(clustered) != surviving {
		t.Fatalf("auto sizing built %d tasks for %d dense surviving directories", len(clustered), surviving)
	}

	// Uniform-selective: y == 5 survives every directory at ~10% within-dir
	// selectivity, so the estimator must merge directories until each task
	// holds roughly a directory's worth of matching records.
	sel, _ := plan(scan.Eq("y", 5), true)
	if len(sel) >= 16 {
		t.Fatalf("auto sizing kept %d tasks for 16 sparse directories", len(sel))
	}

	// Output equivalence: merging directories into one task never changes
	// the records returned.
	countRecords := func(in *InputFormat, elide bool) int64 {
		conf := &mapred.JobConf{InputPaths: []string{"/a"}}
		SetColumns(conf, "s")
		scan.SetPredicate(conf, scan.Le("x", 250))
		scan.SetElision(conf, elide)
		splits, _, err := in.PlannedSplits(fs, conf)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, sp := range splits {
			rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, _, ok, err := rr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			rr.Close()
		}
		return n
	}
	auto := countRecords(in, true)
	fixed := countRecords(&InputFormat{}, true)
	if auto != fixed {
		t.Fatalf("auto sizing returned %d records, fixed sizing %d", auto, fixed)
	}
}

// TestSharedSplitsMemberSets checks the co-scheduling plan itself: member
// sets follow each job's own elision verdicts, and runs with identical
// member sets become shared splits.
func TestSharedSplitsMemberSets(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/m", 1600, 16)
	in := &InputFormat{}

	conf := func(pred scan.Predicate) *mapred.JobConf {
		c := &mapred.JobConf{InputPaths: []string{"/m"}}
		SetColumns(c, "s")
		scan.SetPredicate(c, pred)
		return c
	}
	confs := []*mapred.JobConf{
		conf(scan.Le("x", 500)), // first half of the directories
		conf(scan.Le("x", 250)), // first quarter
		conf(scan.Gt("x", 750)), // last quarter
	}
	splits, reports, err := in.SharedSplits(fs, confs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	var sharedDirs, soloDirs int
	for _, sp := range splits {
		cs := sp.Split.(*Split)
		if !cs.Judged {
			t.Fatalf("shared split %s not marked judged", cs)
		}
		switch {
		case len(sp.Members) > 1:
			sharedDirs += len(cs.Dirs)
			// Jobs 0 and 1 overlap on the first quarter; job 2 never joins.
			for _, m := range sp.Members {
				if m == 2 {
					t.Fatalf("split %s shares members %v with a disjoint job", cs, sp.Members)
				}
			}
		default:
			soloDirs += len(cs.Dirs)
		}
	}
	if sharedDirs == 0 {
		t.Fatal("no directory was co-scheduled for the overlapping jobs")
	}
	if soloDirs == 0 {
		t.Fatal("no directory remained single-member (jobs 0 and 2 have exclusive regions)")
	}
}

// TestSharedScanMixedBatchVectorizes: a shared batch mixing an unfiltered
// member with a filtered member and a filtered COUNT runs on the batch
// path, and each member's output and logical counters equal its solo run.
func TestSharedScanMixedBatchVectorizes(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/mix", 1600, 16)
	pred := scan.Le("y", int32(4))
	count, err := scan.ParseAggregate("count")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rows := make([][]string, 2)
	collect := func(m int) mapred.Mapper {
		return mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			s, err := v.(serde.Record).Get("s")
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			rows[m] = append(rows[m], s.(string))
			return nil
		})
	}
	jobs := func() []*mapred.Job {
		return []*mapred.Job{
			ScanDataset("/mix").Columns("s").Job(collect(0)),
			ScanDataset("/mix").Columns("s").Where(pred).Job(collect(1)),
			ScanDataset("/mix").Where(pred).Aggregate(count).AggJob(),
		}
	}
	var solo []*mapred.Result
	for _, job := range jobs() {
		res, err := mapred.Run(fs, job)
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, res)
	}
	soloRows := rows
	rows = make([][]string, 2)
	br, err := mapred.RunBatch(fs, jobs()...)
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedTasks == 0 {
		t.Fatal("the members were never co-scheduled")
	}
	if br.Shared.VecBatches == 0 {
		t.Fatal("the mixed shared batch never took the batch path")
	}
	for m := range rows {
		sort.Strings(rows[m])
		sort.Strings(soloRows[m])
		if !reflect.DeepEqual(rows[m], soloRows[m]) {
			t.Fatalf("member %d: batch delivered %d rows, solo %d, or their values differ",
				m, len(rows[m]), len(soloRows[m]))
		}
	}
	if got, want := fmt.Sprint(br.Results[2].Agg.Rows()), fmt.Sprint(solo[2].Agg.Rows()); got != want {
		t.Fatalf("count member: batch %s, solo %s", got, want)
	}
	for m, res := range br.Results {
		b, s := res.Total, solo[m].Total
		if b.RecordsProcessed != s.RecordsProcessed || b.RecordsPruned != s.RecordsPruned ||
			b.RecordsFiltered != s.RecordsFiltered || b.GroupsPruned != s.GroupsPruned ||
			b.BloomPruned != s.BloomPruned || b.SplitsPruned != s.SplitsPruned ||
			b.RowsAggregated != s.RowsAggregated {
			t.Fatalf("member %d: logical counters differ:\nbatch %+v\nsolo  %+v", m, b, s)
		}
	}
}
