package core

import (
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Batch execution at the reader level, against references that share none
// of its code: rows against scan-then-filter (a predicate-free scan with
// Predicate.Eval over each full record in the mapper's place), logical
// counters against a replay of scan.Planner.PruneGroup over the files' own
// group statistics.

func vecLayouts() map[string]LoadOptions {
	return map[string]LoadOptions{
		"plain":    {SplitRecords: 64, Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 16}},
		"skiplist": {SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}},
		"block":    {SplitRecords: 64, Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 4 << 10}},
		"dcsl": {SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 16}}},
	}
}

// scanThenFilter scans dataset without a predicate, record at a time, and
// keeps the full records pred accepts.
func scanThenFilter(t *testing.T, fs *hdfs.FileSystem, dataset string, lazy bool, pred scan.Predicate) []map[string]any {
	t.Helper()
	all, _ := scanAll(t, fs, dataset, predConf(nil, lazy, nil))
	var out []map[string]any
	for _, row := range all {
		ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return row[col], nil }))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// replayPruning derives the logical pruning counters a scan of pred over
// dataset must report, from the files' statistics alone: a split-directory
// whose whole-file aggregates prove NoMatch is pruned whole (scheduler or
// file tier); elsewhere the group tier is consulted at record 0 and again
// at the end of every extent it returns, each NoMatch extent one pruned
// group. RecordsFiltered then follows from "pruned + filtered + returned ==
// N".
func replayPruning(t *testing.T, fs *hdfs.FileSystem, dataset string, pred scan.Predicate) (groups, records, bloom int64) {
	t.Helper()
	dirs, err := listSplitDirs(fs, dataset)
	if err != nil {
		t.Fatal(err)
	}
	planner := scan.NewPlanner(pred)
	for _, dir := range dirs {
		schema, err := readSplitSchema(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		readers := make(map[string]colfile.Reader)
		var files []*hdfs.FileReader
		open := func(col string) colfile.Reader {
			if r, ok := readers[col]; ok {
				return r
			}
			hr, err := fs.Open(dir+"/"+col, hdfs.AnyNode)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, hr)
			r, err := colfile.NewReader(hr, schema.Field(col), nil)
			if err != nil {
				t.Fatal(err)
			}
			readers[col] = r
			return r
		}
		fileStats := func(col string) *scan.ColStats {
			if src, ok := open(col).(colfile.FileStatsSource); ok {
				return src.FileStats()
			}
			return nil
		}
		total := open(schema.Fields[0].Name).Total()
		if pruned, rows := planner.PruneFileRows(fileStats, func() int64 { return total }); pruned {
			records += rows
		} else {
			g, r, b := replayGroups(planner, total, open)
			groups, records, bloom = groups+g, records+r, bloom+b
		}
		for _, hr := range files {
			hr.Close()
		}
	}
	return groups, records, bloom
}

// replayGroups walks one split-directory's group tier for replayPruning.
func replayGroups(planner *scan.Planner, total int64, open func(string) colfile.Reader) (groups, records, bloom int64) {
	groupStats := func(col string, rec int64) (*scan.ColStats, int64) {
		if src, ok := open(col).(colfile.StatsSource); ok {
			return src.GroupStats(rec)
		}
		return nil, 0
	}
	for pos := int64(0); pos < total; {
		tri, end, byBloom := planner.PruneGroup(pos, total, groupStats)
		if tri == scan.NoMatch {
			groups++
			records += end - pos
			if byBloom {
				bloom++
			}
		}
		pos = end
	}
	return groups, records, bloom
}

// checkReplayCounters compares a scan's logical counters with the replay
// and checks the per-job sum invariant.
func checkReplayCounters(t *testing.T, ctx string, fs *hdfs.FileSystem, dataset string, pred scan.Predicate, st sim.TaskStats, returned, n int64) {
	t.Helper()
	groups, records, bloom := replayPruning(t, fs, dataset, pred)
	if st.GroupsPruned != groups || st.RecordsPruned != records || st.BloomPruned != bloom {
		t.Fatalf("%s: pruning counters groups %d records %d bloom %d, replay %d %d %d",
			ctx, st.GroupsPruned, st.RecordsPruned, st.BloomPruned, groups, records, bloom)
	}
	if st.RecordsPruned+st.RecordsFiltered+returned != n {
		t.Fatalf("%s: pruned %d + filtered %d + returned %d != %d",
			ctx, st.RecordsPruned, st.RecordsFiltered, returned, n)
	}
}

func TestVectorizedScanEquivalence(t *testing.T) {
	preds := []scan.Predicate{
		scan.HasPrefix("url", "http://ibm.com"),
		scan.Gt("fetchTime", int64(1293840000000+150)),
		scan.And(
			scan.HasPrefix("url", "http://site"),
			scan.Le("fetchTime", int64(1293840000000+100)),
		),
		scan.Or(
			scan.HasPrefix("url", "http://ibm.com/jp"),
			scan.KeyExists("metadata", "server"),
		),
		scan.KeyExists("metadata", "server"),
		scan.Not(scan.HasPrefix("url", "http://site")),
	}
	for name, opts := range vecLayouts() {
		fs := testFS(t, 4)
		loadDataset(t, fs, "/data/crawl", opts, 300)
		for _, pred := range preds {
			for _, lazy := range []bool{false, true} {
				vrows, vst := scanAll(t, fs, "/data/crawl", predConf([]string{"url", "content"}, lazy, pred))
				want := scanThenFilter(t, fs, "/data/crawl", lazy, pred)
				ctx := name + " pred=" + pred.String()
				if len(vrows) != len(want) {
					t.Fatalf("%s: vectorized %d rows, scan-then-filter %d", ctx, len(vrows), len(want))
				}
				for i := range vrows {
					for _, col := range []string{"url", "content"} {
						if !serde.ValuesEqual(crawlSchema.Field(col), vrows[i][col], want[i][col]) {
							t.Fatalf("%s: row %d column %s differs: %v vs %v", ctx, i, col, vrows[i][col], want[i][col])
						}
					}
				}
				checkReplayCounters(t, ctx, fs, "/data/crawl", pred, vst, int64(len(vrows)), 300)
				if reached := int64(300) - vst.RecordsPruned; reached > 0 && vst.RowsVectorized == 0 {
					t.Fatalf("%s: %d records reached evaluation but none were vectorized", ctx, reached)
				}
				if vst.RowsVectorized != int64(len(vrows))+vst.RecordsFiltered {
					t.Fatalf("%s: vectorized %d rows but returned %d + filtered %d",
						ctx, vst.RowsVectorized, len(vrows), vst.RecordsFiltered)
				}
			}
		}
	}
}

// TestVectorizedProbeOnlyKeyTest pins the batch key-probe fast path: a DCSL
// map column read only through one exists() test and not projected is
// answered by ProbeKeys — no map values are decoded for the filter.
func TestVectorizedProbeOnlyKeyTest(t *testing.T) {
	fs := testFS(t, 4)
	recs := loadDataset(t, fs, "/data/crawl", vecLayouts()["dcsl"], 300)
	pred := scan.KeyExists("metadata", "server")
	want := wantMatches(t, recs, pred)

	conf := predConf([]string{"url"}, false, pred)
	rows, st := scanAll(t, fs, "/data/crawl", conf)
	if len(rows) != len(want) {
		t.Fatalf("probe-only scan returned %d rows, brute force %d", len(rows), len(want))
	}
	if st.RowsVectorized == 0 {
		t.Fatal("probe-only scan did not vectorize")
	}
	// The filter decodes no map values: the only materialized values are the
	// projected url column's, one per match.
	if st.CPU.ValuesMaterialized != int64(len(rows)) {
		t.Fatalf("probe-only scan materialized %d values for %d matches", st.CPU.ValuesMaterialized, len(rows))
	}
}
