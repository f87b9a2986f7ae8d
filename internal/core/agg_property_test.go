package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// Aggregation pushdown properties. The pushdown path (DrainAggregate:
// zone-stat shortcuts, batch folds over selection bitmaps, scalar
// fallback) must produce bit-for-bit the rows a brute-force fold over the
// loaded records produces, for random datasets x layouts x predicates x
// aggregate specs, with vectorization on and off and under shared batch
// execution — and its logical pruning counters must match a materializing
// scan of the same predicate exactly.

var aggPropSchema = serde.RecordOf("T",
	serde.Field{Name: "g", Type: serde.String()},
	serde.Field{Name: "a", Type: serde.Long()},
	serde.Field{Name: "b", Type: serde.Double()},
	serde.Field{Name: "s", Type: serde.String()},
)

// aggPropLoad writes a random dataset: "g" a low-cardinality group key,
// "a" a long (monotone when sorted, so zone maps are tight), "b" a double,
// "s" a low-cardinality string payload. CIF datasets carry no nulls (the
// writer requires every field); null folding is covered by the scan-level
// FoldBatch/FoldRecord property test.
func aggPropLoad(t *testing.T, fs *hdfs.FileSystem, dataset string, rng *rand.Rand, opts LoadOptions, n int, sorted bool) []*serde.GenericRecord {
	t.Helper()
	w, err := NewWriter(fs, dataset, aggPropSchema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	card := 1 + rng.Intn(5)
	recs := make([]*serde.GenericRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := serde.NewRecord(aggPropSchema)
		rec.Set("g", fmt.Sprintf("grp%d", rng.Intn(card)))
		if sorted {
			rec.Set("a", int64(i))
		} else {
			rec.Set("a", rng.Int63n(1000))
		}
		rec.Set("b", float64(rng.Intn(500))/7)
		rec.Set("s", fmt.Sprintf("v%02d", rng.Intn(40)))
		recs = append(recs, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func aggPropLayout(rng *rand.Rand) LoadOptions {
	split := int64(32 + 16*rng.Intn(4))
	switch rng.Intn(4) {
	case 0:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 16}}
	case 1:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}}
	case 2:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 4 << 10}}
	default:
		return LoadOptions{
			SplitRecords: split,
			Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{
				"g": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
				"s": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
			},
		}
	}
}

func aggPropPred(rng *rand.Rand) scan.Predicate {
	switch rng.Intn(7) {
	case 0:
		return nil
	case 1:
		return scan.Le("a", rng.Int63n(1200)-100)
	case 2:
		return scan.HasPrefix("s", "v0")
	case 3:
		return scan.Eq("g", fmt.Sprintf("grp%d", rng.Intn(6)))
	case 4:
		return scan.NotNull("b")
	case 5:
		return scan.And(scan.Gt("a", int64(50)), scan.Ne("g", "grp0"))
	default:
		return scan.Or(scan.Eq("s", "v00"), scan.IsNull("a"))
	}
}

func aggPropAggregate(t *testing.T, rng *rand.Rand) *scan.Aggregate {
	t.Helper()
	pool := []string{
		"count", "count(a)", "count(g)",
		"min(a)", "max(a)", "sum(a)",
		"min(s)", "max(s)", "min(g)",
		"sum(b)", "max(b)",
	}
	k := 1 + rng.Intn(3)
	picked := make([]string, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		picked = append(picked, pool[i])
	}
	src := strings.Join(picked, ",")
	if rng.Intn(2) == 0 {
		src += " group by g"
	}
	a, err := scan.ParseAggregate(src)
	if err != nil {
		t.Fatalf("ParseAggregate(%q): %v", src, err)
	}
	return a
}

// aggPropGold folds the in-memory records by brute force: predicate via
// per-record Eval, values via FoldRecord — the reference the pushdown must
// hit.
func aggPropGold(t *testing.T, recs []*serde.GenericRecord, pred scan.Predicate, agg *scan.Aggregate) *scan.AggState {
	t.Helper()
	st := scan.NewAggState(agg)
	for _, rec := range recs {
		ev := scan.Getter(func(col string) (any, error) { return rec.Get(col) })
		if pred != nil {
			ok, err := pred.Eval(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
		}
		if err := st.FoldRecord(ev); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// aggValEqual compares aggregate outputs; doubles use a relative tolerance
// because task-merge order reassociates float sums.
func aggValEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		if !ok {
			return false
		}
		return math.Abs(af-bf) <= 1e-9*math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
	}
	c, ok := scan.CompareValues(a, b)
	return ok && c == 0
}

func checkAggRows(t *testing.T, ctx string, got, want []scan.AggRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if !aggValEqual(got[i].Group, want[i].Group) {
			t.Fatalf("%s: group %d is %v, want %v", ctx, i, got[i].Group, want[i].Group)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%s: group %d has %d values, want %d", ctx, i, len(got[i].Values), len(want[i].Values))
		}
		for j := range got[i].Values {
			if !aggValEqual(got[i].Values[j], want[i].Values[j]) {
				t.Fatalf("%s: group %d value %d is %v (%T), want %v (%T)",
					ctx, i, j, got[i].Values[j], got[i].Values[j], want[i].Values[j], want[i].Values[j])
			}
		}
	}
}

func TestAggPushdownMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		fs := testFS(t, 4)
		n := 100 + rng.Intn(200)
		sorted := rng.Intn(2) == 0
		recs := aggPropLoad(t, fs, "/d", rng, aggPropLayout(rng), n, sorted)
		pred := aggPropPred(rng)
		agg := aggPropAggregate(t, rng)
		ctx := fmt.Sprintf("trial %d (n=%d sorted=%v pred=%v agg=%s)", trial, n, sorted, pred, agg)

		gold := aggPropGold(t, recs, pred, agg)
		res, err := mapred.Run(fs, ScanDataset("/d").Where(pred).Aggregate(agg).AggJob())
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		checkAggRows(t, ctx, res.Agg.Rows(), gold.Rows())
		st := res.Total
		if st.RecordsProcessed != 0 {
			t.Fatalf("%s: %d records materialized during aggregation", ctx, st.RecordsProcessed)
		}

		// The pruning trajectory is the predicate's, not the consumer's: a
		// materializing scan of the same predicate must report identical
		// logical counters, and both must match the statistics replay.
		conf := predConf(agg.Columns(nil), false, pred)
		conf.InputPaths = []string{"/d"}
		rows, mat := scanAll(t, fs, "/d", conf)
		if st.GroupsPruned != mat.GroupsPruned || st.RecordsPruned != mat.RecordsPruned ||
			st.BloomPruned != mat.BloomPruned || st.SplitsPruned != mat.SplitsPruned {
			t.Fatalf("%s: pruning counters diverge from materializing scan:\nagg %+v\nmat groups=%d records=%d bloom=%d splits=%d",
				ctx, st, mat.GroupsPruned, mat.RecordsPruned, mat.BloomPruned, mat.SplitsPruned)
		}
		matched := int64(len(wantMatchesSchema(t, recs, pred)))
		if int64(len(rows)) != matched {
			t.Fatalf("%s: materializing scan returned %d rows, brute force %d", ctx, len(rows), matched)
		}
		checkReplayCounters(t, ctx, fs, "/d", pred, mat, matched, int64(n))
	}
}

// TestAggSharedBatchMatchesBruteForce: aggregation jobs co-scheduled with
// record jobs in one shared batch fold per-member state off the shared
// cursor set and still match brute force.
func TestAggSharedBatchMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		fs := testFS(t, 4)
		n := 150 + rng.Intn(150)
		recs := aggPropLoad(t, fs, "/d", rng, aggPropLayout(rng), n, rng.Intn(2) == 0)

		pred1 := aggPropPred(rng)
		pred2 := aggPropPred(rng)
		agg1 := aggPropAggregate(t, rng)
		agg2 := aggPropAggregate(t, rng)
		ctx := fmt.Sprintf("trial %d (n=%d pred1=%v agg1=%s pred2=%v agg2=%s)", trial, n, pred1, agg1, pred2, agg2)

		var matched atomic.Int64 // map tasks run concurrently
		jobs := []*mapred.Job{
			ScanDataset("/d").Where(pred1).Aggregate(agg1).AggJob(),
			ScanDataset("/d").Where(pred2).Aggregate(agg2).AggJob(),
			ScanDataset("/d").Columns("s").Where(pred1).Job(
				mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { matched.Add(1); return nil })),
		}
		br, err := mapred.RunBatch(fs, jobs...)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want1 := aggPropGold(t, recs, pred1, agg1)
		want2 := aggPropGold(t, recs, pred2, agg2)
		checkAggRows(t, ctx+" job1", br.Results[0].Agg.Rows(), want1.Rows())
		checkAggRows(t, ctx+" job2", br.Results[1].Agg.Rows(), want2.Rows())
		if wantRows := int64(len(wantMatchesSchema(t, recs, pred1))); br.Results[0].Total.RowsAggregated != wantRows {
			t.Fatalf("%s: job1 aggregated %d rows, want %d", ctx, br.Results[0].Total.RowsAggregated, wantRows)
		}
		if br.Results[0].Total.RecordsProcessed != 0 || br.Results[1].Total.RecordsProcessed != 0 {
			t.Fatalf("%s: shared agg members materialized records (%d, %d)",
				ctx, br.Results[0].Total.RecordsProcessed, br.Results[1].Total.RecordsProcessed)
		}
		wantMatched := int64(len(wantMatchesSchema(t, recs, pred1)))
		if matched.Load() != wantMatched {
			t.Fatalf("%s: record member saw %d rows, want %d", ctx, matched.Load(), wantMatched)
		}
	}
}

func wantMatchesSchema(t *testing.T, recs []*serde.GenericRecord, pred scan.Predicate) []*serde.GenericRecord {
	t.Helper()
	if pred == nil {
		return recs
	}
	var out []*serde.GenericRecord
	for _, rec := range recs {
		ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, rec)
		}
	}
	return out
}

// TestAggStatsShortcutZeroDecode: on a sorted column with zone statistics
// and no predicate, COUNT/MIN/MAX are answered from the stats tier alone —
// groups take the shortcut and not a single value is deserialized or
// vector-decoded.
func TestAggStatsShortcutZeroDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fs := testFS(t, 4)
	const n = 300
	opts := LoadOptions{SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}}
	recs := aggPropLoad(t, fs, "/d", rng, opts, n, true)
	agg, err := scan.ParseAggregate("count,count(a),min(a),max(a)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapred.Run(fs, ScanDataset("/d").Aggregate(agg).AggJob())
	if err != nil {
		t.Fatal(err)
	}
	checkAggRows(t, "stats shortcut", res.Agg.Rows(), aggPropGold(t, recs, nil, agg).Rows())
	st := res.Total
	if st.AggGroupsShortcut == 0 {
		t.Error("no group took the zone-stats shortcut")
	}
	if st.RowsAggregated != n {
		t.Errorf("aggregated %d rows, want %d", st.RowsAggregated, n)
	}
	if st.CPU.ValuesMaterialized != 0 || st.CPU.VecValues != 0 {
		t.Errorf("stats-only aggregation decoded data: %d values materialized, %d vector values",
			st.CPU.ValuesMaterialized, st.CPU.VecValues)
	}
}

// TestDictIdEqualityMatchesStringEquality: equality over a DCSL string
// column runs on window dictionary ids — zero string decode for the filter
// — and agrees needle by needle, present or absent, with brute-force string
// equality, its pruning counters with the statistics replay.
func TestDictIdEqualityMatchesStringEquality(t *testing.T) {
	count, err := scan.ParseAggregate("count")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		fs := testFS(t, 4)
		n := 150 + rng.Intn(250)
		opts := LoadOptions{
			SplitRecords: int64(32 + 16*rng.Intn(3)),
			Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{
				"g": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
				"s": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
			},
		}
		recs := aggPropLoad(t, fs, "/d", rng, opts, n, false)

		needles := []string{
			fmt.Sprintf("v%02d", rng.Intn(40)), // usually present
			"zebra",                            // never present
		}
		for _, needle := range needles {
			for _, pred := range []scan.Predicate{scan.Eq("s", needle), scan.Ne("s", needle)} {
				ctx := fmt.Sprintf("trial %d pred=%v", trial, pred)
				want := int64(len(wantMatchesSchema(t, recs, pred)))

				res, err := mapred.Run(fs, ScanDataset("/d").Where(pred).Aggregate(count).AggJob())
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if rows := res.Agg.Rows(); len(rows) != 1 || !aggValEqual(rows[0].Values[0], want) {
					t.Fatalf("%s: count %v, want %d", ctx, rows, want)
				}
				idst := res.Total
				checkReplayCounters(t, ctx, fs, "/d", pred, idst, want, int64(n))
				// Rows that reach evaluation compare as ids, never as
				// strings. An absent needle is answered by the dictionary
				// probe alone — whole windows verdict without a single
				// per-row compare — so only a present needle must charge
				// DictIdCompares.
				if reached := int64(n) - idst.RecordsPruned; reached > 0 {
					if needle != "zebra" && idst.DictIdCompares == 0 {
						t.Fatalf("%s: %d rows evaluated but no dict-id compares", ctx, reached)
					}
					if idst.CPU.StringBytes != 0 {
						t.Fatalf("%s: id path decoded %d string bytes for the filter", ctx, idst.CPU.StringBytes)
					}
				}
			}
		}
	}
}
