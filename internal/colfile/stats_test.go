package colfile

import (
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// statsSource asserts a reader exposes zone maps and returns it typed.
func statsSource(t *testing.T, r Reader, name string) StatsSource {
	t.Helper()
	src, ok := r.(StatsSource)
	if !ok {
		t.Fatalf("%s: reader %T does not implement StatsSource", name, r)
	}
	return src
}

// TestStatsFooterRoundTripInt writes a monotonically increasing int column
// in every layout and checks the recovered per-group min/max/rows.
func TestStatsFooterRoundTripInt(t *testing.T) {
	schema := serde.Int()
	const n = 437
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i * 3) })
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := statsSource(t, r, name)

		// Walk every record; each must be covered by a group whose bounds
		// contain it, and groups must tile [0, n).
		var covered int64
		for rec := int64(0); rec < n; {
			st, end := src.GroupStats(rec)
			if st == nil {
				t.Fatalf("%s: no stats for record %d", name, rec)
			}
			start := end - st.Rows
			if end <= rec || start != rec {
				t.Fatalf("%s: bad group geometry at %d: start=%d end=%d rows=%d", name, rec, start, end, st.Rows)
			}
			if !st.HasMinMax {
				t.Fatalf("%s: int group [%d,%d) missing min/max", name, start, end)
			}
			wantMin, wantMax := int32(start*3), int32((end-1)*3)
			if st.Min != wantMin || st.Max != wantMax {
				t.Errorf("%s: group [%d,%d): min/max = %v/%v, want %v/%v",
					name, start, end, st.Min, st.Max, wantMin, wantMax)
			}
			if st.Nulls != 0 {
				t.Errorf("%s: group [%d,%d): nulls = %d", name, start, end, st.Nulls)
			}
			if !st.DistinctCapped && st.Distinct != st.Rows {
				t.Errorf("%s: group [%d,%d): distinct = %d, want %d (all values unique)",
					name, start, end, st.Distinct, st.Rows)
			}
			covered += st.Rows
			rec = end
		}
		if covered != n {
			t.Errorf("%s: groups cover %d records, want %d", name, covered, n)
		}
		if st, _ := src.GroupStats(n); st != nil {
			t.Errorf("%s: stats past end should be nil", name)
		}
	}
}

// TestStatsFooterMapKeys checks the per-group key universe of map columns,
// including the DCSL layout.
func TestStatsFooterMapKeys(t *testing.T) {
	schema := mapSchema()
	const n = 120
	gen := func(i int) any {
		m := map[string]any{"always": int32(i)}
		if i < 60 {
			m["early"] = int32(i)
		} else {
			m["late"] = int32(i)
		}
		return m
	}
	for _, opts := range allLayouts() {
		opts.StatsEvery = 60
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, gen)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := statsSource(t, r, name)
		st, end := src.GroupStats(0)
		if st == nil || !st.HasKeys {
			t.Fatalf("%s: first group missing keys (%+v)", name, st)
		}
		if st.KeysCapped {
			t.Fatalf("%s: small key universe should not be capped", name)
		}
		if !st.HasKey("always") || st.HasKey("nothere") {
			t.Errorf("%s: first group keys = %v", name, st.Keys)
		}
		// Block frames may cut at different boundaries than 60; only the
		// cadence-based layouts are asserted on the early/late split.
		if opts.Layout != Block && end == 60 {
			if !st.HasKey("early") || st.HasKey("late") {
				t.Errorf("%s: first group keys = %v, want early but not late", name, st.Keys)
			}
			late, _ := src.GroupStats(60)
			if late == nil || !late.HasKey("late") || late.HasKey("early") {
				t.Errorf("%s: second group keys missing late/early split: %+v", name, late)
			}
		}
	}
}

// TestStatsDisabled checks that a negative StatsEvery yields no section
// and a nil GroupStats.
func TestStatsDisabled(t *testing.T) {
	schema := serde.Int()
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue
		}
		opts.StatsEvery = -1
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, 50, func(i int) any { return int32(i) })
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st, _ := statsSource(t, r, name).GroupStats(0); st != nil {
			t.Errorf("%s: disabled stats returned %+v", name, st)
		}
		// Values still round-trip.
		for i := 0; i < 50; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v != int32(i) {
				t.Fatalf("%s: value %d = %v", name, i, v)
			}
		}
	}
}

// TestStatsPruneIntegration drives scan predicates against file-recovered
// stats: the combination the CIF reader uses.
func TestStatsPruneIntegration(t *testing.T) {
	schema := serde.String()
	opts := Options{Layout: SkipList, Levels: []int{100, 10}, StatsEvery: 50}
	// Two sorted runs: "aaa..." prefixed then "zzz..." prefixed.
	f, _ := writeColumn(t, schema, opts, 100, func(i int) any {
		if i < 50 {
			return "aaa-" + string(rune('a'+i%26))
		}
		return "zzz-" + string(rune('a'+i%26))
	})
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := r.(StatsSource)
	statsAt := func(rec int64) scan.StatsFunc {
		return func(string) *scan.ColStats {
			st, _ := src.GroupStats(rec)
			return st
		}
	}
	if got := scan.HasPrefix("c", "zzz").Prune(statsAt(0)); got != scan.NoMatch {
		t.Errorf("prefix zzz over aaa-group = %v, want NoMatch", got)
	}
	if got := scan.HasPrefix("c", "aaa").Prune(statsAt(0)); got != scan.MayMatch {
		t.Errorf("prefix aaa over aaa-group = %v, want MayMatch", got)
	}
	if got := scan.HasPrefix("c", "aaa").Prune(statsAt(50)); got != scan.NoMatch {
		t.Errorf("prefix aaa over zzz-group = %v, want NoMatch", got)
	}
	if got := scan.Eq("c", "zzz-a").Prune(statsAt(50)); got != scan.MayMatch {
		t.Errorf("eq inside zzz-group = %v, want MayMatch", got)
	}
}

// TestStatsBytesColumn checks []byte min/max bounds survive the footer.
func TestStatsBytesColumn(t *testing.T) {
	schema := serde.Bytes()
	opts := Options{Layout: Plain, StatsEvery: 25}
	f, _ := writeColumn(t, schema, opts, 50, func(i int) any {
		return []byte{byte('a' + i%26), byte(i)}
	})
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, end := r.(StatsSource).GroupStats(0)
	if st == nil || !st.HasMinMax || end != 25 {
		t.Fatalf("bytes group stats = %+v end=%d", st, end)
	}
	if _, ok := st.Min.([]byte); !ok {
		t.Fatalf("bytes min decoded as %T", st.Min)
	}
}

// fileStatsSource asserts a reader exposes whole-file aggregates and
// returns it typed.
func fileStatsSource(t *testing.T, r Reader, name string) FileStatsSource {
	t.Helper()
	src, ok := r.(FileStatsSource)
	if !ok {
		t.Fatalf("%s: reader %T does not implement FileStatsSource", name, r)
	}
	return src
}

// TestFileStatsAggregateRoundTrip writes a monotone int column in every
// layout and checks the whole-file aggregate both through an opened reader
// and through the footer-only package entry point.
func TestFileStatsAggregateRoundTrip(t *testing.T) {
	schema := serde.Int()
	const n = 437
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i * 3) })

		check := func(st *scan.ColStats, via string) {
			if st == nil {
				t.Fatalf("%s: no aggregate via %s", name, via)
			}
			if st.Rows != n || st.Nulls != 0 {
				t.Errorf("%s via %s: rows/nulls = %d/%d, want %d/0", name, via, st.Rows, st.Nulls, n)
			}
			if !st.HasMinMax || st.Min != int32(0) || st.Max != int32((n-1)*3) {
				t.Errorf("%s via %s: min/max = %v/%v, want 0/%d", name, via, st.Min, st.Max, (n-1)*3)
			}
			if !st.DistinctCapped {
				t.Errorf("%s via %s: %d distinct values should exceed the per-group cap", name, via, n)
			}
		}
		st, err := FileStats(f.reader(), schema)
		if err != nil {
			t.Fatalf("%s: FileStats: %v", name, err)
		}
		check(st, "FileStats")

		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fileStatsSource(t, r, name).FileStats(), "reader")
	}
}

// TestFileStatsAggregateKeys checks the whole-file key universe of a DCSL
// map column: the aggregate unions the per-window universes, so a key
// absent from the union is disprovable at the file tier.
func TestFileStatsAggregateKeys(t *testing.T) {
	schema := mapSchema()
	const n = 120
	f, _ := writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}, StatsEvery: 40}, n, func(i int) any {
		m := map[string]any{"always": int32(i)}
		if i < 60 {
			m["early"] = int32(i)
		} else {
			m["late"] = int32(i)
		}
		return m
	})
	st, err := FileStats(f.reader(), schema)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || !st.HasKeys || st.KeysCapped {
		t.Fatalf("aggregate = %+v, want complete key universe", st)
	}
	for _, k := range []string{"always", "early", "late"} {
		if !st.HasKey(k) {
			t.Errorf("aggregate key universe misses %q", k)
		}
	}
	if st.HasKey("never") {
		t.Error("aggregate key universe claims a key no record has")
	}
}

// TestDCSLKeyProbe checks the DCSL reader's batch key prober, one record
// per probe, against materialized truth for every record, including a key
// outside every window dictionary.
func TestDCSLKeyProbe(t *testing.T) {
	schema := mapSchema()
	const n = 230
	gen := func(i int) any {
		m := map[string]any{}
		if i%2 == 0 {
			m["even"] = int32(i)
		}
		if i%3 == 0 {
			m["third"] = int32(i)
		}
		m["k"+string(rune('a'+i%5))] = int32(i)
		return m
	}
	f, vals := writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}}, n, gen)
	for _, key := range []string{"even", "third", "ka", "kb", "absent"} {
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		kp, ok := r.(KeyVecProber)
		if !ok {
			t.Fatalf("DCSL reader %T does not implement KeyVecProber", r)
		}
		for i := 0; i < n; i++ {
			sel := scan.NewSelection(1)
			answered, err := kp.ProbeKeys(key, int64(i), int64(i+1), sel, nil)
			if err != nil {
				t.Fatalf("record %d key %q: %v", i, key, err)
			}
			if !answered {
				t.Fatalf("record %d key %q: prober did not answer", i, key)
			}
			if _, truth := vals[i].(map[string]any)[key]; sel.Test(0) != truth {
				t.Fatalf("record %d key %q: probe = %v, want %v", i, key, sel.Test(0), truth)
			}
		}
	}
}
