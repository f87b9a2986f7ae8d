package scan

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Aggregation pushdown: a typed aggregate specification carried on
// scan.Spec, answered inside the scan without materializing rows. The
// fold sites, cheapest first:
//
//   - zone stats: when a group's zone map already decides the predicate
//     (MatchAll) and every function is stats-answerable, the group folds
//     from its ColStats entries — count from row counts, MIN/MAX from the
//     recorded bounds — with zero bytes decoded (FoldStats).
//   - vectors: batches that need evaluation fold straight from the
//     selection bitmap and the decoded column vectors (FoldBatch); the
//     rows never become records.
//   - records: materialized values fold one record at a time
//     (FoldRecord), identical in result, used when the input format cannot
//     push the aggregate down.
//
// All three sites produce bit-identical results: the fold order is
// commutative (count/sum additions, CompareValues min/max), so the only
// ordering that matters — the group output order — is fixed by Rows().

// AggKind names one aggregate function.
type AggKind int

// Aggregate functions. AggCount is COUNT(*): it counts selected rows and
// reads no column. AggCountCol counts non-null values of its column;
// AggMin/AggMax/AggSum/AggAvg ignore nulls, as in SQL. AggAvg derives from
// sum and non-null-count partials, so it merges across tasks exactly like
// its components (the division happens once, at output).
const (
	AggCount AggKind = iota
	AggCountCol
	AggMin
	AggMax
	AggSum
	AggAvg
)

// String returns the function name.
func (k AggKind) String() string {
	switch k {
	case AggCount, AggCountCol:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "sum"
	}
}

// AggFunc is one aggregate function application.
type AggFunc struct {
	Kind AggKind
	Col  string // empty for AggCount
}

// String renders the function in the form ParseAggregate accepts.
func (f AggFunc) String() string {
	if f.Kind == AggCount {
		return "count"
	}
	return fmt.Sprintf("%s(%s)", f.Kind, f.Col)
}

// Aggregate is the typed aggregate specification: the functions to
// compute and an optional low-cardinality grouping column.
type Aggregate struct {
	Funcs   []AggFunc
	GroupBy string // empty = one global group
}

// maxAggGroups bounds the grouping hash: GROUP BY is specified for
// low-cardinality columns, and a runaway key space should fail loudly
// rather than absorb the heap.
const maxAggGroups = 1 << 16

// String renders the spec in the form ParseAggregate accepts, e.g.
// "count,min(price) group by site".
func (a *Aggregate) String() string {
	parts := make([]string, len(a.Funcs))
	for i, f := range a.Funcs {
		parts[i] = f.String()
	}
	s := strings.Join(parts, ",")
	if a.GroupBy != "" {
		s += " group by " + a.GroupBy
	}
	return s
}

// Clone returns a deep copy.
func (a *Aggregate) Clone() *Aggregate {
	if a == nil {
		return nil
	}
	return &Aggregate{Funcs: append([]AggFunc(nil), a.Funcs...), GroupBy: a.GroupBy}
}

// Equal reports whether two specs describe the same aggregation.
func (a *Aggregate) Equal(o *Aggregate) bool {
	if a == nil || o == nil {
		return a == o
	}
	if a.GroupBy != o.GroupBy || len(a.Funcs) != len(o.Funcs) {
		return false
	}
	for i := range a.Funcs {
		if a.Funcs[i] != o.Funcs[i] {
			return false
		}
	}
	return true
}

// Validate checks the spec is well formed.
func (a *Aggregate) Validate() error {
	if a == nil {
		return nil
	}
	if len(a.Funcs) == 0 {
		return fmt.Errorf("scan: aggregate with no functions")
	}
	for _, f := range a.Funcs {
		switch f.Kind {
		case AggCount:
			if f.Col != "" {
				return fmt.Errorf("scan: count takes its column via count(col)")
			}
		case AggCountCol, AggMin, AggMax, AggSum, AggAvg:
			if f.Col == "" {
				return fmt.Errorf("scan: %s requires a column", f.Kind)
			}
		default:
			return fmt.Errorf("scan: unknown aggregate kind %d", int(f.Kind))
		}
	}
	return nil
}

// Columns appends the distinct columns the aggregation reads (function
// arguments plus the grouping column), preserving first-appearance order.
func (a *Aggregate) Columns(dst []string) []string {
	if a == nil {
		return dst
	}
	for _, f := range a.Funcs {
		if f.Col != "" {
			dst = appendColumn(dst, f.Col)
		}
	}
	if a.GroupBy != "" {
		dst = appendColumn(dst, a.GroupBy)
	}
	return dst
}

// ParseAggregate reads an aggregate spec from its string form: a
// comma-separated function list — count, count(col), min(col), max(col),
// sum(col) — optionally followed by "group by col".
func ParseAggregate(src string) (*Aggregate, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("scan: empty aggregate spec")
	}
	a := &Aggregate{}
	if i := strings.Index(s, " group by "); i >= 0 {
		a.GroupBy = strings.TrimSpace(s[i+len(" group by "):])
		if a.GroupBy == "" || strings.ContainsAny(a.GroupBy, " ,()") {
			return nil, fmt.Errorf("scan: bad group-by column %q", a.GroupBy)
		}
		s = s[:i]
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "count" {
			a.Funcs = append(a.Funcs, AggFunc{Kind: AggCount})
			continue
		}
		open := strings.IndexByte(part, '(')
		if open < 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("scan: bad aggregate function %q", part)
		}
		name, col := part[:open], strings.TrimSpace(part[open+1:len(part)-1])
		if col == "" {
			return nil, fmt.Errorf("scan: %s() requires a column", name)
		}
		var kind AggKind
		switch name {
		case "count":
			kind = AggCountCol
		case "min":
			kind = AggMin
		case "max":
			kind = AggMax
		case "sum":
			kind = AggSum
		case "avg":
			kind = AggAvg
		default:
			return nil, fmt.Errorf("scan: unknown aggregate function %q", name)
		}
		a.Funcs = append(a.Funcs, AggFunc{Kind: kind, Col: col})
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// gkey is the comparable map key for one group. Float keys store their
// bit pattern so NaN groups collapse into one key (Go map semantics would
// otherwise make every NaN insertion distinct).
type gkey struct {
	kind byte // 'n' null, 'b' bool/int, 'f' float, 's' string/bytes
	i    int64
	s    string
}

func groupKeyOf(v any) (gkey, error) {
	switch x := v.(type) {
	case nil:
		return gkey{kind: 'n'}, nil
	case bool:
		if x {
			return gkey{kind: 'b', i: 1}, nil
		}
		return gkey{kind: 'b'}, nil
	case int32:
		return gkey{kind: 'b', i: int64(x)}, nil
	case int64:
		return gkey{kind: 'b', i: x}, nil
	case float64:
		return gkey{kind: 'f', i: int64(math.Float64bits(x))}, nil
	case string:
		return gkey{kind: 's', s: x}, nil
	case []byte:
		return gkey{kind: 's', s: string(x)}, nil
	}
	return gkey{}, fmt.Errorf("scan: group by value of unsupported type %T", v)
}

// aggAcc accumulates one function over one group.
type aggAcc struct {
	count    int64
	hasVal   bool
	min, max any
	sumI     int64
	sumF     float64
	sumIsF   bool
}

// aggGroup is one group's accumulators plus the boxed group value for
// output.
type aggGroup struct {
	val  any
	accs []aggAcc
}

// AggState folds an aggregation incrementally: per batch from vectors,
// per group from zone stats, per record from materialized values, and
// across tasks via Merge. It is not goroutine-safe; each task folds its
// own state and the engine merges them.
type AggState struct {
	agg    *Aggregate
	groups map[gkey]*aggGroup
	order  []gkey // insertion order, re-sorted by Rows
	// vecScratch is FoldBatch's per-call vector table, kept on the state
	// so the steady-state batch fold loop stays allocation-free.
	vecScratch []*Vector
}

// NewAggState returns an empty fold state for the spec.
func NewAggState(a *Aggregate) *AggState {
	return &AggState{agg: a, groups: make(map[gkey]*aggGroup)}
}

// Agg returns the spec the state folds.
func (s *AggState) Agg() *Aggregate { return s.agg }

func (s *AggState) group(key gkey, val any) (*aggGroup, error) {
	g, ok := s.groups[key]
	if !ok {
		if len(s.groups) >= maxAggGroups {
			return nil, fmt.Errorf("scan: group by %q exceeds %d groups", s.agg.GroupBy, maxAggGroups)
		}
		g = &aggGroup{val: copyBoundValue(val), accs: make([]aggAcc, len(s.agg.Funcs))}
		s.groups[key] = g
		s.order = append(s.order, key)
	}
	return g, nil
}

// copyBoundValue deep-copies mutable values retained past the fold call.
func copyBoundValue(v any) any {
	if b, ok := v.([]byte); ok {
		return append([]byte(nil), b...)
	}
	return v
}

// foldValue folds one non-count value into one accumulator.
func (acc *aggAcc) foldValue(kind AggKind, col string, v any) error {
	switch kind {
	case AggCountCol:
		acc.count++
		return nil
	case AggMin, AggMax:
		if !acc.hasVal {
			acc.hasVal = true
			acc.min = copyBoundValue(v)
			return nil
		}
		c, ok := CompareValues(v, acc.min)
		if !ok {
			return fmt.Errorf("scan: cannot compare %s(%s) value %T with %T", kind, col, v, acc.min)
		}
		if (kind == AggMin && c < 0) || (kind == AggMax && c > 0) {
			acc.min = copyBoundValue(v)
		}
		return nil
	default: // AggSum, AggAvg: sum partials (avg also counts its non-nulls)
		switch x := v.(type) {
		case int32:
			acc.sumI += int64(x)
		case int64:
			acc.sumI += x
		case float64:
			acc.sumF += x
			acc.sumIsF = true
		default:
			return fmt.Errorf("scan: %s(%s) over non-numeric value %T", kind, col, v)
		}
		if kind == AggAvg {
			acc.count++
		}
		acc.hasVal = true
		return nil
	}
}

// value returns the accumulator's final value (nil for an empty MIN/MAX/
// SUM, SQL-style).
func (acc *aggAcc) value(kind AggKind) any {
	switch kind {
	case AggCount, AggCountCol:
		return acc.count
	case AggMin, AggMax:
		if !acc.hasVal {
			return nil
		}
		return acc.min
	case AggAvg:
		if !acc.hasVal {
			return nil
		}
		sum := float64(acc.sumI)
		if acc.sumIsF {
			sum = acc.sumF
		}
		return sum / float64(acc.count)
	default:
		if !acc.hasVal {
			return nil
		}
		if acc.sumIsF {
			return acc.sumF
		}
		return acc.sumI
	}
}

// FoldBatch folds every selected row of the current batch from its column
// vectors, returning the number of rows folded. Columns are resolved
// through src once per call, so the decoded-vector cache and lazy decode
// apply exactly as they do for predicate evaluation.
func (s *AggState) FoldBatch(sel *Selection, src VecSource) (int64, error) {
	if sel.Empty() {
		return 0, nil
	}
	var groupVec *Vector
	var err error
	if s.agg.GroupBy != "" {
		if groupVec, err = src.ColVec(s.agg.GroupBy); err != nil {
			return 0, err
		}
	}
	// Resolve each function's vector once; AggCount reads none.
	if cap(s.vecScratch) < len(s.agg.Funcs) {
		s.vecScratch = make([]*Vector, len(s.agg.Funcs))
	}
	vecs := s.vecScratch[:len(s.agg.Funcs)]
	for i := range vecs {
		vecs[i] = nil
	}
	for fi, f := range s.agg.Funcs {
		if f.Col == "" {
			continue
		}
		if vecs[fi], err = src.ColVec(f.Col); err != nil {
			return 0, err
		}
	}
	var rows int64
	// Resolve the group once per run of identical keys: grouped columns
	// are low-cardinality and often sorted, so the common case is one
	// lookup per batch.
	var curG *aggGroup
	var curKey gkey
	haveCur := false
	for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
		rows++
		g := curG
		if s.agg.GroupBy != "" {
			gv := groupVec.Value(i)
			key, err := groupKeyOf(gv)
			if err != nil {
				return rows, err
			}
			if !haveCur || key != curKey {
				if g, err = s.group(key, gv); err != nil {
					return rows, err
				}
				curG, curKey, haveCur = g, key, true
			} else {
				g = curG
			}
		} else {
			if !haveCur {
				if g, err = s.group(gkey{kind: 'n'}, nil); err != nil {
					return rows, err
				}
				curG, haveCur = g, true
			}
			g = curG
		}
		for fi, f := range s.agg.Funcs {
			acc := &g.accs[fi]
			if f.Kind == AggCount {
				acc.count++
				continue
			}
			v := vecs[fi]
			if v.IsNull(i) {
				continue
			}
			// count(col) needs only the null verdict; skip the boxing
			// Value() call for typed vectors (VecAny rows can still be a
			// nil value without a null bit, so they take the slow path).
			if f.Kind == AggCountCol && v.Kind != VecAny {
				acc.count++
				continue
			}
			val := v.Value(i)
			if val == nil {
				continue
			}
			if err := acc.foldValue(f.Kind, f.Col, val); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}

// FoldRecord folds one record's values — the per-record site, identical
// in result to FoldBatch over a one-row selection.
func (s *AggState) FoldRecord(ev Evaluator) error {
	var g *aggGroup
	if s.agg.GroupBy != "" {
		gv, err := ev.Value(s.agg.GroupBy)
		if err != nil {
			return err
		}
		key, err := groupKeyOf(gv)
		if err != nil {
			return err
		}
		if g, err = s.group(key, gv); err != nil {
			return err
		}
	} else {
		var err error
		if g, err = s.group(gkey{kind: 'n'}, nil); err != nil {
			return err
		}
	}
	for fi, f := range s.agg.Funcs {
		acc := &g.accs[fi]
		if f.Kind == AggCount {
			acc.count++
			continue
		}
		val, err := ev.Value(f.Col)
		if err != nil {
			return err
		}
		if val == nil {
			continue
		}
		if err := acc.foldValue(f.Kind, f.Col, val); err != nil {
			return err
		}
	}
	return nil
}

// StatsAnswerable reports whether a record group whose zone map already
// proves every row matches can be folded from its ColStats alone — the
// zero-decode path. rows is the group's row extent; every consulted
// column's stats entry must cover exactly those rows (the caller aligns
// extents). The conditions, per function:
//
//   - count: always (rows is the answer).
//   - count(col): the column's stats are present (rows - nulls).
//   - min(col)/max(col): the column records bounds (HasMinMax), or is
//     entirely null (contributes nothing). The bounds are exact values
//     present in the group, not approximations, so folding them equals
//     folding every row.
//   - sum(col): only when the column is entirely null — there is no sum
//     statistic, so any non-null row forces a decode.
//
// With GROUP BY, the grouping column must additionally be constant across
// the group (Min == Max with no nulls, or all rows null): otherwise rows
// cannot be attributed to keys without decoding.
func (s *AggState) StatsAnswerable(rows int64, stats StatsFunc) bool {
	if s.agg.GroupBy != "" {
		gst := stats(s.agg.GroupBy)
		if gst == nil || gst.Rows != rows {
			return false
		}
		switch {
		case gst.Nulls == rows:
			// Constant null key.
		case gst.Nulls == 0 && gst.HasMinMax:
			c, ok := CompareValues(gst.Min, gst.Max)
			if !ok || c != 0 {
				return false
			}
		default:
			return false
		}
	}
	for _, f := range s.agg.Funcs {
		if f.Kind == AggCount {
			continue
		}
		st := stats(f.Col)
		if st == nil || st.Rows != rows {
			return false
		}
		switch f.Kind {
		case AggCountCol:
			// rows - nulls is exact.
		case AggMin, AggMax:
			if st.Nulls != rows && !st.HasMinMax {
				return false
			}
		case AggSum, AggAvg:
			if st.Nulls != rows {
				return false
			}
		}
	}
	return true
}

// FoldStats folds a MatchAll-decided group of rows records from its zone
// stats with zero bytes decoded. The caller must have checked
// StatsAnswerable with the same arguments.
func (s *AggState) FoldStats(rows int64, stats StatsFunc) error {
	var g *aggGroup
	if s.agg.GroupBy != "" {
		gst := stats(s.agg.GroupBy)
		var gv any
		if gst.Nulls != rows {
			gv = gst.Min
		}
		key, err := groupKeyOf(gv)
		if err != nil {
			return err
		}
		if g, err = s.group(key, gv); err != nil {
			return err
		}
	} else {
		var err error
		if g, err = s.group(gkey{kind: 'n'}, nil); err != nil {
			return err
		}
	}
	for fi, f := range s.agg.Funcs {
		acc := &g.accs[fi]
		switch f.Kind {
		case AggCount:
			acc.count += rows
		case AggCountCol:
			st := stats(f.Col)
			acc.count += rows - st.Nulls
		case AggMin, AggMax:
			st := stats(f.Col)
			if st.Nulls == rows {
				continue
			}
			bound := st.Min
			if f.Kind == AggMax {
				bound = st.Max
			}
			if err := acc.foldValue(f.Kind, f.Col, bound); err != nil {
				return err
			}
		case AggSum, AggAvg:
			// All null: nothing to fold (StatsAnswerable guaranteed it).
		}
	}
	return nil
}

// Merge folds another state (over disjoint rows) into s — the cross-task
// combine. Both states must fold the same spec.
func (s *AggState) Merge(o *AggState) error {
	if o == nil {
		return nil
	}
	for _, key := range o.order {
		og := o.groups[key]
		g, err := s.group(key, og.val)
		if err != nil {
			return err
		}
		for fi, f := range s.agg.Funcs {
			acc, oacc := &g.accs[fi], &og.accs[fi]
			switch f.Kind {
			case AggCount, AggCountCol:
				acc.count += oacc.count
			case AggMin, AggMax:
				if oacc.hasVal {
					if err := acc.foldValue(f.Kind, f.Col, oacc.min); err != nil {
						return err
					}
				}
			case AggSum, AggAvg:
				if oacc.hasVal {
					acc.hasVal = true
					acc.sumI += oacc.sumI
					acc.sumF += oacc.sumF
					acc.sumIsF = acc.sumIsF || oacc.sumIsF
					acc.count += oacc.count // avg's non-null count (0 for sum)
				}
			}
		}
	}
	return nil
}

// AggRow is one output row: the group value (nil for the global group of
// an ungrouped aggregation) and one value per function.
type AggRow struct {
	Group  any
	Values []any
}

// Rows returns the aggregation's output, one row per group, ordered by
// group value (nulls first) so results are deterministic across task
// scheduling and merge order. A global aggregate (no GROUP BY) over zero
// rows still yields its one row — COUNT 0, MIN/MAX/SUM null — the SQL
// convention; an empty GROUP BY result yields no rows.
func (s *AggState) Rows() []AggRow {
	if s.agg.GroupBy == "" && len(s.groups) == 0 {
		vals := make([]any, len(s.agg.Funcs))
		for i, f := range s.agg.Funcs {
			var zero aggAcc
			vals[i] = zero.value(f.Kind)
		}
		return []AggRow{{Values: vals}}
	}
	keys := append([]gkey(nil), s.order...)
	sort.Slice(keys, func(i, j int) bool { return gkeyLess(keys[i], keys[j]) })
	out := make([]AggRow, 0, len(keys))
	for _, key := range keys {
		g := s.groups[key]
		row := AggRow{Group: g.val, Values: make([]any, len(s.agg.Funcs))}
		for fi, f := range s.agg.Funcs {
			row.Values[fi] = g.accs[fi].value(f.Kind)
		}
		out = append(out, row)
	}
	return out
}

// NumGroups returns the number of groups folded so far.
func (s *AggState) NumGroups() int { return len(s.groups) }

func gkeyLess(a, b gkey) bool {
	if a.kind != b.kind {
		// One group-by column yields one value kind, so mixed kinds can
		// only be null vs value: nulls sort first.
		return a.kind == 'n'
	}
	switch a.kind {
	case 'n':
		return false
	case 'f':
		af, bf := math.Float64frombits(uint64(a.i)), math.Float64frombits(uint64(b.i))
		c := cmpFloat(af, bf)
		return c < 0
	case 's':
		return a.s < b.s
	default:
		return a.i < b.i
	}
}
