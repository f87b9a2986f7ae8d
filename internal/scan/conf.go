package scan

import "fmt"

// Spec is the typed scan specification — the format-independent query
// contract (projection + selection + materialization + task sizing) that
// travels with a job as one first-class value instead of a side channel of
// conf strings. mapred.JobConf carries a *Spec; the CIF planner and readers
// consume it directly, and the legacy Set* free functions are thin
// compatibility wrappers that populate it. The string props (ColumnsProp et
// al. in internal/core, PredicateProp/ElideProp here) remain only as the
// serialization format for string-typed inputs such as `colscan -where`:
// a prop still present fills its field only when the typed spec never set
// it (each wrapper deletes its own prop when writing the typed field).
type Spec struct {
	// Columns is the projection: the columns materialized into the records
	// handed to the map function. Empty means every column.
	Columns []string
	// Predicate is the pushdown selection; nil scans unfiltered.
	Predicate Predicate
	// Lazy selects lazy record construction (paper Section 5).
	Lazy bool
	// NoElide disables scheduler-tier split elision (and the reader's file
	// tier). The zero value — elision on — is the default, as with
	// SetElision; the switch exists so output equivalence is testable and
	// regressions bisectable.
	NoElide bool
	// NoBloom disables Bloom-filter consultation at every pruning tier
	// (scheduler, file, group, and the DCSL key prober), restoring
	// zone-map-only pruning. The zero value — blooms on — is the default.
	// Like NoElide it is a read-side switch: filters already written into
	// stats footers are simply not consulted, so outputs must be identical
	// either way (the property tests' bloom dimension).
	NoBloom bool
	// DirsPerSplit assigns this many split-directories to one map task,
	// overriding the input format's own setting when non-zero
	// (core.AutoDirsPerSplit sizes tasks from estimated selectivity).
	DirsPerSplit int
	// Agg, when set, turns the scan into an aggregation: the functions are
	// answered inside the scan — from zone stats or decoded vectors — and
	// no records reach the map function. The job's Result carries the
	// aggregate rows instead.
	Agg *Aggregate
}

// Elide reports whether scheduler-tier split elision is enabled.
func (s *Spec) Elide() bool { return !s.NoElide }

// Bloom reports whether Bloom-filter consultation is enabled.
func (s *Spec) Bloom() bool { return !s.NoBloom }

// Clone returns a copy sharing the (immutable) predicate and a fresh
// projection slice.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	out := *s
	out.Columns = append([]string(nil), s.Columns...)
	out.Agg = s.Agg.Clone()
	return &out
}

// Equal reports whether two specs describe the same scan. Predicates are
// compared by their expression serialization, the same form the prop
// round-trips through.
func (s *Spec) Equal(o *Spec) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	if (s.Predicate == nil) != (o.Predicate == nil) {
		return false
	}
	if s.Predicate != nil && s.Predicate.String() != o.Predicate.String() {
		return false
	}
	if !s.Agg.Equal(o.Agg) {
		return false
	}
	return s.Lazy == o.Lazy && s.NoElide == o.NoElide && s.NoBloom == o.NoBloom &&
		s.DirsPerSplit == o.DirsPerSplit
}

// Conf is the slice of mapred.JobConf this package needs: free-form string
// properties plus the typed scan spec. Depending on the interface rather
// than the struct keeps scan import-free below mapred, which lets the
// engine consume scan's planning vocabulary (PruneReport, Spec) without a
// cycle.
type Conf interface {
	Get(key string) string
	Set(key, value string)
	// Del removes a property so cleared settings leave no lingering keys
	// behind (empty-string values confuse conf diffing).
	Del(key string)
	// ScanSpec returns the conf's mutable typed spec, allocating it on
	// first use. Write-side only: concurrent readers must use the conf's
	// own accessor for the possibly-nil spec.
	ScanSpec() *Spec
}

// PredicateProp is the job property carrying the serialized predicate — the
// legacy side channel, interpreted by CIF (internal/core) only when the
// typed Spec carries no predicate of its own.
const PredicateProp = "scan.predicate"

// ElideProp is the job property controlling scheduler-tier split elision
// ("false" disables it; anything else, including unset, enables it). Like
// PredicateProp it is consulted only when the typed Spec leaves elision at
// its default.
const ElideProp = "scan.elide"

// SetPredicate pushes a selection predicate into CIF for a job — the
// selection analogue of core.SetColumns:
//
//	scan.SetPredicate(conf, scan.And(
//		scan.HasPrefix("url", "http://www.ibm.com"),
//		scan.Gt("fetchTime", int64(t0)),
//	))
//
// The record reader evaluates the predicate on the filter columns first,
// skips the remaining cursors past non-qualifying records, and uses
// zone-map statistics to jump whole record groups; split generation uses
// whole-file statistics to drop split-directories before tasks exist.
//
// SetPredicate is the compatibility wrapper over the typed spec: it
// populates Spec.Predicate and clears any lingering serialized prop. New
// code should prefer the builder (core.ScanDataset).
func SetPredicate(conf Conf, p Predicate) {
	conf.ScanSpec().Predicate = p
	conf.Del(PredicateProp)
}

// FromConf reads a conf's serialized predicate prop, or nil when none is
// set — the legacy fill-in consulted only when the typed Spec carries no
// predicate.
func FromConf(conf Conf) (Predicate, error) {
	expr := conf.Get(PredicateProp)
	if expr == "" {
		return nil, nil
	}
	p, err := Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("scan: invalid %s: %w", PredicateProp, err)
	}
	return p, nil
}

// SetElision enables or disables scheduler-tier split elision for a job —
// the compatibility wrapper over Spec.NoElide. Enabling (the default state)
// clears the legacy prop rather than writing a placeholder value.
func SetElision(conf Conf, on bool) {
	conf.ScanSpec().NoElide = !on
	conf.Del(ElideProp)
}

// ElisionFromConf reports whether a specless conf enables split elision
// (the default).
func ElisionFromConf(conf Conf) bool {
	return conf.Get(ElideProp) != "false"
}

// BloomProp is the job property controlling Bloom-filter consultation
// ("false" disables it; anything else, including unset, enables it).
// Like ElideProp it is consulted only when the typed Spec leaves the
// setting at its default.
const BloomProp = "scan.bloom"

// SetBloom enables or disables Bloom-filter pruning for a job — the
// compatibility wrapper over Spec.NoBloom. Enabling (the default state)
// clears the legacy prop rather than writing a placeholder value.
func SetBloom(conf Conf, on bool) {
	conf.ScanSpec().NoBloom = !on
	conf.Del(BloomProp)
}

// BloomFromConf reports whether a specless conf enables Bloom pruning
// (the default).
func BloomFromConf(conf Conf) bool {
	return conf.Get(BloomProp) != "false"
}

// AggProp is the job property carrying the serialized aggregate spec (the
// ParseAggregate form) — the legacy side channel for string-typed inputs
// such as `colscan -agg`, consulted only when the typed Spec carries no
// aggregation of its own.
const AggProp = "scan.agg"

// SetAggregate pushes an aggregation into the scan for a job — the
// compatibility wrapper over Spec.Agg. New code should prefer the builder
// (core.ScanDataset(...).Aggregate(...)).
func SetAggregate(conf Conf, a *Aggregate) {
	conf.ScanSpec().Agg = a
	conf.Del(AggProp)
}

// AggFromConf reads a conf's serialized aggregate prop, or nil when none
// is set.
func AggFromConf(conf Conf) (*Aggregate, error) {
	src := conf.Get(AggProp)
	if src == "" {
		return nil, nil
	}
	a, err := ParseAggregate(src)
	if err != nil {
		return nil, fmt.Errorf("scan: invalid %s: %w", AggProp, err)
	}
	return a, nil
}
