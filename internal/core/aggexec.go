package core

import (
	"fmt"

	"colmr/internal/scan"
)

// Aggregation pushdown (the scan subsystem's fold side). With scan.Spec.Agg
// set the reader stops surfacing records entirely: DrainAggregate runs the
// split to completion and folds qualifying rows into a scan.AggState at the
// cheapest site that can answer them, keeping the exact pruning trajectory
// of a materializing scan:
//
//  1. Zone stats: when a region's zone maps already prove every row matches
//     the predicate (Planner.MatchAllGroup) and every aggregate function is
//     answerable from the region's ColStats (AggState.StatsAnswerable), the
//     whole region folds with zero bytes decoded (AggGroupsShortcut).
//  2. Vectors: every other region runs the same batch loop as a
//     materializing scan — same batch boundaries, same pruning and filter
//     counters — but the selected rows fold straight from the selection
//     bitmap and the decoded vectors (FoldBatch); no record object is
//     ever built.
//
// The logical counters stay bit-identical to a materializing scan: the
// stats shortcut fires only inside regions the group tier would judge
// MayMatch (a NoMatch region cannot be MatchAll), and a later PruneGroup
// consultation at any position inside such a region returns the same
// MayMatch verdict, so GroupsPruned / RecordsPruned / BloomPruned /
// RecordsFiltered are unchanged. RecordsProcessed stays zero — no record
// reaches a map function — which is the point.

// DrainAggregate consumes the split and returns the folded aggregate state
// (mapred.AggRecordReader). The reader must have been opened with
// scan.Spec.Agg set; Next must not be mixed with DrainAggregate.
func (r *Reader) DrainAggregate() (*scan.AggState, error) {
	if r.agg == nil {
		return nil, fmt.Errorf("core: reader has no aggregation to drain")
	}
	st := r.aggState
	for {
		if r.done {
			return st, nil
		}
		if r.curPos+1 >= r.total {
			if err := r.nextDir(); err != nil {
				return nil, err
			}
			continue
		}
		if end, ok, err := r.aggStatsShortcut(st, r.curPos+1); err != nil {
			return nil, err
		} else if ok {
			r.curPos = end - 1
			continue
		}
		if err := r.aggBatchFold(st); err != nil {
			return nil, err
		}
	}
}

// aggStatsShortcut tries the zero-decode tier at pos: a region the zone
// maps prove all-matching, whose every aggregate input column has a stats
// entry covering exactly the region, folds from those entries alone. ok
// reports whether the fold happened (end is then one past the folded
// region); a false return costs only zone-map lookups, never a byte.
func (r *Reader) aggStatsShortcut(st *scan.AggState, pos int64) (end int64, ok bool, err error) {
	if r.dels != nil {
		// A directory with superseded rows cannot fold from stats: the
		// entries describe deleted rows too.
		return 0, false, nil
	}
	all, end := r.planner.MatchAllGroup(pos, r.total, r.groupStats)
	if !all || end <= pos {
		return 0, false, nil
	}
	// Clip the region to the aggregate columns' group geometry; every
	// consulted entry must then cover exactly [pos, end) or the bounds and
	// null counts would describe rows outside the fold.
	entries := make(map[string]*scan.ColStats, len(r.aggCols))
	for _, col := range r.aggCols {
		cst, cend := r.groupStats(col, pos)
		if cst == nil || cend <= pos {
			return 0, false, nil
		}
		if cend < end {
			end = cend
		}
		entries[col] = cst
	}
	rows := end - pos
	for _, cst := range entries {
		if cst.Rows != rows {
			return 0, false, nil
		}
	}
	stats := func(col string) *scan.ColStats { return entries[col] }
	if !st.StatsAnswerable(rows, stats) {
		return 0, false, nil
	}
	// Past this point a failure is a real error, not a fallback: the
	// answerability check promised the fold.
	if err := st.FoldStats(rows, stats); err != nil {
		return 0, false, err
	}
	if r.stats != nil {
		r.stats.AggGroupsShortcut++
		r.stats.RowsAggregated += rows
	}
	return end, true, nil
}

// aggBatchFold advances the aggregate loop one step from curPos+1:
// group-tier pruning exactly as vecAdvance, then one batch whose selected
// rows fold from vectors without surfacing. With no predicate the full
// batch folds (selection all-set, no filter counters).
func (r *Reader) aggBatchFold(st *scan.AggState) error {
	pos, end, ok := r.nextExtent()
	if !ok {
		return nil
	}
	pred := r.planner.Predicate()
	b := newColBatch(r, r.dirs[r.dirIdx], pos, end)
	var sel *scan.Selection
	if pred != nil {
		b.prefetch(r.eagerCols(), true)
		in := scan.GetFullSelection(b.n)
		del := r.dels.mask(in, pos, end)
		out, err := pred.VecEval(b, in)
		scan.PutSelection(in)
		r.foldCursorStats()
		if err != nil {
			b.release()
			return err
		}
		sel = out
		if r.stats != nil {
			r.stats.VecBatches++
			r.stats.RowsVectorized += int64(b.n)
			r.stats.RecordsFiltered += int64(b.n) - del - int64(sel.Count())
		}
	} else {
		sel = scan.GetFullSelection(b.n)
		r.dels.mask(sel, pos, end)
	}
	rows, err := st.FoldBatch(sel, b)
	r.foldCursorStats()
	scan.PutSelection(sel)
	b.release()
	r.curPos = end - 1
	if err != nil {
		return err
	}
	if r.stats != nil {
		r.stats.AggBatches++
		r.stats.RowsAggregated += rows
	}
	return nil
}
