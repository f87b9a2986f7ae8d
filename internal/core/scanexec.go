package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/scan"
)

// Selection pushdown (the scan subsystem's execution side). When a job
// carries a predicate (scan.SetPredicate), the CIF Reader drives the
// shared hierarchical planner (scan.Planner) below record materialization.
// Two of the four pruning tiers live in this reader; the scheduler tier
// runs in InputFormat.PlannedSplits before the reader exists:
//
//  1. File pruning: each split-directory's filter-column files are judged
//     by their whole-file aggregate statistics before any header is
//     parsed (Reader.pruneDirFiles); a NoMatch proof crosses the whole
//     directory touching only footers.
//  2. Group pruning: at each new record group, the planner tests the
//     predicate against the zone-map statistics of its filter columns
//     (colfile.StatsSource). A NoMatch proof advances curPos past the
//     whole group without touching any column file — the skipped records
//     are later crossed by the cursors' skip-list machinery, charging
//     skips instead of reads.
//  3. Record filtering: records in groups the zone maps cannot rule out
//     are evaluated exactly, a batch at a time over decoded filter-column
//     vectors (vecexec.go). Map-key tests on DCSL columns resolve through
//     the window dictionary (one lookup refutes a whole window) and an id
//     walk, materializing nothing. Non-qualifying records never
//     materialize the remaining projected columns.
//
// Filter columns outside the projection are opened as extra cursors; the
// record handed to the map function still carries only the projected
// schema.

// groupStats resolves one filter column's zone maps for the planner's
// group tier.
func (r *Reader) groupStats(col string, rec int64) (*scan.ColStats, int64) {
	c, err := r.cursorFor(col)
	if err != nil {
		return nil, 0
	}
	src, ok := c.r.(colfile.StatsSource)
	if !ok {
		return nil, 0
	}
	return src.GroupStats(rec)
}

// valueAt materializes cursor c's value for the record curPos points at,
// through the per-record cache shared by lazy records, predicate
// evaluation, and eager materialization: each column of each record is
// deserialized at most once, however many consumers ask.
func (r *Reader) valueAt(c *cursor) (any, error) {
	if c.cachedPos == r.curPos {
		return c.cached, nil
	}
	// A column already decoded for the active batch serves from its vector:
	// the cursor was advanced to the batch end by the decode, so the vector
	// is also the only correct source for rows inside the batch.
	if b := r.batch; b != nil && b.contains(r.curPos) {
		if v := b.vecAt(c.name); v != nil {
			val := v.Value(int(r.curPos - b.start))
			if r.stats != nil && v.Kind != scan.VecAny {
				// Boxing on serve; VecAny rows were charged at decode.
				r.stats.CPU.ValuesMaterialized++
			}
			c.cached = val
			c.cachedPos = r.curPos
			return val, nil
		}
	}
	// lastPos -> curPos: cross the records nothing asked for. Skip-list
	// layouts charge cheap skips; plain layouts degrade to walking.
	if err := c.r.SkipTo(r.curPos); err != nil {
		return nil, fmt.Errorf("core: column %q skip to %d: %w", c.name, r.curPos, err)
	}
	v, err := c.r.Value()
	if err != nil {
		return nil, fmt.Errorf("core: column %q record %d: %w", c.name, r.curPos, err)
	}
	c.cached = v
	c.cachedPos = r.curPos
	return v, nil
}
