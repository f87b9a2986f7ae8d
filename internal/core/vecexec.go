package core

import (
	"fmt"
	"sync"

	"colmr/internal/colfile"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// Vectorized batch execution: the only execution path for scans with a
// predicate or an aggregate. Record groups are decoded per column into
// typed vectors and the predicate runs batch-at-a-time over selection
// bitmaps (scan.VecEval). Only selected rows are then materialized into the
// same record shape Next returns for predicate-free scans, so everything
// downstream of the reader is untouched.
//
// A batch never crosses pruneValidTo, the extent of the last zone-map
// verdict, so the logical counters (GroupsPruned, RecordsPruned,
// RecordsFiltered) are exactly those of consulting the group tier once per
// may-match region; the property tests check them against a replay of
// scan.Planner.PruneGroup over the files' group statistics and rows against
// scan-then-filter in the mapper. Primitive values land in flat vector
// storage at CostModel.VecRate, per-column decodes fan across a bounded
// goroutine pool, and a session's vec.Cache can serve a whole batch without
// decoding (or reading) anything at all.

// vecBatchRows bounds one batch. Group extents are typically smaller (the
// batch is clipped to the zone-map verdict's validity), so this matters
// only for very large groups and predicate-dense regions.
const vecBatchRows = 4096

// vecDecodeParallel bounds the per-batch decode fan-out of the solo reader.
const vecDecodeParallel = 4

// batchHost is what a colBatch needs from the reader driving it. Both the
// solo Reader and the SharedReader implement it; the interface carries the
// few points where their accounting differs.
type batchHost interface {
	// batchCursor resolves an open column cursor by name.
	batchCursor(col string) (*cursor, error)
	// batchSinks returns the CPU sink for a cursor's batch decode and the
	// TaskStats credited with its vector-cache hits. The sinks must be safe
	// for the host's decode concurrency: the solo reader hands out
	// per-cursor buckets (folded behind its fan-out barrier), the shared
	// reader decodes serially into its shared stats.
	batchSinks(c *cursor) (*sim.CPUStats, *sim.TaskStats)
	// batchVecCache returns the session vector cache (nil disables).
	batchVecCache() *vec.Cache
	// batchVecPool returns the scratch-vector pool.
	batchVecPool() *vec.Pool
	// batchProbeOnly reports whether col may be answered by a batch key
	// probe, which consumes the column's stream for the batch without
	// producing values — only safe for columns nothing else will read.
	batchProbeOnly(col string) bool
	// batchIDOnly reports whether col may be served as a dictionary-id
	// vector instead of decoded values. Decoding ids consumes the column's
	// value stream for the batch without materializing strings, so it is
	// only safe for columns every consumer compares by id — never
	// materialized, never range-compared.
	batchIDOnly(col string) bool
	// batchDictCompares credits n integer dictionary-id comparisons that
	// replaced string comparisons (sim.TaskStats.DictIdCompares).
	batchDictCompares(n int64)
}

// colVecEntry memoizes one column's decode outcome for a batch.
type colVecEntry struct {
	v *scan.Vector
	// cached marks vectors shared with the session vector cache (served
	// from it, or admitted to it): they are read-only forever and must not
	// be pooled when the batch retires.
	cached bool
	err    error
}

// idVecEntry memoizes one column's dictionary-id decode outcome for a
// batch. A nil iv with nil err means the column declined the id path for
// this batch (not dictionary-encoded here, or its value vector was already
// decoded); the predicate falls back to value comparison.
type idVecEntry struct {
	iv  *scan.IDVector
	err error
}

// colBatch is one contiguous batch of records [start, end) of the open
// split-directory, implementing scan.VecSource over the host's cursor set.
// Columns decode lazily on first use, so the predicate's short-circuit
// structure decides which columns are ever decoded for a batch.
type colBatch struct {
	host  batchHost
	dir   string
	start int64
	end   int64
	n     int

	sel  *scan.Selection // rows matching the predicate (set after VecEval)
	next int             // pop cursor for match iteration

	mu     sync.Mutex
	vecs   map[string]*colVecEntry
	idvecs map[string]*idVecEntry
}

func newColBatch(host batchHost, dir string, start, end int64) *colBatch {
	return &colBatch{
		host:   host,
		dir:    dir,
		start:  start,
		end:    end,
		n:      int(end - start),
		vecs:   make(map[string]*colVecEntry),
		idvecs: make(map[string]*idVecEntry),
	}
}

// ColVec implements scan.VecSource: the column's vector for the batch,
// decoded on first use (or served from the session vector cache).
func (b *colBatch) ColVec(col string) (*scan.Vector, error) {
	b.mu.Lock()
	e := b.vecs[col]
	b.mu.Unlock()
	if e == nil {
		e = b.decode(col)
		b.mu.Lock()
		b.vecs[col] = e
		b.mu.Unlock()
	}
	return e.v, e.err
}

// decode produces col's vector for the batch. The caller guarantees one
// decode per column per batch (prefetch fans out distinct columns; after
// its barrier, evaluation is serial).
func (b *colBatch) decode(col string) *colVecEntry {
	c, err := b.host.batchCursor(col)
	if err != nil {
		return &colVecEntry{err: err}
	}
	cpu, ts := b.host.batchSinks(c)
	cache := b.host.batchVecCache()
	key := vec.Key{Path: b.dir + "/" + col, Gen: c.hr.Generation(), Start: b.start}
	if v := cache.Get(key, b.end); v != nil {
		// The whole batch serves from memory: no read, no decode. The
		// cursor is left where it was — a later miss skips forward from
		// there, and an all-hit round never touches the stream at all.
		if ts != nil {
			ts.VecCacheHits++
			ts.DecodeSavedValues += int64(v.Len())
		}
		return &colVecEntry{v: v, cached: true}
	}
	dec, ok := c.r.(colfile.VectorDecoder)
	if !ok {
		// Every layout implements VectorDecoder; kept as a real error so a
		// future layout missing it fails loudly, not wrongly.
		return &colVecEntry{err: fmt.Errorf("core: column %q layout cannot batch-decode", col)}
	}
	kind := colfile.VecKindOf(c.schema)
	var v *scan.Vector
	if cache != nil {
		// Destined for the cache: allocate fresh, never pooled.
		v = scan.NewVector(kind, b.n)
	} else {
		v = b.host.batchVecPool().Get(kind, b.n)
	}
	if err := dec.DecodeVector(b.start, b.end, v, cpu); err != nil {
		if cache == nil {
			b.host.batchVecPool().Put(v)
		}
		return &colVecEntry{err: fmt.Errorf("core: column %q batch decode [%d,%d): %w", col, b.start, b.end, err)}
	}
	e := &colVecEntry{v: v}
	if cache.Add(key, b.end, v) {
		e.cached = true
	}
	return e
}

// IDVec implements scan.IDSource: the column's dictionary-id vector for
// the batch, decoded on first use (or served from the session vector
// cache). Returns (nil, nil) — predicate falls back to value comparison —
// unless the host cleared the column for id-only access and its stream is
// still unconsumed: decoding ids advances the same value stream a vector
// decode would, so the two paths are mutually exclusive per batch.
func (b *colBatch) IDVec(col string) (*scan.IDVector, error) {
	if !b.host.batchIDOnly(col) {
		return nil, nil
	}
	b.mu.Lock()
	e := b.idvecs[col]
	_, decoded := b.vecs[col]
	b.mu.Unlock()
	if e == nil {
		if decoded {
			// The value vector already consumed the stream (e.g. a cache hit
			// from an earlier round decoded values): answer from values.
			return nil, nil
		}
		e = b.decodeIDs(col)
		b.mu.Lock()
		b.idvecs[col] = e
		b.mu.Unlock()
	}
	return e.iv, e.err
}

// decodeIDs produces col's dictionary-id vector for the batch, or an empty
// entry when the column's layout declines (not a non-map DCSL column).
func (b *colBatch) decodeIDs(col string) *idVecEntry {
	c, err := b.host.batchCursor(col)
	if err != nil {
		return &idVecEntry{err: err}
	}
	cpu, ts := b.host.batchSinks(c)
	cache := b.host.batchVecCache()
	key := vec.Key{Path: b.dir + "/" + col, Gen: c.hr.Generation(), Start: b.start}
	if iv := cache.GetID(key, b.end); iv != nil {
		if ts != nil {
			ts.VecCacheHits++
			ts.DecodeSavedValues += int64(iv.Len())
		}
		return &idVecEntry{iv: iv}
	}
	dec, ok := c.r.(colfile.IDVectorDecoder)
	if !ok {
		return &idVecEntry{}
	}
	iv := scan.NewIDVector(b.n)
	answered, err := dec.DecodeIDVector(b.start, b.end, iv, cpu)
	if err != nil {
		return &idVecEntry{err: fmt.Errorf("core: column %q id decode [%d,%d): %w", col, b.start, b.end, err)}
	}
	if !answered {
		return &idVecEntry{}
	}
	cache.AddID(key, b.end, iv)
	return &idVecEntry{iv: iv}
}

// CountDictIDCompares implements scan.DictCompareCounter.
func (b *colBatch) CountDictIDCompares(n int64) { b.host.batchDictCompares(n) }

// KeyVec implements scan.VecSource: map-key existence for the batch,
// answered by the storage layer (the DCSL prober) when the column is safe to
// probe — read only through this one existence test, so consuming its
// stream without producing values cannot corrupt a later value access.
func (b *colBatch) KeyVec(col, key string, sel *scan.Selection) (*scan.Selection, bool, error) {
	if !b.host.batchProbeOnly(col) {
		return nil, false, nil
	}
	b.mu.Lock()
	_, decoded := b.vecs[col]
	b.mu.Unlock()
	if decoded {
		// Already decoded (e.g. a cache hit from an earlier batch shape):
		// answer from the vector instead.
		return nil, false, nil
	}
	c, err := b.host.batchCursor(col)
	if err != nil {
		return nil, false, err
	}
	kp, ok := c.r.(colfile.KeyVecProber)
	if !ok {
		return nil, false, nil
	}
	cpu, _ := b.host.batchSinks(c)
	res := sel.Clone()
	answered, err := kp.ProbeKeys(key, b.start, b.end, res, cpu)
	if err != nil {
		return nil, false, fmt.Errorf("core: column %q key probe [%d,%d): %w", col, b.start, b.end, err)
	}
	if !answered {
		return nil, false, nil
	}
	return res, true, nil
}

// vecAt returns col's decoded vector when the batch holds one, for the
// readers' materialization fast path.
func (b *colBatch) vecAt(col string) *scan.Vector {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.vecs[col]; e != nil && e.err == nil {
		return e.v
	}
	return nil
}

// contains reports whether record pos lies in the batch.
func (b *colBatch) contains(pos int64) bool {
	return pos >= b.start && pos < b.end
}

// release returns the batch's scratch vectors to the pool. Vectors shared
// with the session cache are left alone — they are read-only and live on.
func (b *colBatch) release() {
	for _, e := range b.vecs {
		if e.v != nil && !e.cached {
			b.host.batchVecPool().Put(e.v)
		}
	}
	b.vecs = nil
}

// prefetch decodes the predicate's certain columns (scan.EagerColumns)
// before evaluation, fanning them across a bounded goroutine pool when the
// host's sinks allow concurrency. Decode errors are memoized, not returned:
// evaluation surfaces them in its own deterministic order, and an error in
// a column the short-circuit order never reaches is never surfaced.
func (b *colBatch) prefetch(cols []string, parallel bool) {
	warm := func(col string) {
		e := b.decode(col)
		b.mu.Lock()
		if _, ok := b.vecs[col]; !ok {
			b.vecs[col] = e
		}
		b.mu.Unlock()
	}
	if !parallel || len(cols) < 2 {
		for _, col := range cols {
			warm(col)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, vecDecodeParallel)
	for _, col := range cols {
		wg.Add(1)
		go func(col string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			warm(col)
		}(col)
	}
	wg.Wait()
}

// --- solo Reader host + batch loop ---

// batchCursor implements batchHost.
func (r *Reader) batchCursor(col string) (*cursor, error) { return r.cursorFor(col) }

// batchSinks implements batchHost: per-cursor buckets, folded after the
// prefetch barrier (and at directory close), so parallel column decodes
// never write one counter concurrently.
func (r *Reader) batchSinks(c *cursor) (*sim.CPUStats, *sim.TaskStats) {
	return &c.phys.CPU, &c.phys
}

// batchVecCache implements batchHost.
func (r *Reader) batchVecCache() *vec.Cache { return r.vecCache }

// batchVecPool implements batchHost.
func (r *Reader) batchVecPool() *vec.Pool { return &r.vecPool }

// batchProbeOnly implements batchHost.
func (r *Reader) batchProbeOnly(col string) bool { return r.probeOnly[col] }

// batchIDOnly implements batchHost.
func (r *Reader) batchIDOnly(col string) bool { return r.idOnly[col] }

// batchDictCompares implements batchHost. VecEval runs serially after the
// prefetch barrier, so the write is unsynchronized like every other
// evaluation-phase counter.
func (r *Reader) batchDictCompares(n int64) {
	if r.stats != nil {
		r.stats.DictIdCompares += n
	}
}

// eagerCols filters the predicate's certain columns down to those the
// prefetch fan-out may decode as value vectors: an id-only column must not
// be prefetched, or its consumed stream would block the id path VecEval is
// about to take.
func (r *Reader) eagerCols() []string {
	cols := scan.EagerColumns(r.planner.Predicate())
	if len(r.idOnly) == 0 {
		return cols
	}
	out := cols[:0:0]
	for _, col := range cols {
		if !r.idOnly[col] {
			out = append(out, col)
		}
	}
	return out
}

// nextExtent runs the group tier at curPos+1 when the last verdict has run
// out. On a NoMatch proof it counts the pruned group, advances curPos past
// it and returns ok=false; otherwise it returns the next batch [pos, end),
// clipped to the verdict's extent and to vecBatchRows.
func (r *Reader) nextExtent() (pos, end int64, ok bool) {
	pos = r.curPos + 1
	if pos >= r.pruneValidTo {
		tri, end, byBloom := r.planner.PruneGroup(pos, r.total, r.groupStats)
		if tri == scan.NoMatch {
			if r.stats != nil {
				r.stats.GroupsPruned++
				r.stats.RecordsPruned += end - pos
				if byBloom {
					r.stats.BloomPruned++
				}
			}
			r.curPos = end - 1
			return 0, 0, false
		}
		r.pruneValidTo = end
	}
	return pos, min(r.pruneValidTo, r.total, pos+vecBatchRows), true
}

// vecAdvance drives the batch loop one step from curPos+1: it either prunes
// a group (advancing curPos past the proven extent), or builds
// and evaluates the next batch. On return either r.batch holds a batch with
// a non-empty selection, or curPos advanced past a pruned/empty region; the
// caller's scan loop re-checks bounds either way.
func (r *Reader) vecAdvance() error {
	pos, end, ok := r.nextExtent()
	if !ok {
		return nil
	}
	b := newColBatch(r, r.dirs[r.dirIdx], pos, end)
	b.prefetch(r.eagerCols(), true)
	// Deleted (superseded) rows are masked out of the input selection, so
	// they are neither evaluated nor counted.
	in := scan.NewSelection(b.n)
	del := r.dels.mask(in, pos, end)
	sel, err := r.planner.Predicate().VecEval(b, in)
	r.foldCursorStats()
	if err != nil {
		b.release()
		return err
	}
	if r.stats != nil {
		r.stats.VecBatches++
		r.stats.RowsVectorized += int64(b.n)
		r.stats.RecordsFiltered += int64(b.n) - del - int64(sel.Count())
	}
	if sel.Empty() {
		r.curPos = end - 1
		b.release()
		return nil
	}
	b.sel = sel
	r.batch = b
	return nil
}

// releaseBatch retires the active batch, if any.
func (r *Reader) releaseBatch() {
	if b := r.batch; b != nil {
		r.batch = nil
		b.release()
	}
}

// foldCursorStats folds the per-cursor physical buckets into the task
// stats. Called only behind barriers (after a batch's prefetch fan-out has
// joined, at directory close, at Close), where no decode goroutine is live.
func (r *Reader) foldCursorStats() {
	if r.stats == nil || !r.vectorize {
		return
	}
	for _, c := range r.cursors {
		r.stats.Add(c.phys)
		c.phys = sim.TaskStats{}
	}
}

// --- SharedReader host + batch loop ---

// batchCursor implements batchHost.
func (sr *SharedReader) batchCursor(col string) (*cursor, error) {
	c, ok := sr.byName[col]
	if !ok {
		return nil, fmt.Errorf("core: column %q is not in the shared cursor set %v", col, sr.allCols)
	}
	return c, nil
}

// batchSinks implements batchHost: the shared reader decodes serially (no
// prefetch fan-out), so batch decodes charge the shared stats directly, like
// every other physical cost of the cursor set.
func (sr *SharedReader) batchSinks(*cursor) (*sim.CPUStats, *sim.TaskStats) {
	return &sr.shared.CPU, sr.shared
}

// batchVecCache implements batchHost.
func (sr *SharedReader) batchVecCache() *vec.Cache { return sr.vecCache }

// batchVecPool implements batchHost.
func (sr *SharedReader) batchVecPool() *vec.Pool { return &sr.vecPool }

// batchProbeOnly implements batchHost.
func (sr *SharedReader) batchProbeOnly(col string) bool { return sr.probeOnly[col] }

// batchIDOnly implements batchHost.
func (sr *SharedReader) batchIDOnly(col string) bool { return sr.idOnly[col] }

// batchDictCompares implements batchHost: shared evaluation is serial, so
// the compare count lands in the shared physical stats directly.
func (sr *SharedReader) batchDictCompares(n int64) { sr.shared.DictIdCompares += n }

// vecAdvance drives the shared batch loop one step from curPos+1: union
// group-tier pruning, then batch evaluation of the next may-match extent.
// With no union predicate (an unfiltered member) nothing prunes and batches
// are vecBatchRows long.
func (sr *SharedReader) vecAdvance() error {
	pos := sr.curPos + 1
	if pos >= sr.pruneValidTo {
		tri, end, byBloom := sr.planner.PruneGroup(pos, sr.total, sr.groupStats)
		if tri == scan.NoMatch {
			sr.shared.GroupsPruned++
			sr.shared.RecordsPruned += end - pos
			if byBloom {
				sr.shared.BloomPruned++
			}
			sr.curPos = end - 1
			return nil
		}
		sr.pruneValidTo = end
	}
	end := sr.pruneValidTo
	if end > sr.total {
		end = sr.total
	}
	if m := pos + vecBatchRows; m < end {
		end = m
	}
	return sr.buildBatch(pos, end)
}

// buildBatch evaluates [start, end) for every member. Each member's solo
// replay marks the rows it must evaluate (its want bitmap — the same
// consultation positions, verdicts, and counter updates as its solo run);
// each distinct residual then runs one VecEval over the union of its
// members' wants; a member's matches are its wants intersected with its
// eval group's verdict, and a member without a residual matches its wants.
// The batch is kept when any member matched.
func (sr *SharedReader) buildBatch(start, end int64) error {
	b := newColBatch(sr, sr.dirs[sr.dirIdx], start, end)
	wants := make([]*scan.Selection, len(sr.members))
	for mi, m := range sr.members {
		w := scan.NewEmptySelection(b.n)
		for pos := start; pos < end; pos++ {
			// Superseded rows are invisible: never wanted, never evaluated,
			// never folded.
			if sr.dels.has(pos) {
				continue
			}
			if sr.memberWants(m, pos) {
				w.Set(int(pos - start))
				m.acctPos = pos + 1
			}
		}
		wants[mi] = w
	}
	// One VecEval per distinct residual, restricted to the rows some member
	// of the group wants — rows nothing wants are never evaluated (nor can
	// their values raise errors).
	groupSel := make([]*scan.Selection, len(sr.groupPred))
	for g, p := range sr.groupPred {
		if p == nil {
			continue
		}
		in := scan.NewEmptySelection(b.n)
		for mi, m := range sr.members {
			if m.evalGroup == g {
				in.Or(wants[mi])
			}
		}
		if in.Empty() {
			groupSel[g] = in
			continue
		}
		out, err := p.VecEval(b, in)
		if err != nil {
			b.release()
			return err
		}
		groupSel[g] = out
	}
	sr.shared.VecBatches++
	sr.shared.RowsVectorized += int64(b.n)
	union := scan.NewEmptySelection(b.n)
	for mi, m := range sr.members {
		match := wants[mi]
		if g := m.evalGroup; g >= 0 && groupSel[g] != nil {
			match = wants[mi].Clone()
			match.And(groupSel[g])
		}
		m.stats.RecordsFiltered += int64(wants[mi].Count() - match.Count())
		if m.aggState != nil {
			// Aggregating members fold their matches here and take no part
			// in the surfaced union — their records never materialize.
			rows, err := m.aggState.FoldBatch(match, b)
			if err != nil {
				b.release()
				return err
			}
			m.stats.AggBatches++
			m.stats.RowsAggregated += rows
			sr.memberSel[mi] = nil
			continue
		}
		sr.memberSel[mi] = match
		union.Or(match)
	}
	if union.Empty() {
		sr.curPos = end - 1
		b.release()
		return nil
	}
	b.sel = union
	sr.batch = b
	return nil
}

// releaseBatch retires the active batch, if any, and the members' match
// bitmaps with it.
func (sr *SharedReader) releaseBatch() {
	if b := sr.batch; b != nil {
		sr.batch = nil
		b.release()
	}
	for i := range sr.memberSel {
		sr.memberSel[i] = nil
	}
}
