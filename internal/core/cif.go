package core

import (
	"fmt"
	"sort"
	"strings"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// SetColumns pushes a column projection into CIF for a job, the analogue of
//
//	ColumnInputFormat.setColumns(job, "url, metadata");
//
// from Section 4.2. Only the named columns' files will be opened.
//
// SetColumns is the compatibility wrapper over the typed scan spec: it
// populates Spec.Columns and clears any lingering serialized prop. New code
// should prefer the builder (ScanDataset).
func SetColumns(conf *mapred.JobConf, columns ...string) {
	conf.ScanSpec().Columns = append([]string(nil), columns...)
	conf.Del(ColumnsProp)
}

// SetLazy selects lazy record construction for a job (Section 5) — the
// compatibility wrapper over Spec.Lazy.
func SetLazy(conf *mapred.JobConf, lazy bool) {
	conf.ScanSpec().Lazy = lazy
	conf.Del(LazyProp)
}

// resolveSpec returns a job's effective scan spec: the typed spec's fields
// are authoritative, and leftover legacy string props fill only the fields
// never touched through the typed API. Every wrapper deletes its own prop
// when it writes the typed field, so a prop still present was set by a
// string-side caller (colscan -where style) and keeps working even after
// some other setting went typed — calling SetLazy must not silently drop a
// predicate that arrived as a serialized prop. Downstream of here nothing
// re-parses props.
func resolveSpec(conf *mapred.JobConf) (scan.Spec, error) {
	var spec scan.Spec
	if conf.Scan != nil {
		spec = *conf.Scan
	}
	if len(spec.Columns) == 0 {
		spec.Columns = propColumns(conf)
	}
	if spec.Predicate == nil {
		pred, err := scan.FromConf(conf)
		if err != nil {
			return spec, err
		}
		spec.Predicate = pred
	}
	if !spec.Lazy {
		spec.Lazy = conf.Get(LazyProp) == "true"
	}
	if !spec.NoElide {
		spec.NoElide = !scan.ElisionFromConf(conf)
	}
	if !spec.NoBloom {
		spec.NoBloom = !scan.BloomFromConf(conf)
	}
	if spec.Agg == nil {
		agg, err := scan.AggFromConf(conf)
		if err != nil {
			return spec, err
		}
		spec.Agg = agg
	}
	if err := spec.Agg.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// Split is a CIF split: one or more whole split-directories.
type Split struct {
	Dirs []string
	// Dels holds each directory's delete-file path, parallel to Dirs (""
	// or a short slice means no deletes — hand-built splits over
	// bulk-loaded data leave it nil). Captured at planning time from one
	// manifest snapshot, so the reader never re-reads the manifest.
	Dels []string
	// Columns is the projection captured at split-generation time, used
	// for locality ranking (only projected files matter).
	Columns []string
	// Judged records that the scheduler tier already tested every
	// directory in this split against the job's predicate (elision was
	// on). The reader then skips its own file pruning tier — the same
	// planner over the same aggregates cannot reach a different verdict —
	// so hand-built splits keep the reader-side defense while planned
	// ones avoid re-reading stats sections that were just consulted.
	Judged bool
}

// String implements mapred.Split.
func (s *Split) String() string { return strings.Join(s.Dirs, ",") }

// Hosts implements mapred.Split: nodes are ranked by how many of the
// split's (projected) column-file bytes they hold locally. With the column
// placement policy installed, the top candidates hold every block of every
// file.
func (s *Split) Hosts(fs *hdfs.FileSystem) []hdfs.NodeID {
	local := map[hdfs.NodeID]int64{}
	for _, dir := range s.Dirs {
		for _, p := range s.files(fs, dir) {
			locs, err := fs.BlockLocations(p)
			if err != nil {
				continue
			}
			size := fs.TotalSize(p)
			nblocks := int64(len(locs))
			if nblocks == 0 {
				continue
			}
			per := size / nblocks
			for _, nodes := range locs {
				for _, n := range nodes {
					local[n] += per
				}
			}
		}
	}
	out := make([]hdfs.NodeID, 0, len(local))
	for n := range local {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if local[out[i]] != local[out[j]] {
			return local[out[i]] > local[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// files returns the column-file paths the split will read in dir.
func (s *Split) files(fs *hdfs.FileSystem, dir string) []string {
	if len(s.Columns) > 0 {
		out := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			out[i] = dir + "/" + c
		}
		return out
	}
	infos, err := fs.List(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, fi := range infos {
		if !fi.IsDir && !strings.HasPrefix(fi.Name(), "_") {
			// "_"-prefixed files are metadata (schema, deletes), not columns.
			out = append(out, fi.Path)
		}
	}
	return out
}

// AutoDirsPerSplit, as InputFormat.DirsPerSplit, sizes splits from
// estimated predicate selectivity instead of a fixed constant: the
// scheduler tier already reads each surviving directory's whole-file
// aggregates, so the expected qualifying rows are known before any task
// exists, and highly selective scans merge many directories into one task
// rather than scheduling a task per directory that each return a handful
// of records.
const AutoDirsPerSplit = -1

// InputFormat is CIF, the ColumnInputFormat.
type InputFormat struct {
	// DirsPerSplit assigns this many split-directories to one map task
	// (Section 4.2: "CIF can actually assign one or more split-directories
	// to a single split"). Default 1; AutoDirsPerSplit sizes tasks from
	// estimated selectivity.
	DirsPerSplit int
}

// Splits implements mapred.InputFormat. The report-free interface cannot
// hand its caller the elided splits' accounting, so elision is reserved
// for PlannedSplits (the engine's path): Splits callers get every
// split-directory and rely on the reader-side tiers, keeping their
// aggregated TaskStats sums complete.
func (f *InputFormat) Splits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
	splits, _, err := f.plannedSplits(fs, conf, false)
	return splits, err
}

// PlannedSplits implements mapred.PlannedInputFormat: split-directory
// listing plus the scan planner's scheduler tier. When the job carries a
// predicate (and scan.SetElision has not disabled it), each
// split-directory's filter-column files are judged by their whole-file
// aggregate statistics — read from footers, never data — and directories
// proven irrelevant are dropped before a map task exists for them. This is
// the PowerDrill chunk-skip lifted to the scheduling unit the paper built
// CIF around.
func (f *InputFormat) PlannedSplits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, scan.PruneReport, error) {
	return f.plannedSplits(fs, conf, true)
}

func (f *InputFormat) plannedSplits(fs *hdfs.FileSystem, conf *mapred.JobConf, allowElide bool) ([]mapred.Split, scan.PruneReport, error) {
	plan, err := f.planDirs(fs, conf, allowElide, nil)
	if err != nil {
		return nil, plan.report, err
	}
	var out []mapred.Split
	for _, ds := range plan.datasets {
		per := f.splitSize(fs, plan.dps, plan.pred, plan.bloom, ds.kept)
		for i := 0; i < len(ds.kept); i += per {
			j := i + per
			if j > len(ds.kept) {
				j = len(ds.kept)
			}
			out = append(out, &Split{Dirs: ds.kept[i:j], Dels: ds.keptDels[i:j], Columns: plan.columns, Judged: plan.elide})
		}
	}
	return out, plan.report, nil
}

// dirPlan is one job's split-directory planning outcome: the directories
// that survived the scheduler tier, per dataset, plus what split assembly
// and shared-scan co-scheduling need from the planning pass.
type dirPlan struct {
	datasets []datasetDirs
	columns  []string // locality columns: projection plus filter columns
	pred     scan.Predicate
	elide    bool
	bloom    bool // Bloom consultation (pruning and sizing) enabled
	dps      int  // resolved directories-per-split (spec overrides format)
	report   scan.PruneReport
}

// datasetDirs is one input dataset's directory listing: all
// split-directories in scan order (with their delete files, parallel), and
// the subset the scheduler kept.
type datasetDirs struct {
	path     string
	all      []string
	allDels  []string
	kept     []string
	keptDels []string
}

// planDirs runs split-directory listing and the scheduler pruning tier for
// one job — everything plannedSplits does short of chunking directories
// into splits. SharedSplits reuses it per member job, which is what makes
// per-job elision accounting in a batch identical to a solo run; layouts,
// when non-nil, pins every member to one layout snapshot per dataset so a
// manifest commit cannot land between their planning passes.
func (f *InputFormat) planDirs(fs *hdfs.FileSystem, conf *mapred.JobConf, allowElide bool, layouts map[string]dsLayout) (dirPlan, error) {
	var plan dirPlan
	spec, err := resolveSpec(conf)
	if err != nil {
		return plan, err
	}
	columns := spec.Columns
	pred := spec.Predicate
	planner := scan.NewPlanner(pred)
	planner.SetBloom(spec.Bloom())
	// Locality ranks by the files a map task will actually open: the
	// projection plus any filter-only predicate columns (Columns dedups
	// against the slice it extends). An aggregation narrows an empty
	// projection to its own columns and widens a set one with them — the
	// reader opens exactly that set.
	if spec.Agg != nil && len(columns) == 0 {
		columns = spec.Agg.Columns(nil)
	} else if spec.Agg != nil {
		columns = spec.Agg.Columns(append([]string(nil), columns...))
	}
	if pred != nil && len(columns) > 0 {
		columns = pred.Columns(append([]string(nil), columns...))
	}
	plan.pred = pred
	plan.columns = columns
	plan.bloom = spec.Bloom()
	plan.dps = f.dirsPerSplit(spec)
	plan.report = scan.PruneReport{
		Columns:    planner.FilterColumns(),
		Vectorized: pred != nil,
	}
	plan.elide = allowElide && pred != nil && spec.Elide()
	for _, dataset := range conf.InputPaths {
		layout, err := layoutCached(fs, dataset, layouts)
		if err != nil {
			return plan, err
		}
		dirs, dels := layout.dirs, layout.dels
		plan.report.SplitsTotal += len(dirs)
		kept, keptDels := dirs, dels
		if plan.elide {
			kept = make([]string, 0, len(dirs))
			keptDels = make([]string, 0, len(dirs))
			for i, dir := range dirs {
				if pruneSplitDir(fs, dir, planner, &plan.report) {
					plan.report.SplitsPruned++
					continue
				}
				kept = append(kept, dir)
				keptDels = append(keptDels, dels[i])
			}
		}
		plan.datasets = append(plan.datasets, datasetDirs{path: dataset, all: dirs, allDels: dels, kept: kept, keptDels: keptDels})
	}
	return plan, nil
}

// dirsPerSplit resolves the directories-per-split setting for one job: the
// spec's value when set, else the format's own field.
func (f *InputFormat) dirsPerSplit(spec scan.Spec) int {
	if spec.DirsPerSplit != 0 {
		return spec.DirsPerSplit
	}
	return f.DirsPerSplit
}

// splitSize resolves the directories-per-split for one run of directories:
// the configured constant, or the selectivity-estimated size in auto mode.
func (f *InputFormat) splitSize(fs *hdfs.FileSystem, dps int, pred scan.Predicate, bloom bool, dirs []string) int {
	if dps == AutoDirsPerSplit {
		return autoDirsPerSplit(fs, pred, bloom, dirs)
	}
	if dps < 1 {
		return 1
	}
	return dps
}

// autoDirsPerSplit sizes splits so each map task covers roughly one
// split-directory's worth of *qualifying* work: estimated matches per
// directory shrink with selectivity, so the directories-per-task ratio
// grows as rows/matches, clamped to the surviving run. Estimation failure
// (no statistics, unreadable footers) falls back to the constant default —
// sizing is a costing decision, never a correctness one.
func autoDirsPerSplit(fs *hdfs.FileSystem, pred scan.Predicate, bloom bool, dirs []string) int {
	if pred == nil || len(dirs) < 2 {
		return 1
	}
	var rows, matches float64
	for _, dir := range dirs {
		r, est, ok := estimateDirMatches(fs, dir, pred, bloom)
		if !ok {
			return 1
		}
		rows += r
		matches += est
	}
	if rows <= 0 {
		return 1
	}
	if matches < 1 {
		matches = 1
	}
	per := int(rows / matches)
	if per < 1 {
		per = 1
	}
	if per > len(dirs) {
		per = len(dirs)
	}
	return per
}

// estimateDirMatches estimates one split-directory's row count and
// qualifying rows from whole-file footer statistics. Sizing is a costing
// phase, not a pruning one: its footer reads are uncharged metadata (and
// not counted in PruneReport.FilesChecked, which reports the scheduler
// tier's consultations).
func estimateDirMatches(fs *hdfs.FileSystem, dir string, pred scan.Predicate, bloom bool) (rows, est float64, ok bool) {
	schema, err := readSplitSchema(fs, dir)
	if err != nil {
		return 0, 0, false
	}
	stats, recordCount := dirStatsSource(fs, dir, schema, nil)
	var maxRows int64
	wrapped := func(col string) *scan.ColStats {
		st := stats(col)
		if st != nil && st.Rows > maxRows {
			maxRows = st.Rows
		}
		return st
	}
	view := scan.StatsFunc(wrapped)
	if !bloom {
		view = scan.StripBloom(view)
	}
	frac := scan.EstimateFraction(pred, view)
	if maxRows == 0 {
		// The estimate consulted no statistics; count records directly from
		// any column's footer so the row total stays real.
		if maxRows = recordCount(); maxRows == 0 {
			return 0, 0, false
		}
	}
	return float64(maxRows), frac * float64(maxRows), true
}

// dirStatsSource returns a cached whole-file statistics resolver over dir's
// column footers, plus a record-count fallback (any column's footer can
// count the directory's records). The optional onRead observes each footer
// actually consulted. Every failure mode (missing schema handled by the
// caller, missing file, corrupt stats) degrades to "no statistics", never
// to an error: real I/O errors surface in the task that opens the
// directory, not in planning.
func dirStatsSource(fs *hdfs.FileSystem, dir string, schema *serde.Schema, onRead func()) (scan.StatsFunc, func() int64) {
	cache := make(map[string]*scan.ColStats)
	stats := func(col string) *scan.ColStats {
		if st, ok := cache[col]; ok {
			return st
		}
		var st *scan.ColStats
		if cs := schema.Field(col); cs != nil {
			if hr, err := fs.Open(dir+"/"+col, hdfs.AnyNode); err == nil {
				if onRead != nil {
					onRead()
				}
				st, _ = colfile.FileStats(hr, cs)
				hr.Close()
			}
		}
		cache[col] = st
		return st
	}
	recordCount := func() int64 {
		if len(schema.Fields) == 0 {
			return 0
		}
		hr, err := fs.Open(dir+"/"+schema.Fields[0].Name, hdfs.AnyNode)
		if err != nil {
			return 0
		}
		defer hr.Close()
		n, _ := colfile.RecordCount(hr)
		return n
	}
	return stats, recordCount
}

// pruneSplitDir decides the scheduler tier for one split-directory. Filter
// columns resolve lazily, so only the files the predicate's Prune
// traversal actually consults cost a footer read. A directory the planner
// cannot judge is scheduled. The record-count fallback covers proofs that
// consulted no statistics (a constant-false predicate): the elided records
// still need accounting.
func pruneSplitDir(fs *hdfs.FileSystem, dir string, planner *scan.Planner, report *scan.PruneReport) bool {
	schema, err := readSplitSchema(fs, dir)
	if err != nil {
		return false
	}
	stats, recordCount := dirStatsSource(fs, dir, schema, func() { report.FilesChecked++ })
	pruned, rows := planner.PruneFileRows(stats, recordCount)
	if pruned {
		report.RecordsPruned += rows
	}
	return pruned
}

// propColumns parses a specless conf's legacy projection prop.
func propColumns(conf *mapred.JobConf) []string {
	raw := strings.TrimSpace(conf.Get(ColumnsProp))
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Open implements mapred.InputFormat.
func (f *InputFormat) Open(fs *hdfs.FileSystem, conf *mapred.JobConf, split mapred.Split, node hdfs.NodeID, stats *sim.TaskStats) (mapred.RecordReader, error) {
	csplit, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("core: unexpected split type %T", split)
	}
	if len(csplit.Dirs) == 0 {
		return nil, fmt.Errorf("core: empty split")
	}
	spec, err := resolveSpec(conf)
	if err != nil {
		return nil, err
	}
	columns := spec.Columns
	if len(columns) == 0 && spec.Agg == nil {
		columns = csplit.Columns
	}
	// The reader's file tier runs only for splits the scheduler has not
	// already judged (and not at all when elision is disabled).
	fileTier := spec.Elide() && !csplit.Judged
	return newReader(fs, csplit.Dirs, csplit.Dels, columns, &spec, fileTier, conf.Cache, conf.VecCache, node, stats)
}

// Reader iterates the records of a CIF split. It is also usable directly
// (outside MapReduce) for scans. With a predicate set it returns only
// qualifying records (see scanexec.go).
type Reader struct {
	fs    *hdfs.FileSystem
	node  hdfs.NodeID
	stats *sim.TaskStats
	lazy  bool
	// elide enables the file pruning tier: on unless scan.SetElision
	// disabled it or the scheduler already judged this split's
	// directories. The group and value tiers run whenever a predicate is
	// set.
	elide bool
	// noBloom mirrors scan.Spec.NoBloom into the column readers, whose
	// DCSL key prober consults group Bloom filters on its own (the
	// planner's tiers carry the setting themselves).
	noBloom bool
	// planner drives the conservative pruning tiers (file and group) and
	// owns the predicate; it shares one implementation with the split
	// scheduler (internal/scan).
	planner *scan.Planner
	// cache is the session's cross-batch scan cache (nil outside a caching
	// Session); attached to every column-file stream this reader opens.
	cache *hdfs.ScanCache
	// vectorize marks a scan with a predicate or an aggregate: those run
	// batch-at-a-time (vecexec.go, aggexec.go). Predicate-free projection
	// scans stay record-at-a-time, the lazy-record path.
	vectorize bool
	// vecCache is the session's decoded-vector cache (nil disables);
	// vecPool recycles batch scratch vectors.
	vecCache *vec.Cache
	vecPool  vec.Pool
	// probeOnly marks filter columns safe for batch key probing: read
	// through exactly one exists() test and not projected, so consuming
	// their stream without producing values is safe.
	probeOnly map[string]bool
	// idOnly marks filter columns safe for dictionary-id evaluation: every
	// use is an equality/inequality or null test, and the column is neither
	// projected nor aggregated, so decoding its id vector (which consumes
	// the stream without producing values) cannot starve a later value
	// access.
	idOnly map[string]bool
	// batch is the active evaluated batch (nil between batches).
	batch *colBatch

	// agg, when set, turns the scan into an aggregation: DrainAggregate
	// folds qualifying rows into aggState and Next is never used. aggCols
	// are the aggregate's input columns (function arguments + group-by).
	agg      *scan.Aggregate
	aggState *scan.AggState
	aggCols  []string

	schema  *serde.Schema // full dataset schema
	proj    *serde.Schema // projected record schema
	columns []string      // projected columns (cursor prefix)
	allCols []string      // projected plus filter-only predicate columns

	dirs []string
	// delFiles is each directory's delete-file path, parallel to dirs (nil
	// for bulk-loaded data); dels is the open directory's loaded delete set
	// (nil when it has none). Deleted ordinals are superseded recrawl rows:
	// they are skipped before predicate evaluation and counted nowhere.
	delFiles []string
	dels     *delSet
	dirIdx   int
	cursors  []*cursor
	byName   map[string]*cursor
	total    int64 // records in the open split-directory
	curPos   int64 // index of the record most recently returned by Next
	done     bool
	// pruneValidTo bounds the records covered by the last MayMatch
	// zone-map verdict; pruning re-runs only once curPos crosses it.
	pruneValidTo int64

	lrec *LazyRecord
	// lastCounted/lastCountedDir track the most recent record counted as
	// materialized in lazy mode (first Get per record increments the
	// counter once).
	lastCounted    int64
	lastCountedDir int
}

// cursor is one column's file reader plus the per-record value cache that
// makes repeated Get calls on the same record free.
type cursor struct {
	name      string
	schema    *serde.Schema
	hr        *hdfs.FileReader
	r         colfile.Reader
	cached    any
	cachedPos int64
	// phys is the cursor's physical accounting bucket, used while
	// vectorizing so parallel per-column decodes never share a counter;
	// Reader.foldCursorStats folds it behind the fan-out barriers.
	phys sim.TaskStats
}

func newReader(fs *hdfs.FileSystem, dirs, dels []string, columns []string, spec *scan.Spec, fileTier bool, cache *hdfs.ScanCache, vcache *vec.Cache, node hdfs.NodeID, stats *sim.TaskStats) (*Reader, error) {
	schema, err := readSplitSchema(fs, dirs[0])
	if err != nil {
		return nil, err
	}
	pred, agg := spec.Predicate, spec.Agg
	// proxyOnly marks a projection invented for a pure COUNT: the column
	// exists to pace the cursor and count rows, its values are never read,
	// so it must not disqualify dictionary-id evaluation below.
	proxyOnly := false
	if agg != nil && len(columns) == 0 {
		// An aggregation with no explicit projection reads only its own
		// columns; a pure COUNT reads none, so any one column (the
		// narrowest proxy for the record count) stands in.
		if columns = agg.Columns(nil); len(columns) == 0 {
			proxyOnly = true
			if fc := scan.NewPlanner(pred).FilterColumns(); len(fc) > 0 {
				columns = fc[:1]
			} else if len(schema.Fields) > 0 {
				columns = []string{schema.Fields[0].Name}
			}
		}
	}
	proj := schema
	if len(columns) > 0 {
		if proj, err = schema.Project(columns...); err != nil {
			return nil, err
		}
	} else {
		columns = schema.FieldNames()
	}
	// Filter and aggregate columns the projection does not cover are opened
	// as extra cursors after the projected ones; they feed predicate
	// evaluation and aggregate folding but never appear in a returned
	// record. Columns dedups against the slice it extends.
	allCols := append([]string(nil), columns...)
	if pred != nil {
		for _, col := range pred.Columns(nil) {
			if schema.Field(col) == nil {
				return nil, fmt.Errorf("core: predicate references unknown column %q", col)
			}
		}
		allCols = pred.Columns(allCols)
	}
	if agg != nil {
		for _, col := range agg.Columns(nil) {
			if schema.Field(col) == nil {
				return nil, fmt.Errorf("core: aggregate references unknown column %q", col)
			}
		}
		allCols = agg.Columns(allCols)
	}
	r := &Reader{
		fs:             fs,
		node:           node,
		stats:          stats,
		lazy:           spec.Lazy,
		elide:          fileTier,
		noBloom:        !spec.Bloom(),
		planner:        scan.NewPlanner(pred),
		cache:          cache,
		vectorize:      pred != nil || agg != nil,
		vecCache:       vcache,
		schema:         schema,
		proj:           proj,
		columns:        columns,
		allCols:        allCols,
		agg:            agg,
		dirs:           dirs,
		delFiles:       dels,
		dirIdx:         -1,
		lastCounted:    -1,
		lastCountedDir: -1,
	}
	r.planner.SetBloom(spec.Bloom())
	if agg != nil {
		r.aggState = scan.NewAggState(agg)
		r.aggCols = agg.Columns(nil)
	}
	if r.vectorize {
		r.probeOnly = make(map[string]bool)
		for _, col := range scan.ProbeOnlyColumns(pred) {
			r.probeOnly[col] = true
		}
		if !proxyOnly {
			for _, col := range columns {
				delete(r.probeOnly, col)
			}
		}
		// Dictionary-id evaluation: answerable columns nothing else reads
		// by value. Projected and aggregated columns decode value vectors,
		// so they are excluded.
		r.idOnly = make(map[string]bool)
		for _, col := range scan.IDOnlyColumns(pred) {
			r.idOnly[col] = true
		}
		if !proxyOnly {
			for _, col := range columns {
				delete(r.idOnly, col)
			}
		}
		for _, col := range r.aggCols {
			delete(r.idOnly, col)
		}
	}
	r.lrec = &LazyRecord{reader: r}
	if err := r.nextDir(); err != nil {
		return nil, err
	}
	return r, nil
}

// nextDir closes the current split-directory's cursors and opens the next
// one the planner's file tier cannot disprove. Directories whose
// filter-column aggregates prove NoMatch are crossed without building any
// group index or reading any data byte — only footers and stats sections
// (uncharged metadata) are touched.
func (r *Reader) nextDir() error {
	for {
		r.releaseBatch()
		r.foldCursorStats()
		for _, c := range r.cursors {
			c.hr.Close()
		}
		r.cursors = nil
		r.byName = nil
		r.dirIdx++
		if r.dirIdx >= len(r.dirs) {
			r.done = true
			return nil
		}
		dir := r.dirs[r.dirIdx]
		if r.dirIdx > 0 {
			// Subsequent directories must agree on the schema.
			s, err := readSplitSchema(r.fs, dir)
			if err != nil {
				return err
			}
			if !s.Equal(r.schema) {
				return fmt.Errorf("core: split-directory %s schema differs from %s", dir, r.dirs[0])
			}
		}
		pruned, err := r.openDir(dir)
		if err != nil {
			return err
		}
		if pruned {
			continue
		}
		if r.dels, err = loadDelSet(r.fs, delFileAt(r.delFiles, r.dirIdx)); err != nil {
			return err
		}
		if r.stats != nil && isFreshPartition(dir) {
			r.stats.FreshPartitionsScanned++
		}
		r.curPos = -1
		r.pruneValidTo = 0
		return nil
	}
}

// openDir opens dir's column files and builds cursors, unless the file
// pruning tier proves the directory irrelevant first (pruned=true, no
// cursors left open).
func (r *Reader) openDir(dir string) (pruned bool, err error) {
	var cpu *sim.CPUStats
	if r.stats != nil {
		cpu = &r.stats.CPU
	}
	selective := r.planner.Predicate() != nil
	ropts, collide := dirCursorOptions(r.fs, len(r.allCols), selective)
	ropts.NoBloom = r.noBloom
	files := make([]*hdfs.FileReader, 0, len(r.allCols))
	closeAll := func() {
		for _, hr := range files {
			hr.Close()
		}
	}
	for _, col := range r.allCols {
		hr, err := r.fs.Open(dir+"/"+col, r.node)
		if err != nil {
			closeAll()
			return false, fmt.Errorf("core: opening column %q: %w", col, err)
		}
		files = append(files, hr)
	}
	// File tier: consult the filter columns' whole-file aggregates before
	// any reader parses a header or charges a byte. Disabled together with
	// scheduler elision (scan.SetElision), which restores the
	// group-tier-only baseline for comparison.
	if selective && r.elide && r.pruneDirFiles(files) {
		closeAll()
		return true, nil
	}
	for i, col := range r.allCols {
		hr := files[i]
		c := &cursor{name: col, schema: r.schema.Field(col), hr: hr, cachedPos: -1}
		if r.vectorize && r.stats != nil {
			// Per-cursor physical buckets: batch decodes fan per-column
			// work across goroutines, so each stream charges its own
			// counters (foldCursorStats folds them behind the barriers).
			hr.SetStats(&c.phys.IO)
			if r.cache != nil {
				hr.SetCache(r.cache, &c.phys)
			}
		} else {
			if r.stats != nil {
				hr.SetStats(&r.stats.IO)
			}
			if r.cache != nil {
				hr.SetCache(r.cache, r.stats)
			}
		}
		opts := ropts
		if collide > 0 {
			opts.OnRefill = func(n, cur int) {
				hr.ChargeInterleaved(int64(float64(n)*collide*float64(sim.ReadaheadBytes)/float64(cur) + 0.5))
			}
		}
		cr, err := colfile.NewReaderOpts(hr, r.schema.Field(col), opts, cpu)
		if err != nil {
			closeAll()
			return false, fmt.Errorf("core: column %q: %w", col, err)
		}
		c.r = cr
		r.cursors = append(r.cursors, c)
	}
	r.byName = make(map[string]*cursor, len(r.cursors))
	for _, c := range r.cursors {
		r.byName[c.name] = c
	}
	r.total = r.cursors[0].r.Total()
	for _, c := range r.cursors {
		if c.r.Total() != r.total {
			return false, fmt.Errorf("core: column %q has %d records, %q has %d", c.name, c.r.Total(), r.cursors[0].name, r.total)
		}
	}
	return false, nil
}

// pruneDirFiles decides the file tier for the already-opened (but not yet
// parsed) column files: their whole-file aggregates are read from footers
// and handed to the planner. On a NoMatch proof the pruned records and
// skipped files are counted; the split scheduler usually elides such
// directories first, but the reader tier still fires when elision is off,
// when DirsPerSplit groups directories, and for direct Reader use.
func (r *Reader) pruneDirFiles(files []*hdfs.FileReader) bool {
	stats := func(col string) *scan.ColStats {
		for i, name := range r.allCols {
			if name != col {
				continue
			}
			st, err := colfile.FileStats(files[i], r.schema.Field(col))
			if err != nil {
				return nil
			}
			return st
		}
		return nil
	}
	recordCount := func() int64 {
		if len(files) == 0 {
			return 0
		}
		n, _ := colfile.RecordCount(files[0])
		return n
	}
	pruned, rows := r.planner.PruneFileRows(stats, recordCount)
	if !pruned {
		return false
	}
	if r.stats != nil {
		r.stats.FilesPruned += int64(len(files))
		r.stats.RecordsPruned += rows
	}
	return true
}

// Next implements mapred.RecordReader. In lazy mode the returned Record is
// reused across calls (like Hadoop Writables): use it before the next call.
// With a predicate set, non-qualifying records are crossed inside this
// loop: whole groups by zone-map pruning, then whole batches evaluated at
// once with only the selected rows surfacing here.
func (r *Reader) Next() (any, any, bool, error) {
	for {
		if r.done {
			return nil, nil, false, nil
		}
		if b := r.batch; b != nil {
			// Drain the evaluated batch: each selected row surfaces as one
			// record; exhaustion advances past the batch and re-enters the
			// planning loop below.
			idx := b.sel.Next(b.next)
			if idx < 0 {
				r.curPos = b.end - 1
				r.releaseBatch()
				continue
			}
			b.next = idx + 1
			r.curPos = b.start + int64(idx)
			break
		}
		if r.curPos+1 >= r.total {
			if err := r.nextDir(); err != nil {
				return nil, nil, false, err
			}
			continue
		}
		if r.planner.Predicate() != nil {
			if err := r.vecAdvance(); err != nil {
				return nil, nil, false, err
			}
			continue
		}
		r.curPos++
		if !r.dels.has(r.curPos) {
			break
		}
	}
	if r.lazy {
		return nil, r.lrec, true, nil
	}
	// Late materialization: cursors jump straight to the qualifying
	// record, so columns of filtered records are skipped, never decoded.
	rec := serde.NewRecord(r.proj)
	for i := range r.columns {
		v, err := r.valueAt(r.cursors[i])
		if err != nil {
			return nil, nil, false, err
		}
		rec.SetAt(i, v)
	}
	if r.stats != nil {
		r.stats.CPU.RecordsMaterialized++
	}
	return nil, rec, true, nil
}

// Close implements mapred.RecordReader.
func (r *Reader) Close() error {
	r.releaseBatch()
	r.foldCursorStats()
	for _, c := range r.cursors {
		c.hr.Close()
	}
	r.cursors = nil
	r.byName = nil
	r.done = true
	return nil
}

// Schema returns the projected record schema.
func (r *Reader) Schema() *serde.Schema { return r.proj }

// readerMemoryBudget caps the total buffer memory of one CIF reader; wide
// projections divide it among their column streams.
const readerMemoryBudget = 32 << 20

// dirCursorOptions computes the shared physical model of one cursor set
// over a split-directory — the same for a solo Reader and a shared scan,
// so co-scheduling never changes how a byte is priced.
//
// Column streams refill at readahead granularity: large enough to amortize
// the inter-file arm movement of a multi-column scan (the paper's ~25%
// full-scan overhead vs SEQ), small enough that skip-list jumps beyond it
// still eliminate I/O. A fixed reader memory budget is divided among the
// streams, so very wide records get smaller buffers and proportionally more
// arm movement — the growing column-storage overhead the paper measures in
// Appendix B.5.
//
// With a predicate set, adaptive readahead applies: a selective scan jumps
// between qualifying groups instead of streaming, so a full window mostly
// prefetches bytes the next jump discards. Once a jump is observed, refills
// shrink below the transfer unit — trading unit-granular charges for the
// chance that the next jump clears a whole unit — and sequential refills
// ramp back to the full window, so a dense (unselective) predicate costs
// exactly a plain scan.
//
// collide is the probability a refill seeks because another stream moved
// the arm of this stream's disk since its last refill. With blocks spread
// round-robin over D disks and S streams refilling in rotation, that
// probability is 1-(1-1/D)^(S-1): negligible for two streams, near-certain
// for the thirteen-column full scan (DESIGN.md, decision 4; this is why the
// paper's CIF full-record scan trails SEQ by ~25%). Charged per byte —
// normalized to the model's readahead window so smaller buffers cost
// proportionally more (the ramp reports its granularity per refill) — so it
// extrapolates exactly across scales.
func dirCursorOptions(fs *hdfs.FileSystem, streams int, selective bool) (colfile.ReaderOptions, float64) {
	chunk := sim.ReadaheadBytes
	if budget := readerMemoryBudget / streams; chunk > budget {
		chunk = budget
	}
	if tu := int(fs.Config().TransferUnit); chunk < tu {
		chunk = tu
	}
	ropts := colfile.ReaderOptions{Chunk: chunk}
	if selective && sim.SelectiveReadaheadBytes < chunk {
		ropts.ChunkMin = sim.SelectiveReadaheadBytes
	}
	return ropts, interleaveFactor(streams, fs.Config().DisksPerNode)
}

// interleaveFactor is the probability that a stream's refill requires an
// arm movement, given streams concurrent streams over disks spindles.
func interleaveFactor(streams, disks int) float64 {
	if streams <= 1 {
		return 0
	}
	if disks < 1 {
		disks = 1
	}
	p := 1.0
	for i := 0; i < streams-1; i++ {
		p *= 1 - 1/float64(disks)
	}
	return 1 - p
}

// cursorFor returns the cursor of an open column (projected or
// filter-only).
func (r *Reader) cursorFor(name string) (*cursor, error) {
	if c, ok := r.byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("core: column %q is not in the projection %v", name, r.allCols)
}
