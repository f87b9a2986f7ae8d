package colfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// Zone-map statistics (the scan subsystem's storage side). Every column
// file carries a stats section between its data region and its footer: one
// scan.ColStats per record group, where a group is a skip-list window
// (SkipList/DCSL), one compressed frame (Block), or a fixed record granule
// (Plain). Readers expose the section through StatsSource, letting a
// predicate prove a group irrelevant without decompressing or
// deserializing any of it — the PowerDrill/Parquet-style chunk-skipping
// the paper's CIF format predates.

// DefaultStatsEvery is the default record-group granularity of the stats
// section for Plain and SkipList/DCSL layouts. It matches the paper's
// middle skip level so that a pruned group is jumpable with one level-100
// pointer. Block layouts always cut one group per compressed frame.
const DefaultStatsEvery = 100

// statsMaxDistinct caps per-group distinct tracking; beyond the cap the
// count becomes a lower bound (DistinctCapped).
const statsMaxDistinct = 64

// statsMaxKeys caps the per-group map-key universe; beyond the cap the key
// list becomes a subset (KeysCapped) and can no longer disprove
// key-existence.
const statsMaxKeys = 64

// Bloom-filter size caps. A capped filter is sized below its ~1% FPP
// target and merely refutes less; it is never unsound. The group cap keeps
// the per-group entry small (groups hold ~100 records); the file cap
// bounds the whole-file aggregate that split elision reads, which must
// stay useful at crawl-scale distinct counts. Both are power-of-two block
// multiples (scan.NewBloomSized rounds to blocks).
const (
	bloomMaxGroupBytes = 4 << 10
	bloomMaxFileBytes  = 128 << 10
)

// Histogram collection bounds. The whole-file collector keeps a bounded
// systematic sample of non-null values (stride doubling when full, so the
// retained positions stay evenly spaced and deterministic) and cuts it
// into at most statsHistBuckets equi-depth buckets at finish. Group
// collectors never sample: a histogram's job is whole-file selectivity
// estimation, and per-group entries must stay small.
const (
	statsHistSamples = 1024
	statsHistBuckets = 16
)

// statsMaxHistBuckets bounds a decoded histogram's bucket count; anything
// larger is corruption, not a finer histogram (the builder emits at most
// 2*statsHistBuckets).
const statsMaxHistBuckets = 1024

// statsEntry locates one group's statistics in the record space.
type statsEntry struct {
	start int64 // first record of the group; Rows gives the extent
	st    scan.ColStats
}

// StatsSource is implemented by column readers whose file carries a
// zone-map stats section.
type StatsSource interface {
	// GroupStats returns the statistics of the record group containing rec
	// and the index one past the group's last record. It returns (nil, 0)
	// when no statistics cover rec.
	GroupStats(rec int64) (*scan.ColStats, int64)
}

// FileStatsSource is implemented by column readers whose file carries
// whole-file aggregate statistics (or per-group statistics they can be
// derived from). The scan planner's file tier uses it to skip an entire
// column file without touching its data region.
type FileStatsSource interface {
	// FileStats returns aggregate statistics covering every record in the
	// file, or nil when the file carries no statistics.
	FileStats() *scan.ColStats
}

// minMaxKind reports whether values of this schema kind carry min/max
// bounds in the stats section.
func minMaxKind(k serde.Kind) bool {
	switch k {
	case serde.KindBool, serde.KindInt, serde.KindLong, serde.KindTime,
		serde.KindDouble, serde.KindString, serde.KindBytes:
		return true
	}
	return false
}

// statsCollector accumulates per-group statistics on the write path.
// observe sees every appended value; cut closes the current group. The
// collector prices nothing: zone maps are derived from values the writer
// already encoded, and their bytes are charged as ordinary written output.
type statsCollector struct {
	schema *serde.Schema
	every  int // cut cadence in records; 0 = external cuts only (Block)

	entries  []statsEntry
	curStart int64
	cur      scan.ColStats
	distinct map[any]struct{}
	keys     map[string]struct{}

	minMax bool
	mapCol bool

	// Bloom collection: string/bytes columns filter their values, map
	// columns their keys (bloomVals and bloomKeys are mutually exclusive).
	// Observed byte strings dedup as hashes; the filter is sized from the
	// hash count at cut, capped at bloomMax bytes (0 disables). Once the
	// distinct count guarantees a saturated (dropped) filter even at the
	// size cap, collection abandons: the group yields no filter and the
	// dedup set stops growing — at crawl-scale distinct counts the
	// whole-file collector would otherwise burn memory building a filter
	// buildBloom is certain to discard.
	bloomVals      bool
	bloomKeys      bool
	bloomMax       int
	bloomSet       map[uint64]struct{}
	bloomAbandoned bool

	// Histogram sampling (whole-file collectors only; histMax 0 disables):
	// a systematic sample of non-null ordered values, kept evenly spaced by
	// doubling the stride whenever the buffer fills — deterministic by
	// arrival order, so identical data yields identical file bytes.
	histMax      int
	samples      []any
	sampleStride int64
	sampleSeen   int64
}

// newStatsCollector builds a collector cutting groups every `every`
// records (0 = external cuts only). A negative cadence disables statistics
// entirely: the nil collector accepts observe/cut and yields no section.
// bloomMax caps the per-group Bloom filter in bytes; 0 writes none.
func newStatsCollector(schema *serde.Schema, every, bloomMax int) *statsCollector {
	if every < 0 {
		return nil
	}
	c := &statsCollector{
		schema: schema,
		every:  every,
		minMax: minMaxKind(schema.Kind),
		mapCol: schema.Kind == serde.KindMap,
	}
	if bloomMax > 0 {
		c.bloomVals = schema.Kind == serde.KindString || schema.Kind == serde.KindBytes
		c.bloomKeys = c.mapCol
		c.bloomMax = bloomMax
	}
	return c
}

// bloomAdd records one byte-string hash for the current group's filter.
func (c *statsCollector) bloomAdd(h uint64) {
	if c.bloomAbandoned {
		return
	}
	if c.bloomSet == nil {
		c.bloomSet = make(map[uint64]struct{})
	}
	c.bloomSet[h] = struct{}{}
	// Past 1/4 of the capped filter's bit count, the expected fill
	// (1-e^(-k/4) ~ 0.83) is beyond the saturation bound buildBloom drops
	// at — abandon rather than keep paying 16 bytes per distinct value for
	// a filter that cannot survive. Abandoning early is sound: no filter
	// means MayMatch, never a wrong proof.
	if len(c.bloomSet) > c.bloomMax*8/4 {
		c.bloomAbandoned = true
		c.bloomSet = nil
	}
}

// distinctKey maps a value to a comparable key for distinct counting, or
// ok=false for kinds whose distinct count is not tracked.
func distinctKey(v any) (any, bool) {
	switch x := v.(type) {
	case bool, int32, int64, float64, string:
		return x, true
	case []byte:
		return string(x), true
	}
	return nil, false
}

func (c *statsCollector) observe(v any) {
	if c == nil {
		return
	}
	c.cur.Rows++
	if v == nil {
		c.cur.Nulls++
	} else {
		if c.minMax {
			if !c.cur.HasMinMax {
				c.cur.HasMinMax = true
				c.cur.Min, c.cur.Max = copyBound(v), copyBound(v)
			} else {
				if cmp, ok := scan.CompareValues(v, c.cur.Min); ok && cmp < 0 {
					c.cur.Min = copyBound(v)
				}
				if cmp, ok := scan.CompareValues(v, c.cur.Max); ok && cmp > 0 {
					c.cur.Max = copyBound(v)
				}
			}
		}
		if key, ok := distinctKey(v); ok {
			if !c.cur.DistinctCapped {
				if c.distinct == nil {
					c.distinct = make(map[any]struct{}, statsMaxDistinct)
				}
				if _, seen := c.distinct[key]; !seen {
					if len(c.distinct) >= statsMaxDistinct {
						c.cur.DistinctCapped = true
					} else {
						c.distinct[key] = struct{}{}
					}
				}
			}
		} else {
			// Distinct is untracked for complex kinds: leave the count a
			// capped lower bound so consumers never treat it as exact.
			c.cur.DistinctCapped = true
		}
		if c.bloomVals {
			switch x := v.(type) {
			case string:
				c.bloomAdd(scan.BloomHashString(x))
			case []byte:
				c.bloomAdd(scan.BloomHash(x))
			}
		}
		if c.histMax > 0 && c.minMax {
			c.histObserve(v)
		}
		if c.mapCol {
			if m, ok := v.(map[string]any); ok {
				c.cur.HasKeys = true
				if c.keys == nil {
					c.keys = make(map[string]struct{}, statsMaxKeys)
				}
				if c.bloomKeys {
					// Unlike the capped key list below, the filter sees
					// every key, so a negative probe stays a proof even
					// when KeysCapped.
					for k := range m {
						c.bloomAdd(scan.BloomHashString(k))
					}
				}
				// Sorted iteration keeps the retained subset under the
				// cap deterministic: identical data must produce
				// identical file bytes (the simulation replays by seed).
				for _, k := range mapKeysSorted(m) {
					if _, seen := c.keys[k]; seen {
						continue
					}
					if len(c.keys) >= statsMaxKeys {
						c.cur.KeysCapped = true
						break
					}
					c.keys[k] = struct{}{}
				}
			}
		}
	}
	if c.every > 0 && c.cur.Rows >= int64(c.every) {
		c.cut()
	}
}

// histObserve feeds one non-null ordered value to the systematic sample.
// While the buffer has room every stride-th value is kept; when it fills,
// every other retained sample is dropped and the stride doubles, so the
// kept positions remain the multiples of the (new) stride. The sample is
// bounded by histMax values regardless of file size.
func (c *statsCollector) histObserve(v any) {
	if c.sampleStride == 0 {
		c.sampleStride = 1
	}
	if c.sampleSeen%c.sampleStride == 0 {
		if len(c.samples) >= c.histMax {
			keep := c.samples[:0]
			for i := 0; i < len(c.samples); i += 2 {
				keep = append(keep, c.samples[i])
			}
			c.samples = keep
			c.sampleStride *= 2
		}
		if c.sampleSeen%c.sampleStride == 0 {
			c.samples = append(c.samples, copyBound(v))
		}
	}
	c.sampleSeen++
}

// copyBound deep-copies mutable bound values so later caller mutations
// cannot corrupt recorded statistics.
func copyBound(v any) any {
	if b, ok := v.([]byte); ok {
		return append([]byte(nil), b...)
	}
	return v
}

// cut closes the current group, if it has any rows.
func (c *statsCollector) cut() {
	if c == nil || c.cur.Rows == 0 {
		return
	}
	c.cur.Distinct = int64(len(c.distinct))
	if c.cur.HasKeys {
		keys := make([]string, 0, len(c.keys))
		for k := range c.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c.cur.Keys = keys
	}
	c.cur.Bloom = c.buildBloom()
	if c.cur.Bloom != nil {
		// Record the fill fraction at write time: the estimator's
		// false-positive confidence weight, readable without a popcount
		// over the decoded filter.
		c.cur.BloomFill = c.cur.Bloom.FillFraction()
	}
	if len(c.samples) > 0 {
		c.cur.Hist = scan.BuildHistogram(c.samples, statsHistBuckets)
		c.samples = nil
		c.sampleSeen = 0
		c.sampleStride = 0
	}
	c.entries = append(c.entries, statsEntry{start: c.curStart, st: c.cur})
	c.curStart += c.cur.Rows
	c.cur = scan.ColStats{}
	c.distinct = nil
	c.keys = nil
	c.bloomSet = nil
	c.bloomAbandoned = false
}

// buildBloom sizes a filter from the group's deduplicated hashes and
// inserts them. Insertion order is irrelevant (bits OR together), so the
// random map iteration still yields deterministic file bytes. A filter
// still saturated at the size cap refutes too little to be worth its
// bytes and is dropped.
func (c *statsCollector) buildBloom() *scan.Bloom {
	if len(c.bloomSet) == 0 {
		return nil
	}
	b := scan.NewBloomSized(len(c.bloomSet), c.bloomMax)
	if b == nil {
		return nil
	}
	for h := range c.bloomSet {
		b.AddHash(h)
	}
	if b.Saturated() {
		return nil
	}
	return b
}

// statsWriter pairs the per-group collector with a whole-file collector.
// The file collector cuts exactly once, at finish, so its single entry is
// the aggregate over every record — the statistic the scheduler and file
// pruning tiers read without touching data. Observing into two collectors
// costs two min/max comparisons per value on the load path; like the group
// collector, it prices nothing.
type statsWriter struct {
	group *statsCollector
	file  *statsCollector
}

// newStatsWriter builds the collector pair cutting groups every `every`
// records (0 = external cuts only). A negative cadence disables statistics
// entirely: the nil writer accepts observe/cut and yields no section.
// noBloom suppresses Bloom filters while keeping the rest of the section.
// The file collector gets the larger size cap: its single filter covers
// every distinct value in the file, and it is what split elision probes.
func newStatsWriter(schema *serde.Schema, every int, noBloom bool) *statsWriter {
	if every < 0 {
		return nil
	}
	groupMax, fileMax := bloomMaxGroupBytes, bloomMaxFileBytes
	if noBloom {
		groupMax, fileMax = 0, 0
	}
	w := &statsWriter{
		group: newStatsCollector(schema, every, groupMax),
		file:  newStatsCollector(schema, 0, fileMax),
	}
	// Only the whole-file collector samples for a histogram: its single
	// entry is what selectivity estimation reads, and group entries stay
	// lean.
	w.file.histMax = statsHistSamples
	return w
}

func (w *statsWriter) observe(v any) {
	if w == nil {
		return
	}
	w.group.observe(v)
	w.file.observe(v)
}

// cut closes the current record group (the file collector never cuts until
// finish).
func (w *statsWriter) cut() {
	if w == nil {
		return
	}
	w.group.cut()
}

// finish closes the trailing group and returns the encoded stats section:
// per-group entries followed by the whole-file aggregate trailer (empty
// when no records were observed).
func (w *statsWriter) finish() ([]byte, error) {
	if w == nil {
		return nil, nil
	}
	w.group.cut()
	w.file.cut()
	if len(w.group.entries) == 0 {
		return nil, nil
	}
	if len(w.file.entries) != 1 {
		return nil, fmt.Errorf("colfile: file aggregate collector produced %d entries, want 1", len(w.file.entries))
	}
	return appendStatsSection(nil, w.group.schema, &w.file.entries[0].st, w.group.entries)
}

// Stats section encoding (current, "CFS4"; see docs/FORMAT.md for the
// byte-level specification and lineage):
//
//	magic "CFS4"
//	aggregate entry covering every record in the file
//	uvarint groupCount
//	per group entry (same encoding as the aggregate):
//	  uvarint rows, uvarint nulls, uvarint distinct
//	  flags byte (hasMinMax | distinctCapped<<1 | hasKeys<<2 |
//	              keysCapped<<3 | hasBloom<<4 | hasHist<<5 |
//	              hasBloomFill<<6)
//	  [hasMinMax]    len-prefixed serde(min), len-prefixed serde(max)
//	  [hasKeys]      uvarint keyCount, len-prefixed keys
//	  [hasBloom]     uvarint k, uvarint wordCount, wordCount x u64 LE words
//	  [hasBloomFill] uvarint fill fraction in 1/10000ths
//	  [hasHist]      uvarint bucketCount, then per bucket:
//	                 uvarint count, len-prefixed serde(lo),
//	                 len-prefixed serde(hi)
//
// Group starts are implicit: groups tile the record space in order. The
// aggregate leads the section so split elision decides a whole file's
// relevance from the footer plus an O(1) parse — never data, never the
// group entries.
//
// CFS4 is the only generation: column files live in the in-memory hdfs
// and never outlive the process that wrote them, so no reader can meet an
// older section. Optional features version themselves through the flag
// bits.
const statsMagic = "CFS4"

const (
	statsFlagMinMax byte = 1 << iota
	statsFlagDistinctCapped
	statsFlagHasKeys
	statsFlagKeysCapped
	statsFlagBloom
	statsFlagHist
	statsFlagBloomFill
)

// statsMaxBloomWords bounds a decoded filter: the file-level cap in
// 64-bit words. Anything larger is corruption, not a huge filter.
const statsMaxBloomWords = bloomMaxFileBytes / 8

// appendStatsSection encodes the aggregate-first section ("CFS4") with
// optional per-entry Bloom filters, recorded fill fractions, and
// equi-depth histograms.
func appendStatsSection(dst []byte, schema *serde.Schema, agg *scan.ColStats, entries []statsEntry) ([]byte, error) {
	dst = append(dst, statsMagic...)
	dst, err := appendStatsEntry(dst, schema, agg)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		if dst, err = appendStatsEntry(dst, schema, &e.st); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendStatsEntry(dst []byte, schema *serde.Schema, st *scan.ColStats) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(st.Rows))
	dst = binary.AppendUvarint(dst, uint64(st.Nulls))
	dst = binary.AppendUvarint(dst, uint64(st.Distinct))
	var flags byte
	if st.HasMinMax {
		flags |= statsFlagMinMax
	}
	if st.DistinctCapped {
		flags |= statsFlagDistinctCapped
	}
	if st.HasKeys {
		flags |= statsFlagHasKeys
	}
	if st.KeysCapped {
		flags |= statsFlagKeysCapped
	}
	if st.Bloom != nil {
		flags |= statsFlagBloom
	}
	if st.Hist != nil {
		flags |= statsFlagHist
	}
	if st.BloomFill > 0 {
		flags |= statsFlagBloomFill
	}
	dst = append(dst, flags)
	if st.HasMinMax {
		for _, bound := range []any{st.Min, st.Max} {
			enc, err := serde.AppendValue(nil, schema, bound)
			if err != nil {
				return nil, fmt.Errorf("colfile: encoding stats bound: %w", err)
			}
			dst = binary.AppendUvarint(dst, uint64(len(enc)))
			dst = append(dst, enc...)
		}
	}
	if st.HasKeys {
		dst = binary.AppendUvarint(dst, uint64(len(st.Keys)))
		for _, k := range st.Keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	if st.Bloom != nil {
		dst = binary.AppendUvarint(dst, uint64(st.Bloom.K()))
		words := st.Bloom.Words()
		dst = binary.AppendUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	if st.BloomFill > 0 {
		fill := uint64(st.BloomFill*10000 + 0.5)
		if fill > 10000 {
			fill = 10000
		}
		if fill == 0 {
			fill = 1 // a recorded fill is never zero: the flag means "known"
		}
		dst = binary.AppendUvarint(dst, fill)
	}
	if st.Hist != nil {
		dst = binary.AppendUvarint(dst, uint64(st.Hist.Buckets()))
		for i := 0; i < st.Hist.Buckets(); i++ {
			lo, hi, count := st.Hist.Bucket(i)
			dst = binary.AppendUvarint(dst, uint64(count))
			for _, bound := range []any{lo, hi} {
				enc, err := serde.AppendValue(nil, schema, bound)
				if err != nil {
					return nil, fmt.Errorf("colfile: encoding histogram bound: %w", err)
				}
				dst = binary.AppendUvarint(dst, uint64(len(enc)))
				dst = append(dst, enc...)
			}
		}
	}
	return dst, nil
}

// statsCursor is a bounds-checked forward cursor over the stats blob.
type statsCursor struct {
	buf []byte
	pos int
}

func (c *statsCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("colfile: stats %s: truncated uvarint", what)
	}
	c.pos += n
	return v, nil
}

func (c *statsCursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.buf) {
		return nil, fmt.Errorf("colfile: stats %s overruns section", what)
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

// parseStatsSection decodes a stats section: the per-group entries plus
// the whole-file aggregate. Decoding charges nothing: like the footer and
// the split's schema file, zone maps are metadata.
func parseStatsSection(blob []byte, schema *serde.Schema) ([]statsEntry, *scan.ColStats, error) {
	agg, c, err := parseStatsHead(blob, schema)
	if err != nil {
		return nil, nil, err
	}
	n, err := c.uvarint("entry count")
	if err != nil {
		return nil, nil, err
	}
	// Every entry occupies at least 4 bytes (three uvarints + flags), so a
	// count beyond that bound is corruption, not a huge file — fail before
	// make() can panic on an absurd capacity.
	if n > uint64(len(blob))/4 {
		return nil, nil, fmt.Errorf("colfile: absurd stats entry count %d for %d-byte section", n, len(blob))
	}
	entries := make([]statsEntry, 0, n)
	var start int64
	for i := uint64(0); i < n; i++ {
		e := statsEntry{start: start}
		if err := parseStatsEntry(c, schema, &e.st); err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
		start += e.st.Rows
	}
	return entries, agg, nil
}

// parseStatsHead consumes the section magic and the leading aggregate
// entry, leaving the cursor at the group count.
func parseStatsHead(blob []byte, schema *serde.Schema) (*scan.ColStats, *statsCursor, error) {
	if len(blob) < len(statsMagic) || string(blob[:len(statsMagic)]) != statsMagic {
		return nil, nil, fmt.Errorf("colfile: bad stats magic")
	}
	c := &statsCursor{buf: blob, pos: len(statsMagic)}
	var agg scan.ColStats
	if err := parseStatsEntry(c, schema, &agg); err != nil {
		return nil, nil, err
	}
	return &agg, c, nil
}

func parseStatsEntry(c *statsCursor, schema *serde.Schema, st *scan.ColStats) error {
	rows, err := c.uvarint("rows")
	if err != nil {
		return err
	}
	nulls, err := c.uvarint("nulls")
	if err != nil {
		return err
	}
	distinct, err := c.uvarint("distinct")
	if err != nil {
		return err
	}
	if rows > 1<<40 || nulls > rows || distinct > rows {
		return fmt.Errorf("colfile: implausible stats entry (rows=%d nulls=%d distinct=%d)", rows, nulls, distinct)
	}
	st.Rows, st.Nulls, st.Distinct = int64(rows), int64(nulls), int64(distinct)
	fb, err := c.bytes(1, "flags")
	if err != nil {
		return err
	}
	flags := fb[0]
	st.DistinctCapped = flags&statsFlagDistinctCapped != 0
	st.KeysCapped = flags&statsFlagKeysCapped != 0
	if flags&statsFlagMinMax != 0 {
		st.HasMinMax = true
		for _, bound := range []*any{&st.Min, &st.Max} {
			blen, err := c.uvarint("bound length")
			if err != nil {
				return err
			}
			enc, err := c.bytes(int(blen), "bound")
			if err != nil {
				return err
			}
			v, err := serde.NewDecoder(enc, nil).Value(schema)
			if err != nil {
				return fmt.Errorf("colfile: decoding stats bound: %w", err)
			}
			*bound = v
		}
	}
	if flags&statsFlagHasKeys != 0 {
		st.HasKeys = true
		kn, err := c.uvarint("key count")
		if err != nil {
			return err
		}
		if kn > statsMaxKeys {
			return fmt.Errorf("colfile: absurd stats key count %d", kn)
		}
		keys := make([]string, 0, kn)
		for j := uint64(0); j < kn; j++ {
			klen, err := c.uvarint("key length")
			if err != nil {
				return err
			}
			kb, err := c.bytes(int(klen), "key")
			if err != nil {
				return err
			}
			keys = append(keys, string(kb))
		}
		st.Keys = keys
	}
	if flags&statsFlagBloom != 0 {
		k, err := c.uvarint("bloom k")
		if err != nil {
			return err
		}
		nw, err := c.uvarint("bloom word count")
		if err != nil {
			return err
		}
		if k < 1 || k > 64 || nw == 0 || nw > statsMaxBloomWords {
			return fmt.Errorf("colfile: implausible bloom geometry (k=%d words=%d)", k, nw)
		}
		wb, err := c.bytes(int(nw)*8, "bloom words")
		if err != nil {
			return err
		}
		words := make([]uint64, nw)
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(wb[j*8:])
		}
		// Invalid geometry (non-power-of-two blocks) yields a nil filter:
		// the entry stays usable, the filter just refutes nothing.
		st.Bloom = scan.NewBloomFromWords(int(k), words)
	}
	if flags&statsFlagBloomFill != 0 {
		fill, err := c.uvarint("bloom fill")
		if err != nil {
			return err
		}
		if fill == 0 || fill > 10000 {
			return fmt.Errorf("colfile: implausible bloom fill %d/10000", fill)
		}
		st.BloomFill = float64(fill) / 10000
	}
	if flags&statsFlagHist != 0 {
		hn, err := c.uvarint("histogram bucket count")
		if err != nil {
			return err
		}
		if hn == 0 || hn > statsMaxHistBuckets {
			return fmt.Errorf("colfile: implausible histogram bucket count %d", hn)
		}
		los := make([]any, 0, hn)
		his := make([]any, 0, hn)
		counts := make([]int64, 0, hn)
		for j := uint64(0); j < hn; j++ {
			count, err := c.uvarint("histogram count")
			if err != nil {
				return err
			}
			if count > rows {
				return fmt.Errorf("colfile: histogram bucket count %d exceeds rows %d", count, rows)
			}
			counts = append(counts, int64(count))
			for _, dst := range []*[]any{&los, &his} {
				blen, err := c.uvarint("histogram bound length")
				if err != nil {
					return err
				}
				enc, err := c.bytes(int(blen), "histogram bound")
				if err != nil {
					return err
				}
				v, err := serde.NewDecoder(enc, nil).Value(schema)
				if err != nil {
					return fmt.Errorf("colfile: decoding histogram bound: %w", err)
				}
				*dst = append(*dst, v)
			}
		}
		// Invalid geometry (zero counts, disordered bounds) yields a nil
		// histogram: the entry stays usable, estimation just falls back to
		// the uniform model.
		st.Hist = scan.NewHistogram(los, his, counts)
	}
	return nil
}

// statsLoader lazily reads and indexes a file's stats section, serving
// GroupStats and FileStats to all reader layouts. The section read is
// uncharged metadata, like the footer.
type statsLoader struct {
	src    ReaderAtSize
	schema *serde.Schema
	off    int64
	size   int64

	entries []statsEntry
	agg     *scan.ColStats
	loaded  bool
	failed  bool
}

// GroupStats implements StatsSource.
func (l *statsLoader) GroupStats(rec int64) (*scan.ColStats, int64) {
	if l == nil || l.size == 0 || l.failed {
		return nil, 0
	}
	if !l.loaded {
		l.load()
		if l.failed {
			return nil, 0
		}
	}
	// Find the last entry with start <= rec.
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].start > rec }) - 1
	if i < 0 {
		return nil, 0
	}
	e := &l.entries[i]
	end := e.start + e.st.Rows
	if rec >= end {
		return nil, 0
	}
	return &e.st, end
}

// FileStats implements FileStatsSource.
func (l *statsLoader) FileStats() *scan.ColStats {
	if l == nil || l.size == 0 || l.failed {
		return nil
	}
	if !l.loaded {
		l.load()
		if l.failed {
			return nil
		}
	}
	return l.agg
}

func (l *statsLoader) load() {
	l.loaded = true
	blob := make([]byte, l.size)
	readAt := l.src.ReadAt
	if u, ok := l.src.(unchargedReaderAt); ok {
		readAt = u.UnchargedReadAt
	}
	if _, err := readAt(blob, l.off); err != nil && err != io.EOF {
		l.failed = true
		return
	}
	entries, agg, err := parseStatsSection(blob, l.schema)
	if err != nil {
		l.failed = true
		return
	}
	l.entries = entries
	l.agg = agg
}

// FileStats reads a column file's whole-file aggregate statistics using
// only the footer and the adjacent stats section — never the data region,
// and never the accounting sink. Sections lead with the aggregate, so the
// parse is O(1) in the number of record groups. This is the scheduler tier's
// view: split elision decides a file's relevance from it before any map
// task exists. It returns (nil, nil) for files without (or with
// unreadable) statistics — planning degrades, it does not fail.
func FileStats(r ReaderAtSize, schema *serde.Schema) (*scan.ColStats, error) {
	_, statsLen, err := readFooter(r)
	if err != nil {
		return nil, err
	}
	if statsLen == 0 {
		return nil, nil
	}
	blob := make([]byte, statsLen)
	readAt := r.ReadAt
	if u, ok := r.(unchargedReaderAt); ok {
		readAt = u.UnchargedReadAt
	}
	if _, err := readAt(blob, r.Size()-footerSize-statsLen); err != nil && err != io.EOF {
		return nil, nil
	}
	agg, _, err := parseStatsHead(blob, schema)
	if err != nil {
		return nil, nil
	}
	return agg, nil
}
