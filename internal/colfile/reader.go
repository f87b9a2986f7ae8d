package colfile

import (
	"encoding/binary"
	"fmt"

	"colmr/internal/compress"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// ReaderOptions tunes a column file reader.
type ReaderOptions struct {
	// Chunk is the refill granularity in bytes (default: one 128 KB
	// transfer unit).
	Chunk int
	// ChunkMin, when set below Chunk, enables adaptive readahead: the
	// first jump observed between refills shrinks the granularity to
	// ChunkMin, and sequential refills double it back up to Chunk.
	// Selective CIF scans set it so skip-list jumps stop paying
	// full-window prefetch, while a scan that never jumps streams at full
	// granularity throughout.
	ChunkMin int
	// OnRefill is invoked on every physical buffer refill with the bytes
	// fetched and the granularity in effect. CIF charges multi-stream
	// interleave cost here when scanning several column streams
	// concurrently, normalized per refill granularity.
	OnRefill func(bytes, chunk int)
	// NoBloom disables Bloom-filter consultation inside the reader — today
	// the DCSL key prober's group-filter fast path. CIF sets it from
	// scan.Spec.NoBloom so one job knob governs every tier.
	NoBloom bool
}

// NewReader opens a column file of the given value schema. The layout is
// discovered from the file header. CPU work is charged to stats.
func NewReader(r ReaderAtSize, schema *serde.Schema, stats *sim.CPUStats) (Reader, error) {
	return NewReaderOpts(r, schema, ReaderOptions{}, stats)
}

// NewReaderOpts is NewReader with explicit options.
func NewReaderOpts(r ReaderAtSize, schema *serde.Schema, opts ReaderOptions, stats *sim.CPUStats) (Reader, error) {
	total, statsLen, err := readFooter(r)
	if err != nil {
		return nil, err
	}
	s := newStream(r, opts.Chunk)
	s.dataEnd = r.Size() - footerSize - statsLen
	s.setShrink(opts.ChunkMin)
	s.onRefill = opts.OnRefill
	// Zone maps load lazily on the first GroupStats call, so a reader that
	// never prunes never touches the section.
	zm := &statsLoader{src: r, schema: schema, off: s.dataEnd, size: statsLen}
	h, err := parseHeader(s)
	if err != nil {
		return nil, err
	}
	switch h.layout {
	case Plain:
		return &plainReader{statsLoader: zm, s: s, schema: schema, stats: stats, total: total}, nil
	case Block:
		codec, err := compress.ByName(h.codec)
		if err != nil {
			return nil, err
		}
		return &blockReader{statsLoader: zm, s: s, schema: schema, stats: stats, codec: codec, total: total}, nil
	case SkipList, DCSL:
		if len(h.levels) == 0 {
			return nil, fmt.Errorf("colfile: %s file with no levels", h.layout)
		}
		if h.layout == DCSL && schema.Kind != serde.KindMap &&
			schema.Kind != serde.KindString && schema.Kind != serde.KindBytes {
			return nil, fmt.Errorf("colfile: DCSL file for non-dictionary schema %s", schema.Kind)
		}
		return &slReader{
			statsLoader: zm,
			s:           s,
			schema:      schema,
			stats:       stats,
			levels:      h.levels,
			dcsl:        h.layout == DCSL,
			noBloom:     opts.NoBloom,
			total:       total,
		}, nil
	}
	return nil, fmt.Errorf("colfile: unknown layout %v", h.layout)
}

// plainReader iterates concatenated values. Skipping walks every record's
// encoding at full decode cost — the paper's "no savings" degradation.
type plainReader struct {
	*statsLoader
	s      *stream
	schema *serde.Schema
	stats  *sim.CPUStats
	rec    int64
	total  int64
}

func (p *plainReader) Record() int64 { return p.rec }
func (p *plainReader) Total() int64  { return p.total }

func (p *plainReader) Value() (any, error) {
	if p.rec >= p.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", p.rec, p.total)
	}
	v, err := decodeValue(p.s, p.schema, p.stats)
	if err != nil {
		return nil, err
	}
	p.rec++
	return v, nil
}

func (p *plainReader) SkipTo(target int64) error {
	if target > p.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, p.total)
	}
	for p.rec < target {
		if err := scanValue(p.s, p.schema, p.stats); err != nil {
			return err
		}
		p.rec++
	}
	return nil
}

// blockReader iterates compressed frames with lazy decompression: frames
// fully behind the skip target are seeked past using only their headers;
// touching any record in a frame decompresses the whole frame
// (Section 5.3, "Compressed Blocks").
type blockReader struct {
	*statsLoader
	s      *stream
	schema *serde.Schema
	stats  *sim.CPUStats
	codec  compress.Codec
	rec    int64
	total  int64

	frame     []byte // decompressed current frame
	framePos  int
	frameLeft int // records remaining in current frame (incl. cursor's)
}

func (b *blockReader) Record() int64 { return b.rec }
func (b *blockReader) Total() int64  { return b.total }

// readFrameHeader reads and bounds the next frame header. Every field is
// file data: the record count must fit the records remaining and the
// payload the bytes remaining; the codec bounds rawLen by its worst-case
// expansion of compLen before allocating for it.
func (b *blockReader) readFrameHeader() (records, rawLen, compLen int, err error) {
	r64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	raw64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	comp64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	if r64 == 0 || r64 > uint64(b.total-b.rec) {
		return 0, 0, 0, fmt.Errorf("colfile: frame of %d records with %d remaining", r64, b.total-b.rec)
	}
	if comp64 > uint64(b.s.remainingInFile()) {
		return 0, 0, 0, fmt.Errorf("colfile: frame payload of %d bytes with %d left in file", comp64, b.s.remainingInFile())
	}
	return int(r64), int(raw64), int(comp64), nil
}

func (b *blockReader) loadFrame() error {
	records, rawLen, compLen, err := b.readFrameHeader()
	if err != nil {
		return err
	}
	comp, err := b.s.readFull(compLen)
	if err != nil {
		return err
	}
	raw, err := b.codec.Decompress(nil, comp, rawLen)
	if err != nil {
		return err
	}
	compress.ChargeDecomp(b.stats, b.codec.Name(), int64(len(raw)))
	b.frame = raw
	b.framePos = 0
	b.frameLeft = records
	return nil
}

func (b *blockReader) Value() (any, error) {
	if b.rec >= b.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", b.rec, b.total)
	}
	if b.frameLeft == 0 {
		if err := b.loadFrame(); err != nil {
			return nil, err
		}
	}
	var local sim.CPUStats
	d := serde.NewDecoder(b.frame[b.framePos:], &local)
	v, err := d.Value(b.schema)
	if err != nil {
		return nil, err
	}
	if b.stats != nil {
		b.stats.Add(local)
	}
	b.framePos += d.Pos()
	b.frameLeft--
	b.rec++
	return v, nil
}

func (b *blockReader) SkipTo(target int64) error {
	if target > b.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, b.total)
	}
	for b.rec < target {
		if b.frameLeft == 0 {
			records, rawLen, compLen, err := b.readFrameHeader()
			if err != nil {
				return err
			}
			if b.rec+int64(records) <= target {
				// Lazy decompression: the whole frame is unneeded, so seek
				// past the payload without decompressing it.
				if err := b.s.skip(int64(compLen)); err != nil {
					return err
				}
				b.rec += int64(records)
				continue
			}
			comp, err := b.s.readFull(compLen)
			if err != nil {
				return err
			}
			raw, err := b.codec.Decompress(nil, comp, rawLen)
			if err != nil {
				return err
			}
			compress.ChargeDecomp(b.stats, b.codec.Name(), int64(len(raw)))
			b.frame = raw
			b.framePos = 0
			b.frameLeft = records
		}
		// Walk within the decompressed frame: decompression is already
		// paid, so per-record movement is cheap skipping.
		var local sim.CPUStats
		d := serde.NewDecoder(b.frame[b.framePos:], &local)
		if err := d.Skip(b.schema); err != nil {
			return err
		}
		if b.stats != nil {
			b.stats.Add(local)
		}
		b.framePos += d.Pos()
		b.frameLeft--
		b.rec++
	}
	return nil
}

// slReader iterates skip-list and DCSL files.
//
// Invariant: the stream cursor is positioned at the start of record `rec`'s
// entity — its skip group if one exists (aligned == false), or its value
// (aligned == true, group and window dictionary consumed).
type slReader struct {
	*statsLoader
	s       *stream
	schema  *serde.Schema
	stats   *sim.CPUStats
	levels  []int
	dcsl    bool
	noBloom bool
	rec     int64
	total   int64

	aligned bool
	dict    *compress.Dictionary
}

func (r *slReader) Record() int64 { return r.rec }
func (r *slReader) Total() int64  { return r.total }

func (r *slReader) minLevel() int64 { return int64(r.levels[len(r.levels)-1]) }
func (r *slReader) maxLevel() int64 { return int64(r.levels[0]) }

func (r *slReader) atGroup() bool { return r.rec%r.minLevel() == 0 && r.rec < r.total }

// loadDict reads the window dictionary at a largest-level boundary.
func (r *slReader) loadDict() error {
	n, err := r.s.readUvarint()
	if err != nil {
		return fmt.Errorf("colfile: dict length: %w", err)
	}
	blob, err := r.s.readFull(int(n))
	if err != nil {
		return fmt.Errorf("colfile: dict body: %w", err)
	}
	dict, _, err := compress.ParseDictionary(blob)
	if err != nil {
		return err
	}
	compress.ChargeDecomp(r.stats, "dict", int64(n))
	r.dict = dict
	return nil
}

// align consumes the skip group (discarding pointers) and window
// dictionary for the current record, leaving the cursor at its value.
func (r *slReader) align() error {
	if r.aligned {
		return nil
	}
	if r.atGroup() {
		k := levelsAt(r.levels, r.rec)
		if _, err := r.s.readFull(k * groupPtrSize); err != nil {
			return fmt.Errorf("colfile: skip group: %w", err)
		}
		if r.stats != nil {
			r.stats.SkippedBytes += int64(k * groupPtrSize)
		}
		if r.dcsl && r.rec%r.maxLevel() == 0 {
			if err := r.loadDict(); err != nil {
				return err
			}
		}
	}
	r.aligned = true
	return nil
}

func (r *slReader) Value() (any, error) {
	if r.rec >= r.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", r.rec, r.total)
	}
	if err := r.align(); err != nil {
		return nil, err
	}
	// Skip-list values are length-prefixed (see writer.prefixed).
	n, err := r.s.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("colfile: value length: %w", err)
	}
	buf, err := r.s.readFull(int(n))
	if err != nil {
		return nil, fmt.Errorf("colfile: value body: %w", err)
	}
	var v any
	if r.dcsl {
		if r.dict == nil {
			return nil, fmt.Errorf("colfile: DCSL value before dictionary")
		}
		if r.schema.Kind != serde.KindMap {
			// Dictionary-encoded string/bytes: an empty blob is null,
			// otherwise the blob is the value's uvarint id.
			val, err := r.dictValue(buf)
			if err != nil {
				return nil, err
			}
			if r.stats != nil {
				compress.ChargeDecomp(r.stats, "dict", int64(len(buf)))
				r.stats.ValuesMaterialized++
			}
			r.rec++
			r.aligned = false
			return val, nil
		}
		d := serde.NewDecoder(buf, nil)
		m, err := parseDictMap(d, r.schema, r.dict)
		if err != nil {
			return nil, err
		}
		if r.stats != nil {
			compress.ChargeDecomp(r.stats, "dict", int64(d.Pos()))
			r.stats.ValuesMaterialized += int64(len(m) + 1)
		}
		v = m
	} else {
		var local sim.CPUStats
		d := serde.NewDecoder(buf, &local)
		val, err := d.Value(r.schema)
		if err != nil {
			return nil, err
		}
		if r.stats != nil {
			r.stats.Add(local)
		}
		v = val
	}
	r.rec++
	r.aligned = false
	return v, nil
}

func (r *slReader) SkipTo(target int64) error {
	if target > r.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, r.total)
	}
	for r.rec < target {
		if !r.aligned && r.atGroup() {
			k := levelsAt(r.levels, r.rec)
			ptrs, err := r.s.readFull(k * groupPtrSize)
			if err != nil {
				return fmt.Errorf("colfile: skip group: %w", err)
			}
			// readFull's view aliases the window and a dictionary load can
			// refill it, so copy the pointers out first.
			ptrs = append([]byte(nil), ptrs...)
			if r.stats != nil {
				r.stats.SkippedBytes += int64(k * groupPtrSize)
			}
			// A DCSL block's dictionary is always read on entry — it is
			// the only part of a block a reader must touch. Spans are
			// measured from after it.
			if r.dcsl && r.rec%r.maxLevel() == 0 {
				if err := r.loadDict(); err != nil {
					return err
				}
			}
			// Use the largest applicable pointer. Pointers are stored
			// largest level first.
			used := false
			idx := 0
			for _, l := range r.levels {
				if r.rec%int64(l) != 0 {
					continue
				}
				if r.rec+int64(l) <= target && r.rec+int64(l) <= r.total {
					span := int64(binary.LittleEndian.Uint32(ptrs[idx*groupPtrSize:]))
					if err := r.s.skip(span); err != nil {
						return err
					}
					r.rec += int64(l)
					used = true
					break
				}
				idx++
			}
			if used {
				continue
			}
			// No pointer applies: group and dictionary are consumed; fall
			// through to walking values.
			r.aligned = true
		}
		if err := r.walkOne(); err != nil {
			return err
		}
	}
	return nil
}

// walkOne advances past one value using its length prefix: a varint read
// and a forward seek, with no deserialization. (Contrast with Plain files,
// whose values carry no lengths and must be fully walked.)
func (r *slReader) walkOne() error {
	if err := r.align(); err != nil {
		return err
	}
	n, err := r.s.readUvarint()
	if err != nil {
		return fmt.Errorf("colfile: skip length: %w", err)
	}
	if err := r.s.skip(int64(n)); err != nil {
		return err
	}
	if r.stats != nil {
		r.stats.SkippedBytes += int64(n) + 1
	}
	r.rec++
	r.aligned = false
	return nil
}

// dictValue materializes one dictionary-encoded string/bytes value from
// its blob: empty means null, otherwise a uvarint id into the window
// dictionary. Looked-up strings are shared interned objects; bytes
// columns copy them out since callers may mutate byte slices.
func (r *slReader) dictValue(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	id, n := binary.Uvarint(buf)
	if n <= 0 || n != len(buf) {
		return nil, fmt.Errorf("colfile: malformed dictionary id")
	}
	s, err := r.dict.Lookup(uint32(id))
	if err != nil {
		return nil, err
	}
	if r.schema.Kind == serde.KindBytes {
		return []byte(s), nil
	}
	return s, nil
}

// parseDictMap materializes one dictionary-compressed map value. All bytes
// are charged at the dictionary-decode rate: key strings are shared
// interned objects, which is why the paper's DCSL decompression "proved to
// be extremely fast".
func parseDictMap(d *serde.Decoder, schema *serde.Schema, dict *compress.Dictionary) (map[string]any, error) {
	count, err := readCount(d)
	if err != nil {
		return nil, err
	}
	m := make(map[string]any, count)
	for i := 0; i < count; i++ {
		id, err := readCount(d)
		if err != nil {
			return nil, err
		}
		key, err := dict.Lookup(uint32(id))
		if err != nil {
			return nil, err
		}
		v, err := d.Value(schema.Elem)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// readCount reads a raw uvarint (entry counts and dictionary ids).
func readCount(d *serde.Decoder) (int, error) {
	v, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}
