package main

import (
	"fmt"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// layoutNames are the per-layer metric names of the colfile layouts; the
// two block codecs share "block".
var layoutNames = map[colfile.Layout]string{
	colfile.Plain:    "plain",
	colfile.SkipList: "skiplist",
	colfile.Block:    "block",
	colfile.DCSL:     "dcsl",
}

// layoutTime accumulates the calls the replay made on one layout.
type layoutTime struct {
	values, skips, rows int64
	value, skip, decode time.Duration
	allocs              uint64
}

// layoutTimes times colfile calls per layout, one call at a time.
type layoutTimes map[string]*layoutTime

func (lt layoutTimes) get(l colfile.Layout) *layoutTime {
	name := layoutNames[l]
	t := lt[name]
	if t == nil {
		t = &layoutTime{}
		lt[name] = t
	}
	return t
}

// openColumn opens one column file of a split-directory.
func openColumn(fs *hdfs.FileSystem, schema *serde.Schema, dir, col string, cpu *sim.CPUStats) (colfile.Reader, error) {
	idx := schema.FieldIndex(col)
	if idx < 0 {
		return nil, fmt.Errorf("no column %q", col)
	}
	f, err := fs.Open(dir+"/"+col, hdfs.AnyNode)
	if err != nil {
		return nil, err
	}
	return colfile.NewReader(f, schema.Fields[idx].Type, cpu)
}

// scan reads one column file of a split. With ordinals nil it decodes every
// value in order and passes each to visit; otherwise it visits only the
// given ordinals with SkipTo then Value — the lazy-record access pattern.
func (lt layoutTimes) scan(fs *hdfs.FileSystem, schema *serde.Schema, dir, col string, layout colfile.Layout,
	tr *tracer, op string, parent int64, ordinals []int64, visit func(int64, any)) error {
	var cpu sim.CPUStats
	t0 := time.Now()
	r, err := openColumn(fs, schema, dir, col, &cpu)
	t1 := time.Now()
	tr.record(op, parent, "colfile.NewReader", t0, t1)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", dir, col, err)
	}
	acc := lt.get(layout)
	a0 := mallocs()
	if ordinals == nil {
		for i := int64(0); i < r.Total(); i++ {
			s := time.Now()
			v, err := r.Value()
			acc.value += time.Since(s)
			if err != nil {
				return fmt.Errorf("%s/%s value %d: %w", dir, col, i, err)
			}
			acc.values++
			if visit != nil {
				visit(i, v)
			}
		}
	} else {
		for _, ord := range ordinals {
			s := time.Now()
			if err := r.SkipTo(ord); err != nil {
				return fmt.Errorf("%s/%s skip to %d: %w", dir, col, ord, err)
			}
			m := time.Now()
			_, err := r.Value()
			acc.skip += m.Sub(s)
			acc.value += time.Since(m)
			if err != nil {
				return fmt.Errorf("%s/%s value %d: %w", dir, col, ord, err)
			}
			acc.skips++
			acc.values++
		}
	}
	acc.allocs += mallocs() - a0
	tr.record(op, parent, "colfile."+layoutNames[layout]+".read", t1, time.Now())
	return nil
}

// report adds the per-layout metrics. Every layout is reported; one the
// workload never read reports 0.
func (lt layoutTimes) report(o *outcome, scalar, vector bool) {
	for _, name := range layoutNames {
		t := lt[name]
		if t == nil {
			t = &layoutTime{}
		}
		if scalar {
			o.layer["colfile."+name+".value_ns"] = frac(float64(t.value.Nanoseconds()), float64(t.values))
			o.layer["colfile."+name+".skipto_ns"] = frac(float64(t.skip.Nanoseconds()), float64(t.skips))
			o.layer["colfile."+name+".allocs_per_value"] = frac(float64(t.allocs), float64(t.values))
		}
		if vector {
			o.layer["colfile."+name+".decode_vector_ns"] = frac(float64(t.decode.Nanoseconds()), float64(t.rows))
		}
	}
}
