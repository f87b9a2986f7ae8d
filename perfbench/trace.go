package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call boundary. Op names the operation (job, query or
// arrival batch) the call belongs to; Parent is the enclosing span's ID, 0
// for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(op string, parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.base).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// record adds a span whose bounds the caller measured itself (a loop over
// many calls timed as one interval, or an interval measured on another
// goroutine).
func (t *tracer) record(op string, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.recordAs(id, op, parent, name, start, end)
	return id
}

// newID reserves a span ID, for a span whose children are recorded before
// it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// recordAs adds a span under an ID from newID.
func (t *tracer) recordAs(id int64, op string, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
}

// finish computes every span's self time — its duration minus the part of
// its interval that its children's intervals cover — and returns the spans
// in ID order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curLo, curHi := int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
