package colfile

import (
	"fmt"
	"testing"

	"colmr/internal/serde"
)

// The stats-section parser is exposed to on-disk bytes (and, through
// FileStats, to bytes no reader has validated) and must never panic. The
// seed corpus covers CFS4 sections with each optional feature — Bloom
// filter, recorded fill fraction, histogram — present and absent, in the
// groups and in the aggregate, plus degenerate and saturated entries and
// truncations of each. Runs under plain `go test`; explores further under
// `go test -fuzz FuzzStatsSection`.

// stripNewerFeatures clones entries without the histogram and recorded
// fill fraction.
func stripNewerFeatures(entries []statsEntry) []statsEntry {
	out := append([]statsEntry(nil), entries...)
	for i := range out {
		out[i].st.BloomFill = 0
		out[i].st.Hist = nil
	}
	return out
}

// fuzzSeedSections builds valid sections for the given schema from real
// collector output, from feature-less to every feature present.
func fuzzSeedSections(schema *serde.Schema, gen func(i int) any) ([][]byte, error) {
	bloomed := newStatsCollector(schema, 20, 1<<10)
	plain := newStatsCollector(schema, 20, 0)
	// Whole-file-style collectors: one without any optional feature, one
	// with histogram sampling and a filter (histogram, recorded fill).
	plainFile := newStatsCollector(schema, 0, 0)
	full := newStatsCollector(schema, 0, 1<<10)
	full.histMax = 64
	for i := 0; i < 100; i++ {
		bloomed.observe(gen(i))
		plain.observe(gen(i))
		plainFile.observe(gen(i))
		full.observe(gen(i))
	}
	bloomed.cut()
	plain.cut()
	plainFile.cut()
	full.cut()
	sections := []struct {
		agg     *statsEntry
		entries []statsEntry
	}{
		{&plainFile.entries[0], plain.entries},
		{&plainFile.entries[0], stripNewerFeatures(bloomed.entries)},
		{&full.entries[0], plain.entries},
		{&full.entries[0], bloomed.entries},
	}
	var out [][]byte
	for _, sec := range sections {
		blob, err := appendStatsSection(nil, schema, &sec.agg.st, sec.entries)
		if err != nil {
			return nil, err
		}
		out = append(out, blob)
	}
	return out, nil
}

func FuzzStatsSection(f *testing.F) {
	strSchema := serde.String()
	mapSchema := serde.MapOf(serde.Int())
	strSeeds, err := fuzzSeedSections(strSchema, func(i int) any { return fmt.Sprintf("value-%d", i) })
	if err != nil {
		f.Fatal(err)
	}
	mapSeeds, err := fuzzSeedSections(mapSchema, func(i int) any {
		return map[string]any{fmt.Sprintf("k%d", i%7): int32(i)}
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(strSeeds, mapSeeds...) {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated mid-entry
		f.Add(s[:5])        // magic plus one byte
	}
	// An aggregate whose filter is all ones (saturated on disk: a parser
	// must take it as-is, saturation is a write-side policy).
	sat := []byte(statsMagic)
	sat = append(sat, 1, 0, 1) // rows=1 nulls=0 distinct=1
	sat = append(sat, 1<<4)    // flags: bloom only
	sat = append(sat, 7, 8)    // k=7, 8 words (one block)
	for i := 0; i < 64; i++ {
		sat = append(sat, 0xFF)
	}
	sat = append(sat, 0) // zero groups
	f.Add(sat)
	// Absurd bloom geometry: word count far past the file cap.
	huge := []byte(statsMagic)
	huge = append(huge, 1, 0, 1, 1<<4, 7, 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(huge)
	// A degenerate aggregate: one-bucket histogram whose single bucket
	// covers one value — the smallest histogram a writer can emit.
	deg := []byte(statsMagic)
	deg = append(deg, 5, 0, 1) // rows=5 nulls=0 distinct=1
	deg = append(deg, 1|1<<5)  // flags: minmax + hist
	lit := func(dst []byte) []byte {
		// A length-prefixed serde bound, the same spelling appendStatsEntry
		// uses for min/max and histogram bucket bounds.
		enc, err := serde.AppendValue(nil, strSchema, "a")
		if err != nil {
			f.Fatal(err)
		}
		dst = append(dst, byte(len(enc)))
		return append(dst, enc...)
	}
	deg = lit(deg)       // min
	deg = lit(deg)       // max
	deg = append(deg, 1) // one bucket
	deg = append(deg, 5) // bucket count=5
	deg = lit(deg)       // bucket lo
	deg = lit(deg)       // bucket hi
	deg = append(deg, 0) // zero groups
	f.Add(deg)
	// Same aggregate with an implausible bucket count (0): must be rejected
	// or tolerated without panic, never trusted.
	badHist := []byte(statsMagic)
	badHist = append(badHist, 5, 0, 1, 1<<5, 0xFF, 0xFF, 0x7F)
	f.Add(badHist)
	f.Add([]byte("CFS9junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, schema := range []*serde.Schema{strSchema, mapSchema} {
			entries, agg, err := parseStatsSection(data, schema)
			if err != nil {
				continue
			}
			// Whatever parses must re-encode and re-parse to the same
			// number of entries with the same geometry — the round trip
			// the writer depends on.
			blob, err := appendStatsSection(nil, schema, agg, entries)
			if err != nil {
				// Decoded values of another schema's kind can fail to
				// re-encode under this one; that is a caller-side type
				// error, not corruption.
				continue
			}
			again, _, err := parseStatsSection(blob, schema)
			if err != nil {
				t.Fatalf("re-encoded section does not parse: %v", err)
			}
			if len(again) != len(entries) {
				t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
			}
			for i := range again {
				if again[i].st.Rows != entries[i].st.Rows ||
					(again[i].st.Bloom == nil) != (entries[i].st.Bloom == nil) ||
					(again[i].st.Hist == nil) != (entries[i].st.Hist == nil) {
					t.Fatalf("round trip changed entry %d", i)
				}
			}
		}
	})
}
