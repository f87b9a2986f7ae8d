package colfile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// Block frame headers are file bytes: a corrupted record count, raw length,
// or payload length must surface as an error from Value, SkipTo, and
// DecodeVector — never a panic, never an allocation sized by the header.

// blockTestFile writes a zlib Block int column of 2000 values in 512-byte
// frames and returns its bytes with the offset of the first frame header.
func blockTestFile(t testing.TB) ([]byte, int) {
	t.Helper()
	f := &memFile{}
	w, err := NewWriter(f, serde.Int(), Options{Layout: Block, Codec: "zlib", BlockBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := w.Append(int32(i * 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Bytes(), len(appendHeader(nil, header{layout: Block, codec: "zlib"}))
}

// firstFrameHeader returns the first frame's (records, rawLen, compLen)
// header and the offset of its payload.
func firstFrameHeader(t testing.TB, data []byte, off int) ([3]uint64, int) {
	t.Helper()
	var hdr [3]uint64
	for i := range hdr {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatal("unparseable first frame header")
		}
		hdr[i] = v
		off += n
	}
	return hdr, off
}

// withFirstFrameHeader rewrites the first frame's header, keeping its
// payload and every later byte.
func withFirstFrameHeader(t testing.TB, data []byte, off int, hdr [3]uint64) []byte {
	t.Helper()
	_, payload := firstFrameHeader(t, data, off)
	out := append([]byte(nil), data[:off]...)
	for _, v := range hdr {
		out = binary.AppendUvarint(out, v)
	}
	return append(out, data[payload:]...)
}

// exerciseBlockReader drives Value, SkipTo and DecodeVector over a Block
// file, each from a fresh reader, and returns the first error of each path.
// opened is false when the bytes do not open as a Block file. It panics only
// if the reader does.
func exerciseBlockReader(data []byte) (valueErr, skipErr, vecErr error, opened bool) {
	schema := serde.Int()
	open := func() Reader {
		r, err := NewReader(bytes.NewReader(data), schema, nil)
		if err != nil {
			return nil
		}
		if _, ok := r.(*blockReader); !ok {
			return nil
		}
		return r
	}
	r := open()
	if r == nil {
		return nil, nil, nil, false
	}
	limit := r.Total()
	if limit > 4096 {
		limit = 4096
	}
	for i := int64(0); i < limit; i++ {
		if _, valueErr = r.Value(); valueErr != nil {
			break
		}
	}
	if r = open(); r != nil {
		if skipErr = r.SkipTo(r.Total() / 2); skipErr == nil && r.Total() > 0 {
			_, skipErr = r.Value()
		}
	}
	if r = open(); r != nil {
		if dec, ok := r.(VectorDecoder); ok {
			v := scan.NewVector(VecKindOf(schema), int(limit))
			vecErr = dec.DecodeVector(0, limit, v, nil)
		}
	}
	return valueErr, skipErr, vecErr, true
}

func TestBlockReaderRejectsBadFrameHeaders(t *testing.T) {
	data, off := blockTestFile(t)
	good, _ := firstFrameHeader(t, data, off)
	records, rawLen, compLen := good[0], good[1], good[2]
	cases := []struct {
		name string
		hdr  [3]uint64
	}{
		{"zero records", [3]uint64{0, rawLen, compLen}},
		{"records past total", [3]uint64{5000, rawLen, compLen}},
		{"negative records", [3]uint64{1 << 63, rawLen, compLen}},
		{"payload past end of file", [3]uint64{records, rawLen, uint64(len(data))}},
		{"negative payload length", [3]uint64{records, rawLen, 1<<63 + 5}},
		{"raw length beyond expansion bound", [3]uint64{records, 1 << 30, compLen}},
		{"raw length out of int range", [3]uint64{records, 1 << 50, compLen}},
		{"negative raw length", [3]uint64{records, 1<<63 + 5, compLen}},
	}
	for _, c := range cases {
		bad := withFirstFrameHeader(t, data, off, c.hdr)
		valueErr, _, vecErr, opened := exerciseBlockReader(bad)
		if !opened {
			t.Fatalf("%s: file no longer opens", c.name)
		}
		// Value and DecodeVector from record 0 must consume the first
		// frame, so they must see the corruption.
		if valueErr == nil {
			t.Errorf("%s: Value read every record without error", c.name)
		}
		if vecErr == nil {
			t.Errorf("%s: DecodeVector succeeded", c.name)
		}
	}
}

// TestBlockReaderByteFlips: random one-to-four byte flips of a valid file
// never panic any access path.
func TestBlockReaderByteFlips(t *testing.T) {
	data, _ := blockTestFile(t)
	trials := 2000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < trials; i++ {
		bad := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		exerciseBlockReader(bad)
	}
}

// FuzzBlockReader: any bytes handed to a Block reader yield values or an
// error from Value, SkipTo and DecodeVector, never a panic.
func FuzzBlockReader(f *testing.F) {
	data, off := blockTestFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	good, _ := firstFrameHeader(f, data, off)
	for field := range good {
		for _, v := range []uint64{0, 1 << 50, 1<<63 + 5} {
			hdr := good
			hdr[field] = v
			f.Add(withFirstFrameHeader(f, data, off, hdr))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exerciseBlockReader(data)
	})
}
