package compress

import (
	"encoding/binary"
	"fmt"
)

// LZO is a fast LZ77 byte codec standing in for the LZO library (see the
// package comment). The block format is token-oriented:
//
//	token      one byte: high nibble = literal count, low nibble = match
//	           length - minMatch; a nibble of 15 is extended by 255-run
//	           continuation bytes
//	literals   literal-count raw bytes
//	offset     2 bytes little-endian match distance (absent in the final
//	           sequence, which carries only literals)
//
// Compression is single-pass greedy with a 16-bit offset window and a
// 4-byte hash chain of depth 1, giving LZO-class speed and ratio.
type LZO struct{}

// Name implements Codec.
func (LZO) Name() string { return "lzo" }

const (
	lzMinMatch  = 4
	lzMaxOffset = 1 << 16
	lzHashBits  = 14
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// Compress implements Codec.
func (LZO) Compress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	var table [1 << lzHashBits]int32 // position + 1; 0 = empty
	anchor := 0
	i := 0
	// Stop matching near the end: we need 4 bytes to hash and the final
	// sequence must be literal-only.
	limit := len(src) - lzMinMatch
	for i <= limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand >= 0 && i-cand < lzMaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == v {
			// Extend the match forward.
			mlen := lzMinMatch
			for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
				mlen++
			}
			dst = lzEmit(dst, src[anchor:i], mlen, i-cand)
			i += mlen
			anchor = i
			continue
		}
		i++
	}
	// Final literal-only sequence.
	dst = lzEmit(dst, src[anchor:], 0, 0)
	return dst, nil
}

// lzEmit writes one sequence: literals plus an optional match.
func lzEmit(dst, literals []byte, matchLen, offset int) []byte {
	litLen := len(literals)
	tokenLit := litLen
	if tokenLit > 15 {
		tokenLit = 15
	}
	tokenMatch := 0
	if matchLen > 0 {
		tokenMatch = matchLen - lzMinMatch
		if tokenMatch > 15 {
			tokenMatch = 15
		}
	}
	dst = append(dst, byte(tokenLit<<4|tokenMatch))
	if tokenLit == 15 {
		dst = lzExtend(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen > 0 {
		if tokenMatch == 15 {
			dst = lzExtend(dst, matchLen-lzMinMatch-15)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(offset-1))
	}
	return dst
}

// lzExtend writes a 255-run length continuation.
func lzExtend(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// lzMaxRatio bounds the expansion: each 255-byte length continuation adds
// at most 255 bytes of match output, and no other input byte adds more.
const lzMaxRatio = 255

// Decompress implements Codec.
func (LZO) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if rawLen == 0 && len(src) == 0 {
		return dst, nil
	}
	if err := checkRawLen("lzo", rawLen, len(src), lzMaxRatio); err != nil {
		return dst, err
	}
	out := make([]byte, 0, rawLen)
	p := 0
	for p < len(src) {
		token := src[p]
		p++
		litLen := int(token >> 4)
		matchNib := int(token & 15)
		if litLen == 15 {
			n, np, err := lzReadExtend(src, p)
			if err != nil {
				return dst, err
			}
			litLen += n
			p = np
		}
		if p+litLen > len(src) {
			return dst, fmt.Errorf("compress: lzo: literal run past end of block")
		}
		out = append(out, src[p:p+litLen]...)
		p += litLen
		if p == len(src) {
			break // final literal-only sequence
		}
		matchLen := matchNib + lzMinMatch
		if matchNib == 15 {
			n, np, err := lzReadExtend(src, p)
			if err != nil {
				return dst, err
			}
			matchLen += n
			p = np
		}
		if p+2 > len(src) {
			return dst, fmt.Errorf("compress: lzo: truncated match offset")
		}
		offset := int(binary.LittleEndian.Uint16(src[p:])) + 1
		p += 2
		start := len(out) - offset
		if start < 0 {
			return dst, fmt.Errorf("compress: lzo: match offset %d before block start", offset)
		}
		// Byte-wise copy: matches may overlap their own output.
		for k := 0; k < matchLen; k++ {
			out = append(out, out[start+k])
		}
	}
	if len(out) != rawLen {
		return dst, fmt.Errorf("compress: lzo: decompressed %d bytes, want %d", len(out), rawLen)
	}
	return append(dst, out...), nil
}

func lzReadExtend(src []byte, p int) (int, int, error) {
	n := 0
	for {
		if p >= len(src) {
			return 0, 0, fmt.Errorf("compress: lzo: truncated length continuation")
		}
		b := src[p]
		p++
		n += int(b)
		if b != 255 {
			return n, p, nil
		}
	}
}
