// Package colfile implements the per-column file formats underlying CIF/COF
// (paper Sections 4.2, 5.2, 5.3). A column file stores the values of one
// column of one split, in one of four layouts:
//
//	Plain     concatenated self-delimiting values. Skipping a record
//	          requires walking its encoding, so lazy access yields no
//	          deserialization or I/O savings — the degradation mode the
//	          paper describes for non-skip-list files.
//	SkipList  values interleaved with skip blocks at 10/100/1000-record
//	          boundaries holding byte offsets ("Skip10 = 1099" in the
//	          paper's Figure 6), enabling O(1) skips per level.
//	Block     compressed blocks: frames of contiguous values compressed
//	          with LZO or ZLIB. A frame's header allows skipping it
//	          wholesale (lazy decompression), but touching any value in a
//	          frame decompresses the entire frame.
//	DCSL      dictionary compressed skip list, for map-typed columns: a
//	          skip list whose map values carry dictionary-compressed keys,
//	          with one key dictionary embedded per largest-level window.
//	          Values are accessible without decompressing a whole block.
//
// Every file is framed by a fixed header (magic "CF01": layout,
// parameters) and a fixed-size footer (magic "CFE2": record count plus the
// length of the statistics section that precedes it), so files are
// self-describing. Between the data region and the footer sits the stats
// section — per-record-group zone maps, key universes, and Bloom filters,
// led by a whole-file aggregate — written by all four layouts and read
// back footer-first without touching data. The byte-level specification of
// every layout and of the one stats generation ("CFS4") lives in
// docs/FORMAT.md; the format-spec CI check keeps that document covering
// every magic in this package.
//
// Role in the scheduler→file→group→value pipeline: this package is the
// statistics *storage* side. FileStats serves the scheduler tier (split
// elision reads only footers), StatsSource/FileStatsSource serve the
// reader's file and group tiers, and the DCSL reader's KeyVecProber serves
// the value tier (window-dictionary and group-Bloom key probes without
// materializing maps). The pruning *decisions* live in internal/scan; the
// readers here only expose statistics and never interpret predicates.
//
// Invariants the tests defend:
//
//   - Round trip (stats_test.go, bloomstats_test.go): every layout writes
//     a section whose decoded groups tile the record space exactly, whose
//     bounds contain every value they cover, and whose Bloom filters
//     may-contain every written value — with Options.NoBloom files
//     parsing to filter-less statistics.
//   - Parser totality (stats_fuzz_test.go): the stats parser never panics
//     on arbitrary bytes, and whatever parses re-encodes and re-parses to
//     the same geometry.
//   - Prober soundness (bloomstats_test.go): wherever a group's Bloom
//     filter refutes a map key, the DCSL prober and the materialized map
//     agree the key is absent, with the bloom fast path on or off.
//   - Reader equivalence (colfile_test.go, stream_test.go): all layouts
//     return identical values and honor SkipTo geometry, which is what
//     lets the cost model compare them fairly.
package colfile
