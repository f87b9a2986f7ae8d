package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment renders what a result depends on besides the code's inputs:
// toolchain, processors, CPU model, seed, the code's identity and the
// fixed options of the system under test. Results taken under different
// environments are not comparable.
func environment(cfg config) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	env := map[string]any{
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"workload":      cfg.workload,
		"git_commit":    commit,
		"source_sha256": sourceDigest("."),
		"options":       fixedOptions,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// fixedOptions are the settings of the system under test that every run
// holds fixed.
var fixedOptions = map[string]any{
	"crawl_job": map[string]any{
		"records": crawlRecords, "content_bytes": crawlContentBytes, "splits": crawlSplits,
		"reducers": crawlReducers, "columns": "url,metadata", "lazy": true,
		"layouts": "metadata=dcsl annotations=skiplist inlink=block-lzo others=plain",
	},
	"serve_mix": map[string]any{
		"records": serveRecords, "splits": serveSplits, "window_ms": serveWindow * 1e3,
		"max_batches": serveMaxBatches, "cache_bytes": serveCacheBytes, "rate_qps": serveRate,
		"latency_limit_ms": serveLimitMS, "client_conns": "nproc",
	},
	"ingest_live": map[string]any{
		"arrivals": ingestArrivals, "content_bytes": ingestContentBytes, "recrawl": ingestRecrawl, "skew": ingestSkew,
		"memtable": ingestMemtable, "compact_every": ingestCompactEvery, "bucket_ms": ingestBucketMillis,
		"split_records": ingestSplitRecords, "cache_bytes": serveCacheBytes, "query_every": ingestQueryEvery,
	},
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
