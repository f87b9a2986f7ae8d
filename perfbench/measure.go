package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// frac divides, reporting 0 for an empty denominator: a layer that did no
// work of a kind has a zero share of it.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procProbe samples the Go runtime over one measured phase: peak heap,
// allocation volume, GC pause time and CPU time.
type procProbe struct {
	start     time.Time
	cpu0      time.Duration
	alloc0    uint64
	pause0    uint64
	steal0    [2]int64
	stop      chan struct{}
	done      sync.WaitGroup
	mu        sync.Mutex
	peakBytes uint64
}

// probeNames is the subset of runtime/metrics the probe reads: the heap
// the last garbage collection found live. Its peak is the memory the
// workload holds, without the garbage that GOGC lets accumulate between
// collections.
var probeNames = []string{
	"/gc/heap/live:bytes",
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startProbe collects garbage left by set-up, then samples the live heap
// every few milliseconds until stopped.
func startProbe() *procProbe {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := &procProbe{
		start:     time.Now(),
		cpu0:      cpuTime(),
		alloc0:    m.TotalAlloc,
		pause0:    m.PauseTotalNs,
		steal0:    cpuSteal(),
		stop:      make(chan struct{}),
		peakBytes: m.HeapAlloc, // just collected, so all of it is live
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		samples := make([]metrics.Sample, len(probeNames))
		for i, n := range probeNames {
			samples[i].Name = n
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				metrics.Read(samples)
				if samples[0].Value.Kind() == metrics.KindUint64 {
					p.mu.Lock()
					if v := samples[0].Value.Uint64(); v > p.peakBytes {
						p.peakBytes = v
					}
					p.mu.Unlock()
				}
			}
		}
	}()
	return p
}

// procStats is what a probe measured.
type procStats struct {
	wall      time.Duration
	cpu       time.Duration
	allocMB   float64
	gcPauseMS float64
	peakMB    float64
	stealFrac float64 // share of the machine's CPU time the hypervisor took
}

func (p *procProbe) finish() procStats {
	wall := time.Since(p.start)
	close(p.stop)
	p.done.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	steal := cpuSteal()
	return procStats{
		stealFrac: frac(float64(steal[0]-p.steal0[0]), float64(steal[1]-p.steal0[1])),
		wall:      wall,
		cpu:       cpuTime() - p.cpu0,
		allocMB:   float64(m.TotalAlloc-p.alloc0) / (1 << 20),
		gcPauseMS: float64(m.PauseTotalNs-p.pause0) / 1e6,
		peakMB:    float64(p.peakBytes) / (1 << 20),
	}
}

// layer adds the Go-runtime per-layer metrics for ops operations.
func (s procStats) layer(out map[string]float64, ops int64) {
	out["proc.alloc_mb_per_op"] = frac(s.allocMB, float64(ops))
	out["proc.gc_pause_ms_per_s"] = frac(s.gcPauseMS, s.wall.Seconds())
	out["proc.cpu_util"] = frac(s.cpu.Seconds(), s.wall.Seconds()*float64(runtime.NumCPU()))
}

// cpuSteal reads the machine's cumulative steal and total CPU time from
// /proc/stat, in clock ticks. On a virtual machine, time the hypervisor
// gives to other guests slows every wall-clock figure; the summary table
// prints its share so that such runs can be told apart. It reads zeros
// where /proc/stat is missing.
func cpuSteal() [2]int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]int64{}
	}
	var total, steal int64
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return [2]int64{}
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return [2]int64{steal, total}
}

// mallocs reads the process's cumulative heap allocation count, for
// allocations-per-call figures around a loop.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
