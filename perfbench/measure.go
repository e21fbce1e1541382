package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// clockBase anchors every timestamp of a run; time.Since reads only the
// monotonic clock.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// hist is a log-linear latency histogram in nanoseconds: exact below
// 64 ns, then 64 buckets per power of two (under 1.6% relative error).
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSub     = 64
	histBuckets = 40 * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e lands in [64, 128)
	i := (e+1)*histSub + int(uint64(v)>>e) - histSub
	return min(i, histBuckets-1)
}

// histLow is the smallest value of bucket i.
func histLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(uint64(histSub+i%histSub) << e)
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolating linearly inside the
// bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(histBuckets - 1)
}

// median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// procStat is the CPU and scheduling ledger of one process.
type procStat struct {
	userUS, sysUS float64
	ctxSwitches   float64
}

func (a procStat) sub(b procStat) procStat {
	return procStat{a.userUS - b.userUS, a.sysUS - b.sysUS, a.ctxSwitches - b.ctxSwitches}
}

// selfStat reads this process's CPU time and context switches.
func selfStat() procStat {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return procStat{
		userUS:      float64(ru.Utime.Sec)*1e6 + float64(ru.Utime.Usec),
		sysUS:       float64(ru.Stime.Sec)*1e6 + float64(ru.Stime.Usec),
		ctxSwitches: float64(ru.Nvcsw + ru.Nivcsw),
	}
}

// clockTicksPerSec is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSec = 100

// childStat reads another process's CPU time from /proc/<pid>/stat and
// sums the context switches of its live threads from
// /proc/<pid>/task/*/status (the process-level status file counts only
// the main thread).
func childStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(string(f[11]), 64)
	st, err2 := strconv.ParseFloat(string(f[12]), 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	ps := procStat{userUS: ut * 1e6 / clockTicksPerSec, sysUS: st * 1e6 / clockTicksPerSec}
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		v, _ := statusField(t, "voluntary_ctxt_switches")
		nv, _ := statusField(t, "nonvoluntary_ctxt_switches")
		ps.ctxSwitches += v + nv
	}
	return ps, nil
}

// statusField reads one numeric field of a /proc status file.
func statusField(path, name string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := bytes.Cut(sc.Bytes(), []byte(":"))
		if !ok || string(k) != name {
			continue
		}
		fs := bytes.Fields(v)
		if len(fs) == 0 {
			break
		}
		return strconv.ParseFloat(string(fs[0]), 64)
	}
	return 0, fmt.Errorf("%s: no %s", path, name)
}

// runtimeSample is the benchmark process's own runtime ledger.
type runtimeSample struct {
	gcCycles   float64
	allocBytes float64
	pauses     *metrics.Float64Histogram
}

var runtimeNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		pauses:     s[2].Value.Float64Histogram(),
	}
}

// pauseQuantile returns the q-quantile in microseconds of the GC pauses
// between two samples (0 when none happened).
func pauseQuantile(a, b runtimeSample, q float64) float64 {
	var total uint64
	d := make([]uint64, len(b.pauses.Counts))
	for i := range d {
		d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen > rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]); the last is open.
			if up := b.pauses.Buckets[i+1]; !math.IsInf(up, 1) {
				return up * 1e6
			}
			return b.pauses.Buckets[i] * 1e6
		}
	}
	return 0
}
