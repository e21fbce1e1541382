package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host probe: a fixed loop that runs none of the program's code,
// timed in a slice after every measured window while the generators are
// parked. It reads how fast this machine runs right now; the drift it
// shows (another tenant on the cores or the memory system, a clock-speed
// change) moves the windows around it too.

// pauseWin is the passCtl window value that parks the generators.
const pauseWin = -2

// probeSlice is how long each probe runs.
const probeSlice = 150 * time.Millisecond

// probeTable is the probe's random-read table: 32 MiB, past the caches,
// so the probe feels memory contention as the stores do.
var probeTable = func() []uint64 {
	t := make([]uint64, 4<<20)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

// probeSink keeps the probe's result live.
var probeSink atomic.Uint64

// probeLoop runs probe units until stop is set and returns how many it
// ran. A unit is a few rounds of integer mixing, one dependent random
// read of probeTable and one system call (getppid), which cost about the
// same. Over ten 30 s runs per workload on a shared 2-vCPU machine, the
// read alone or the system call alone left the normalised metrics of
// ordered-scan spread twice as wide as the two together; a loop of
// integer mixing alone tracked the drift worst.
func probeLoop(seed uint64, stop *atomic.Bool) uint64 {
	x, s, n := seed|1, uint64(0), uint64(0)
	mask := uint64(len(probeTable) - 1)
	for !stop.Load() {
		for i := 0; i < 64; i++ {
			for j := 0; j < 4; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			s += probeTable[(x^s)&mask]
			// syscall.Syscall, unlike the raw form, lets the scheduler
			// preempt the loop when the coordinator's sleep ends.
			ppid, _, _ := syscall.Syscall(syscall.SYS_GETPPID, 0, 0, 0)
			s += uint64(ppid)
		}
		n += 64
	}
	probeSink.Add(s)
	return n
}

// current returns the window the next request belongs to. While the
// coordinator probes the host it parks the generator first, and restarts
// *prev, the issue time of the next request, once released.
func (c *passCtl) current(prev *int64) int32 {
	win := c.win.Load()
	if win != pauseWin {
		return win
	}
	c.parked.Add(1)
	<-c.resume
	*prev = now()
	return c.win.Load()
}

// probeRate is one probe's reading: probe units per second of wall time
// and per second of the probe threads' own CPU time. The first scales the
// wall-clock metrics, the second the CPU-time ones: a tenant that takes
// turns on the cores lowers the first only, a slower core lowers both.
type probeRate struct{ wall, cpu float64 }

// probe parks every generator, runs probeLoop on workers goroutines, each
// on its own thread, for probeSlice and returns the rates. It leaves the
// generators parked; release lets them go.
func (c *passCtl) probe() probeRate {
	c.resume = make(chan struct{})
	c.win.Store(pauseWin)
	for c.parked.Load()+c.exited.Load() < workers {
		time.Sleep(50 * time.Microsecond)
	}
	// The wire generators run on one P; the probe takes every core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var stop atomic.Bool
	var units, cpuNS atomic.Uint64
	var wg sync.WaitGroup
	t0 := now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			units.Add(probeLoop(uint64(t0)+uint64(i), &stop))
			cpuNS.Add(uint64(threadCPU() - c0))
		}(i)
	}
	time.Sleep(probeSlice)
	stop.Store(true)
	wg.Wait()
	n := float64(units.Load())
	return probeRate{wall: n / (float64(now()-t0) / 1e9), cpu: n / (float64(cpuNS.Load()) / 1e9)}
}

// threadCPU is the calling thread's user plus system CPU time in ns.
func threadCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// release sends the parked generators on into window win.
func (c *passCtl) release(win int32) {
	c.parked.Store(0)
	c.win.Store(win)
	close(c.resume)
}
