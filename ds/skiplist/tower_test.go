package skiplist

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/optik-go/optik/internal/core"
)

// towerCost allocates many towers through mk and returns the heap bytes
// and allocations each one cost, measured from the runtime's own
// counters: small objects are accounted at their size class, so the byte
// figure is the class the tower really occupies. The runtime allocates a
// little on its own now and then (a GC cycle starting, say), so the
// cheapest of three rounds is reported.
func towerCost(mk func() any) (bytes, allocs float64) {
	const n, rounds = 1024, 3
	keep := make([]any, n)
	bytes, allocs = math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = mk()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/n)
	}
	runtime.KeepAlive(keep)
	return bytes, allocs
}

// TestTowerLayout pins the tower layout, as TestBucketIsOneCacheLine pins
// the hash slab's: the OPTIK header is 56 bytes, so a height-1 tower (half
// of all towers) is exactly one cache line, and every tower class lands in
// its stated size class in a single allocation. A header field added later
// fails here instead of silently moving half the towers to 80 bytes.
func TestTowerLayout(t *testing.T) {
	if got := unsafe.Sizeof(oNode{}); got != 56 {
		t.Fatalf("oNode header = %d B, want 56", got)
	}
	if got := unsafe.Sizeof(struct {
		node oNode
		next [1]atomic.Pointer[oNode]
	}{}); got != core.CacheLineSize {
		t.Fatalf("height-1 OPTIK tower = %d B, want %d", got, core.CacheLineSize)
	}
	for _, c := range []struct {
		height int
		class  float64 // size class, in bytes
	}{
		{1, 64}, {2, 80}, {3, 96}, {4, 96}, {5, 128}, {8, 128},
		{9, 192}, {16, 192}, {17, 320}, {MaxLevel, 320},
	} {
		n := newONode(1, c.height)
		if len(n.next) != c.height {
			t.Fatalf("newONode(%d): len(next) = %d", c.height, len(n.next))
		}
		bytes, allocs := towerCost(func() any { return newONode(1, c.height) })
		// A stray allocation elsewhere in the process adds well under a
		// byte per tower; a second allocation per tower adds a whole one.
		if allocs > 1.01 || bytes < c.class || bytes > c.class+1 {
			t.Errorf("height %d OPTIK tower: %.2f B in %.3f allocations, want %.0f B in 1",
				c.height, bytes, allocs, c.class)
		}
	}
}

// TestTowerLayoutAllLists checks that the other three lists use the same
// single-allocation layout: their headers are no larger than OPTIK's, so
// each tower must cost one allocation and no more bytes than the OPTIK
// tower of the same height.
func TestTowerLayoutAllLists(t *testing.T) {
	for name, mk := range map[string]func(height int) any{
		"herlihy":    func(h int) any { return newHNode(1, 1, h) },
		"herl-optik": func(h int) any { return newHONode(1, 1, h) },
		"fraser":     func(h int) any { return newFNode(1, 1, h) },
	} {
		for _, h := range []int{1, 2, 5, MaxLevel} {
			optikBytes, _ := towerCost(func() any { return newONode(1, h) })
			bytes, allocs := towerCost(func() any { return mk(h) })
			if allocs > 1.01 || bytes > optikBytes+1 {
				t.Errorf("%s height %d: %.2f B in %.3f allocations, want <= %.0f B in 1",
					name, h, bytes, allocs, optikBytes)
			}
		}
	}
}
