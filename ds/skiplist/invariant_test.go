package skiplist

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/internal/qsbr"
	"github.com/optik-go/optik/internal/rng"
)

// towerView is what checkTowers needs to see of one node on a level walk.
type towerView struct {
	key    uint64
	height int
	marked bool
}

// checkTowers verifies structural invariants of a quiesced skip list,
// given walk(l, visit), which calls visit for every node linked at level l
// in list order before following the node's level-l pointer: every level
// sorted strictly ascending, no node linked above its height, every
// level-l chain a subsequence of the level-(l-1) chain, and every unmarked
// node linked at exactly height = len(next) levels.
func checkTowers(t *testing.T, walk func(level int, visit func(towerView))) {
	t.Helper()
	var chains [MaxLevel][]uint64
	heights := map[uint64]int{}
	for l := 0; l < MaxLevel; l++ {
		prev := uint64(0)
		walk(l, func(v towerView) {
			if v.key <= prev {
				t.Fatalf("level %d not strictly sorted: %d after %d", l, v.key, prev)
			}
			if l >= v.height {
				t.Fatalf("node %d linked at level %d above its height %d", v.key, l, v.height)
			}
			prev = v.key
			chains[l] = append(chains[l], v.key)
			if l == 0 && !v.marked {
				heights[v.key] = v.height
			}
		})
	}
	// Subsequence property.
	for l := 1; l < MaxLevel; l++ {
		lower := map[uint64]bool{}
		for _, k := range chains[l-1] {
			lower[k] = true
		}
		for _, k := range chains[l] {
			if !lower[k] {
				t.Fatalf("key %d at level %d missing from level %d", k, l, l-1)
			}
		}
	}
	// Tower completeness.
	count := map[uint64]int{}
	for l := 0; l < MaxLevel; l++ {
		for _, k := range chains[l] {
			count[k]++
		}
	}
	for k, h := range heights {
		if count[k] != h {
			t.Fatalf("node %d linked at %d levels, height is %d", k, count[k], h)
		}
	}
}

func TestHerlihyTowerInvariantsAfterChurn(t *testing.T) {
	s := NewHerlihy()
	churnSet(t, s)
	checkTowers(t, func(l int, visit func(towerView)) {
		for cur := s.head.next[l].Load(); cur != s.tail; cur = cur.next[l].Load() {
			visit(towerView{cur.key, len(cur.next), cur.marked.Load()})
		}
	})
}

func checkOptikTowers(t *testing.T, s *Optik) {
	t.Helper()
	checkTowers(t, func(l int, visit func(towerView)) {
		for cur := s.head.next[l].Load(); cur != s.tail; cur = cur.next[l].Load() {
			visit(towerView{cur.key, len(cur.next), cur.marked.Load()})
		}
	})
}

// optikHeights returns the heights of the live towers of a quiesced list.
func optikHeights(s *Optik) []int {
	var hs []int
	for cur := s.head.next[0].Load(); cur != s.tail; cur = cur.next[0].Load() {
		if !cur.marked.Load() {
			hs = append(hs, len(cur.next))
		}
	}
	return hs
}

// checkGeometricHeights checks that live tower heights still follow the
// geometric(1/2) draw: the mean within 0.2 of 2 and, for k = 2..4, the
// count of towers of height >= k within six binomial standard deviations
// of n/2^(k-1). With the ~2000 towers the pool churn leaves live, 0.2 is
// also about six standard deviations of the mean.
func checkGeometricHeights(t *testing.T, hs []int) {
	t.Helper()
	n := float64(len(hs))
	sum := 0
	atLeast := make([]int, MaxLevel+1)
	for _, h := range hs {
		sum += h
		for k := 1; k <= h; k++ {
			atLeast[k]++
		}
	}
	if mean := float64(sum) / n; math.Abs(mean-2) > 0.2 {
		t.Fatalf("mean live height %.3f over %d towers, want 2 ± 0.2", mean, len(hs))
	}
	for k := 2; k <= 4; k++ {
		p := math.Ldexp(1, 1-k)
		want, sd := n*p, math.Sqrt(n*p*(1-p))
		if got := float64(atLeast[k]); math.Abs(got-want) > 6*sd {
			t.Fatalf("%d of %d live towers have height >= %d, want %.0f ± %.0f", atLeast[k], len(hs), k, want, 6*sd)
		}
	}
}

func TestOptikTowerInvariantsAfterChurn(t *testing.T) {
	for name, mk := range map[string]func() *Optik{
		"optik1": NewOptik1,
		"optik2": NewOptik2,
	} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			churnSet(t, s)
			checkOptikTowers(t, s)
		})
	}
	// The pooled list is the only one that recycles towers, each keeping
	// its height for life. Churn over a wider key space until towers come
	// back out of the free list, then check that recycled towers are
	// linked at exactly their own height and that the live heights are
	// still geometric.
	t.Run("pool", func(t *testing.T) {
		s := NewOptikPool(qsbr.NewPool(qsbr.NewDomain(), 8))
		for round := 1; ; round++ {
			churnKeys(s, 4096)
			if _, _, reused := s.ReclaimStats(); reused > 0 {
				break
			}
			if round == 10 {
				t.Fatal("no tower reused after 10 churn rounds")
			}
		}
		checkOptikTowers(t, s)
		hs := optikHeights(s)
		_, _, reused := s.ReclaimStats()
		t.Logf("%d live towers, %d towers reused", len(hs), reused)
		checkGeometricHeights(t, hs)
	})
}

func TestFraserChainInvariantsAfterChurn(t *testing.T) {
	s := NewFraser()
	churnSet(t, s)
	// Level chains sorted, and unmarked level-l nodes present at l-1.
	var chains [MaxLevel][]uint64
	for l := 0; l < MaxLevel; l++ {
		prev := uint64(0)
		for cur := s.head.next[l].Load().node; cur != s.tail; {
			ref := cur.next[l].Load()
			if !ref.marked {
				if cur.key <= prev {
					t.Fatalf("level %d unmarked chain not sorted: %d after %d", l, cur.key, prev)
				}
				prev = cur.key
				chains[l] = append(chains[l], cur.key)
			}
			cur = ref.node
		}
	}
	for l := 1; l < MaxLevel; l++ {
		lower := map[uint64]bool{}
		for _, k := range chains[l-1] {
			lower[k] = true
		}
		for _, k := range chains[l] {
			if !lower[k] {
				t.Fatalf("key %d at level %d missing from level %d", k, l, l-1)
			}
		}
	}
}

// churnSet hammers s concurrently, then quiesces.
func churnSet(t *testing.T, s ds.Set) {
	t.Helper()
	churnKeys(s, 256)
}

// churnKeys runs 8 goroutines of 3000 random inserts, deletes and
// searches over keys [1, keyRange], then returns once all have finished.
func churnKeys(s ds.Set, keyRange uint64) {
	const goroutines, iters = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.NewXorshift(seed)
			for i := 0; i < iters; i++ {
				key := r.Intn(keyRange) + 1
				switch r.Intn(3) {
				case 0:
					s.Insert(key, key)
				case 1:
					s.Delete(key)
				default:
					s.Search(key)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

func TestQuickSequentialEquivalence(t *testing.T) {
	// Property: any op sequence on the skip list matches a map model.
	for name, mk := range map[string]func() ds.Set{
		"herlihy":    func() ds.Set { return NewHerlihy() },
		"herl-optik": func() ds.Set { return NewHerlihyOptik() },
		"fraser":     func() ds.Set { return NewFraser() },
		"optik2":     func() ds.Set { return NewOptik2() },
	} {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				s := mk()
				model := map[uint64]uint64{}
				for _, raw := range ops {
					key := uint64(raw%32) + 1
					switch (raw / 32) % 3 {
					case 0:
						got := s.Insert(key, key*3)
						_, present := model[key]
						if got == present {
							return false
						}
						if got {
							model[key] = key * 3
						}
					case 1:
						gotV, got := s.Delete(key)
						wantV, want := model[key]
						if got != want || (got && gotV != wantV) {
							return false
						}
						delete(model, key)
					default:
						gotV, got := s.Search(key)
						wantV, want := model[key]
						if got != want || (got && gotV != wantV) {
							return false
						}
					}
				}
				return s.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
