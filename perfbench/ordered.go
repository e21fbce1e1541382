package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/optik-go/optik/store"
)

// ordered-scan: store.SortedStrings over orderedKeys keys (1..n, half
// prefilled), zipf(0.9) GET 80 / SET 8 / DEL 2 / SCAN 10, each SCAN a
// 64-key range starting at a zipf-drawn key, values of 16-64 B.
const (
	orderedKeys    = 131072
	orderedPrefill = 65536
	scanSpan       = 64
)

var orderedMix = [nKinds]int{opGet: 80, opSet: 8, opDel: 2, opScan: 10}

type orderedWL struct {
	vals [writers]*strValues // indexed by key, so key 0 is unused
	fill []uint64
	ops  [workers]opRing
	st   *store.SortedStrings
}

func newOrdered(cfg config) *orderedWL {
	w := &orderedWL{}
	for g := range w.vals {
		w.vals[g] = newStrValues(orderedKeys+1, g, 16, 64)
	}
	z := newZipf(orderedKeys, 0.9)
	perm := permutation(newRand(cfg.seed, 0), orderedKeys)
	for g := 0; g < workers; g++ {
		w.ops[g] = buildRing(newRand(cfg.seed, uint64(1+g)), orderedMix,
			func(r *rand.Rand) int { return int(perm[z.rank(r)]) })
	}
	fillOrder := permutation(newRand(cfg.seed, 100), orderedKeys)
	w.fill = make([]uint64, orderedPrefill)
	for i := range w.fill {
		w.fill[i] = uint64(fillOrder[i])
	}
	return w
}

func (w *orderedWL) setup() error {
	w.close()
	w.st = store.NewSortedStrings(store.WithKeyMax(orderedKeys))
	for _, k := range w.fill {
		w.st.Set(k, w.vals[prefillID].value(int(k)))
	}
	return nil
}

func (w *orderedWL) worker(id int, ctl *passCtl, ws *workerStats, tr *tracer) {
	defer guardInproc(ws)
	ring := w.ops[id]
	keys := make([]uint64, scanSpan)
	vals := make([]string, scanSpan)
	prev := now()
	for seq := uint64(0); ; seq++ {
		win := ctl.current(&prev)
		if win < 0 {
			ws.requests = seq
			return
		}
		kind, k := unpackOp(ring[seq%opRingLen])
		ws.attempted++
		var req uint64
		var t0 int64
		var root int32 = spanDropped
		traced := tr != nil && ctl.sample(win, seq)
		if traced {
			req = uint64(id)<<48 | seq
			t0 = now()
			root = tr.open(spRequest, req, 1, t0)
		}
		s := &ws.win[win]
		key := uint64(k)
		var name uint8
		hit := false
		nkeys := 1
		switch kind {
		case opGet:
			name = spSortedGet
			var v string
			v, hit = w.st.Get(key)
			s.gets++
			if hit {
				s.hits++
				if !w.vals[0].ok(k, v) {
					ws.wrong(fmt.Sprintf("GET %d returned a value of %d bytes that is not its own", key, len(v)))
				}
			}
		case opSet:
			name = spSortedSet
			if !w.st.Set(key, w.vals[id].value(k)) {
				ws.inserted++
			}
		case opDel:
			name = spSortedDel
			if w.st.Del(key) {
				ws.deleted++
			}
		case opScan:
			name = spSortedScan
			to := min(key+scanSpan-1, orderedKeys)
			nkeys = w.st.Scan(key, to, keys, vals)
			w.checkScan(key, to, keys[:nkeys], vals[:nkeys], ws)
		}
		if traced {
			t1 := now()
			sp := tr.add(name, root, req, nkeys, t0, t1)
			if hit {
				tr.markHit(sp)
			}
			tr.close(root, t1)
			if (hit || kind == opScan) && len(ws.sampled) < ledgerSample {
				ws.sampled = append(ws.sampled, uint64(kind)<<opKeyBits|key)
			}
		}
		t := now()
		ws.done(win, kind, 1, t-prev)
		prev = t
	}
}

// checkScan verifies one SCAN page: strictly ascending, inside
// [from, to], and every value the right one for its key.
func (w *orderedWL) checkScan(from, to uint64, keys []uint64, vals []string, ws *workerStats) {
	last := uint64(0)
	for j, k := range keys {
		switch {
		case k < from || k > to:
			ws.wrong(fmt.Sprintf("SCAN [%d,%d] returned key %d outside its bounds", from, to, k))
		case j > 0 && k <= last:
			ws.wrong(fmt.Sprintf("SCAN [%d,%d] returned %d after %d", from, to, k, last))
		case !w.vals[0].ok(int(k), vals[j]):
			ws.wrong(fmt.Sprintf("SCAN [%d,%d] returned a wrong value for key %d", from, to, k))
		}
		last = k
	}
}

func (w *orderedWL) serving() procStat { return selfStat() }

func (w *orderedWL) counters() map[string]float64 {
	retired, reclaimed, reused := w.st.Index().ReclaimStats()
	return map[string]float64{
		"len":           float64(w.st.Len()),
		"nodes_retired": float64(retired), "nodes_reclaimed": float64(reclaimed), "nodes_reused": float64(reused),
		"values_allocated": float64(w.st.Values().Allocated()), "values_free": float64(w.st.Values().FreeLen()),
	}
}

func (w *orderedWL) memMB() float64 { return inprocMemMB() }

// ledger replays the sampled GET hits through the index and the value
// arena, and the sampled scans through the index alone: the difference
// from the traced store.sorted.scan is the value layer's share.
func (w *orderedWL) ledger(ws []*workerStats) []*tracer {
	return parallelLedger(ws, func(g int, sampled []uint64, tr *tracer) {
		keys := make([]uint64, scanSpan)
		slots := make([]uint64, scanSpan)
		for n, op := range sampled {
			kind, k := unpackOp(uint32(op))
			key := uint64(k)
			req := uint64(g)<<48 | 1<<47 | uint64(n)
			t0 := now()
			if kind == opScan {
				root := tr.open(spLedgerScan, req, 1, t0)
				got := w.st.Index().Scan(key, min(key+scanSpan-1, orderedKeys), keys, slots)
				t1 := now()
				tr.add(spOrderedScan, root, req, got, t0, t1)
				tr.close(root, t1)
				continue
			}
			root := tr.open(spLedgerGet, req, 1, t0)
			slot, ok := w.st.Index().Get(key)
			t1 := now()
			tr.add(spIndexGet, root, req, 1, t0, t1)
			end := t1
			if ok {
				w.st.Values().Load(slot, key)
				end = now()
				tr.add(spValuesLoad, root, req, 1, t1, end)
			}
			tr.close(root, end)
		}
	})
}

// check verifies the key ledger: after Quiesce the store holds exactly
// the prefill plus every fresh insert minus every delete that found its
// key.
func (w *orderedWL) check(ws []*workerStats) []string {
	want := int64(len(w.fill))
	for _, s := range ws {
		want += s.inserted - s.deleted
	}
	w.st.Quiesce()
	if got := int64(w.st.Len()); got != want {
		return []string{fmt.Sprintf("Len after Quiesce is %d, want prefill %d + inserts - deletes = %d", got, len(w.fill), want)}
	}
	return nil
}

func (w *orderedWL) close() {
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
}
