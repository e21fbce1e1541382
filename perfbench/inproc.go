package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/optik-go/optik/store"
)

// opRing is a generator's pre-built op stream: kind in the top 3 bits,
// key index in the rest.
type opRing []uint32

const opKeyBits = 29

func packOp(kind uint8, key int) uint32 { return uint32(kind)<<opKeyBits | uint32(key) }

func unpackOp(o uint32) (uint8, int) { return uint8(o >> opKeyBits), int(o & (1<<opKeyBits - 1)) }

const opRingLen = 1 << 22

func buildRing(r *rand.Rand, mix [nKinds]int, draw func(*rand.Rand) int) opRing {
	ring := make(opRing, opRingLen)
	for i := range ring {
		kind := pickKind(r, mix)
		ring[i] = packOp(kind, draw(r))
	}
	return ring
}

// ledgerSample is how many GET hits (and scans) each generator keeps for
// the layer-by-layer replay after a traced pass.
const ledgerSample = 1 << 14

// store-churn-ttl: store.Strings under a 64 MiB byte budget, 1,048,576
// keys with 64-256 B values (a working set about 4x the budget), the
// YCSB hotspot pattern (98% of ops on 20% of keys), GET 88 / SET 7 /
// SETEX(1 s) 3 / DEL 2, and read-through: a GET miss refills its key.
const (
	churnKeys   = 1 << 20
	churnBudget = 64 << 20
)

var churnMix = [nKinds]int{opGet: 88, opSet: 7, opSetEX: 3, opDel: 2}

type churnWL struct {
	keys []string
	vals [writers]*strValues
	hot  []int // key indexes of the hot set, also the prefill
	ops  [workers]opRing
	st   *store.Strings
}

func newChurn(cfg config) *churnWL {
	w := &churnWL{keys: decimalKeys(churnKeys, "key:")}
	for g := range w.vals {
		w.vals[g] = newStrValues(churnKeys, g, 64, 256)
	}
	perm := permutation(newRand(cfg.seed, 0), churnKeys)
	hs := hotspot{n: churnKeys, hot: churnKeys / 5, hotShare: 0.98}
	w.hot = make([]int, hs.hot)
	for i := range w.hot {
		w.hot[i] = int(perm[i]) - 1
	}
	for g := 0; g < workers; g++ {
		w.ops[g] = buildRing(newRand(cfg.seed, uint64(1+g)), churnMix,
			func(r *rand.Rand) int { return int(perm[hs.draw(r)]) - 1 })
	}
	return w
}

func (w *churnWL) setup() error {
	w.close()
	w.st = store.NewStrings(store.WithByteBudget(churnBudget))
	for _, i := range w.hot {
		w.st.Set(w.keys[i], w.vals[prefillID].value(i))
	}
	return nil
}

// guardInproc turns a panic out of the store into a counted failure that
// ends this generator's pass: an in-process panic is a program bug, and
// the store may not be usable after it.
func guardInproc(ws *workerStats) {
	if r := recover(); r != nil {
		ws.fail(1, fmt.Sprint(r))
	}
}

func (w *churnWL) worker(id int, ctl *passCtl, ws *workerStats, tr *tracer) {
	defer guardInproc(ws)
	ring := w.ops[id]
	prev := now()
	for seq := uint64(0); ; seq++ {
		win := ctl.current(&prev)
		if win < 0 {
			ws.requests = seq
			return
		}
		kind, i := unpackOp(ring[seq%opRingLen])
		ws.attempted++
		if tr != nil && ctl.sample(win, seq) {
			w.traced(id, uint64(id)<<48|seq, kind, i, ws, &ws.win[win], tr)
		} else {
			w.op(id, kind, i, ws, &ws.win[win])
		}
		t := now()
		ws.done(win, kind, 1, t-prev)
		prev = t
	}
}

func (w *churnWL) op(id int, kind uint8, i int, ws *workerStats, s *winStats) {
	st, key := w.st, w.keys[i]
	switch kind {
	case opGet:
		v, ok := st.Get(key)
		w.got(i, v, ok, ws, s)
		if !ok {
			st.Set(key, w.vals[id].value(i))
		}
	case opSet:
		st.Set(key, w.vals[id].value(i))
	case opSetEX:
		st.SetEX(key, w.vals[id].value(i), 1)
	case opDel:
		st.Del(key)
	}
}

// got accounts one GET reply and checks a hit's value.
func (w *churnWL) got(i int, v string, ok bool, ws *workerStats, s *winStats) {
	s.gets++
	if !ok {
		return
	}
	s.hits++
	if !w.vals[0].ok(i, v) {
		ws.wrong(fmt.Sprintf("GET %s returned a value of %d bytes that is not its own", w.keys[i], len(v)))
	}
}

// traced is op inside spans: the request's own span around a span per
// store call. GET hits are kept for the layer-by-layer replay.
func (w *churnWL) traced(id int, req uint64, kind uint8, i int, ws *workerStats, s *winStats, tr *tracer) {
	st, key, mine := w.st, w.keys[i], w.vals[id]
	t0 := now()
	root := tr.open(spRequest, req, 1, t0)
	var t1 int64
	switch kind {
	case opGet:
		v, ok := st.Get(key)
		t1 = now()
		sp := tr.add(spStringsGet, root, req, 1, t0, t1)
		w.got(i, v, ok, ws, s)
		if ok {
			tr.markHit(sp)
			if len(ws.sampled) < ledgerSample {
				ws.sampled = append(ws.sampled, uint64(i))
			}
		} else {
			st.Set(key, mine.value(i))
			t2 := now()
			tr.add(spStringsSet, root, req, 1, t1, t2)
			t1 = t2
		}
	case opSet:
		st.Set(key, mine.value(i))
		t1 = now()
		tr.add(spStringsSet, root, req, 1, t0, t1)
	case opSetEX:
		st.SetEX(key, mine.value(i), 1)
		t1 = now()
		tr.add(spStringsSetEX, root, req, 1, t0, t1)
	case opDel:
		st.Del(key)
		t1 = now()
		tr.add(spStringsDel, root, req, 1, t0, t1)
	}
	tr.close(root, t1)
}

// serving is this process: the store runs inside the benchmark.
func (w *churnWL) serving() procStat { return selfStat() }

func (w *churnWL) counters() map[string]float64 {
	idx := w.st.Index()
	retired, reclaimed, reused := idx.ReclaimStats()
	lazy, swept, evicted := w.st.TTLStats()
	return map[string]float64{
		"len": float64(w.st.Len()), "buckets": float64(idx.Buckets()), "resizes": float64(idx.Resizes()),
		"nodes_retired": float64(retired), "nodes_reclaimed": float64(reclaimed), "nodes_reused": float64(reused),
		"values_allocated": float64(w.st.Values().Allocated()), "values_free": float64(w.st.Values().FreeLen()),
		"bytes_used": float64(w.st.BytesUsed()), "byte_budget": float64(w.st.ByteBudget()),
		"expired_lazy": float64(lazy), "expired_swept": float64(swept), "evicted": float64(evicted),
	}
}

func (w *churnWL) memMB() float64 { return inprocMemMB() }

// inprocMemMB is the live heap after a forced GC, above the live heap
// the benchmark held before it built any store (its generated inputs).
func inprocMemMB() float64 {
	return (liveHeap() - baseHeap) / (1 << 20)
}

func (w *churnWL) ledger(ws []*workerStats) []*tracer {
	return parallelLedger(ws, func(g int, keys []uint64, tr *tracer) {
		for n, i := range keys {
			getLedger(w.st, w.keys[i], uint64(g)<<48|1<<47|uint64(n), tr)
		}
	})
}

// parallelLedger runs one replay goroutine per generator over the keys
// that generator sampled, each with its own tracer.
func parallelLedger(ws []*workerStats, replay func(g int, sampled []uint64, tr *tracer)) []*tracer {
	ts := make([]*tracer, len(ws))
	var wg sync.WaitGroup
	for g := range ws {
		ts[g] = newTracer(4 * ledgerSample)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			replay(g, ws[g].sampled, ts[g])
		}(g)
	}
	wg.Wait()
	return ts
}

// check: after Quiesce the byte budget holds to within 10%.
func (w *churnWL) check([]*workerStats) []string {
	w.st.Quiesce()
	if used := w.st.BytesUsed(); used > churnBudget*11/10 {
		return []string{fmt.Sprintf("bytes_used %d after Quiesce exceeds the %d-byte budget by more than 10%%", used, churnBudget)}
	}
	return nil
}

func (w *churnWL) close() {
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
}
