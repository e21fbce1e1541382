package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span names. The benchmark records spans only from its own code,
// around calls into the program's public functions; a request's spans
// share its request id, and parent links nest a call inside the request
// (or ledger replay) that made it.
const (
	spRequest      = iota // one generator request, issue to last reply
	spClientGet           // server.Client.Get
	spClientSet           // server.Client.Set
	spClientDel           // server.Client.Del
	spClientMGet          // server.Client.MGet (one pipeline)
	spClientMSet          // server.Client.MSet
	spClientMDel          // server.Client.MDel
	spStringsGet          // store.Strings.Get (or MGet/MGetHashed per pipeline)
	spStringsSet          // store.Strings.Set (or MSetHashed)
	spStringsSetEX        // store.Strings.SetEX
	spStringsDel          // store.Strings.Del (or MDelHashed)
	spSortedGet           // store.SortedStrings.Get
	spSortedSet           // store.SortedStrings.Set
	spSortedDel           // store.SortedStrings.Del
	spSortedScan          // store.SortedStrings.Scan
	spReplay              // one wire request replayed against an in-process store
	spLedgerGet           // one GET hit replayed layer by layer
	spHash                // store.HashKey
	spIndexGet            // Strings.Index().Get or SortedStrings.Index().Get
	spValuesLoad          // Values().Load
	spLedgerScan          // one SCAN replayed against the index alone
	spOrderedScan         // SortedStrings.Index().Scan
	nSpans
)

var spanNames = [nSpans]string{
	"request", "client.get", "client.set", "client.del", "client.mget", "client.mset", "client.mdel",
	"store.strings.get", "store.strings.set", "store.strings.setex", "store.strings.del",
	"store.sorted.get", "store.sorted.set", "store.sorted.del", "store.sorted.scan",
	"replay", "ledger.get", "store.hash", "store.index.get", "store.values.load",
	"ledger.scan", "store.ordered.scan",
}

type span struct {
	name       uint8
	hit        bool  // a GET call that found its key
	parent     int32 // index in the same tracer; -1 for a root
	keys       uint32
	req        uint64
	start, end int64
}

// tracer holds one goroutine's spans in memory until the pass ends. It
// never grows: once full it counts what it drops, so tracing cannot
// swap or slow down as the pass runs.
type tracer struct {
	spans   []span
	dropped uint64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// dropped parent marker: children of a dropped span are dropped too.
const spanDropped = -2

// add records a finished span and returns its index, for children to
// name as parent.
func (t *tracer) add(name uint8, parent int32, req uint64, keys int, start, end int64) int32 {
	if t == nil {
		return spanDropped
	}
	if parent == spanDropped || len(t.spans) == cap(t.spans) {
		t.dropped++
		return spanDropped
	}
	t.spans = append(t.spans, span{name: name, parent: parent, keys: uint32(keys), req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not known yet (a parent whose
// children are recorded first); close sets the end.
func (t *tracer) open(name uint8, req uint64, keys int, start int64) int32 {
	return t.add(name, -1, req, keys, start, start)
}

// markHit flags span i as a GET that found its key.
func (t *tracer) markHit(i int32) {
	if i >= 0 {
		t.spans[i].hit = true
	}
}

func (t *tracer) close(i int32, end int64) {
	if i >= 0 {
		t.spans[i].end = end
	}
}

// spanAgg is the per-name summary: calls, keys, summed duration and
// summed self time (duration minus the time the span's children cover).
type spanAgg struct {
	calls, keys      float64
	dur, selfDur     float64
	hitCalls, hitDur float64
}

func aggregate(ts []*tracer) (agg [nSpans]spanAgg, spans, dropped int) {
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			a := &agg[s.name]
			d := float64(s.end - s.start)
			a.calls++
			a.keys += float64(s.keys)
			a.dur += d
			a.selfDur += d - float64(child[i])
			if s.hit {
				a.hitCalls++
				a.hitDur += d
			}
		}
		spans += len(t.spans)
		dropped += int(t.dropped)
	}
	return agg, spans, dropped
}

// perCall is the mean duration of a span less the measured cost of
// taking a span; perKey divides the same time by the keys carried.
func (a spanAgg) perCall(cost float64) float64 {
	if a.calls == 0 {
		return 0
	}
	return a.dur/a.calls - cost
}

func (a spanAgg) perHit(cost float64) float64 {
	if a.hitCalls == 0 {
		return 0
	}
	return a.hitDur/a.hitCalls - cost
}

func (a spanAgg) perKey(cost float64) float64 {
	if a.keys == 0 {
		return 0
	}
	return (a.dur - cost*a.calls) / a.keys
}

// spanCost measures what taking one span adds to the interval it
// times: the cost of one clock read.
func spanCost() float64 {
	const n = 200000
	var sum int64
	prev := now()
	for i := 0; i < n; i++ {
		t := now()
		sum += t - prev
		prev = t
	}
	return float64(sum) / n
}

// writeSpans writes every span of the pass as tab-separated lines:
// name, request id, parent index (-1 for a root), start and end in ns.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "tracer\tname\treq\tparent\tkeys\tstart_ns\tend_ns")
	for ti, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", ti, spanNames[s.name], s.req, s.parent, s.keys, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTable renders the aggregate as report lines, sorted by name:
// mean_ns less the span cost, and self time as measured (a parent whose
// children cover its whole interval reads about 0).
func spanTable(agg [nSpans]spanAgg, cost float64) []string {
	var out []string
	for i, a := range agg {
		if a.calls == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("layer %-23s %10.1f ns per call (calls=%.0f keys=%.0f raw_self_ns=%.1f)",
			spanNames[i]+"_ns", a.perCall(cost), a.calls, a.keys, a.selfDur/a.calls))
	}
	sort.Strings(out)
	return out
}
