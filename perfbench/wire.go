package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

// Wire workloads: an optik-server child at default flags (hash store,
// goroutine conn mode, coalescer on), two connections, zipf(0.9)
// GET 90 / SET 8 / DEL 2 over wireKeys keys with half of them prefilled.
// At depth 64 each request is one pipeline of 64 scalar commands of one
// kind (server.Client's MGet/MSet/MDel); at depth 1 it is one command.
const (
	wireKeys    = 131072
	wirePrefill = 65536
)

var wireMix = [nKinds]int{opGet: 90, opSet: 8, opDel: 2}

type wireWL struct {
	cfg          config
	depth        int
	ring         int // requests per generator ring
	kinds        [workers][]uint8
	keys         [workers][]uint64 // ring*depth keys per generator
	vals         [workers][]uint64 // the value each SET key carries
	fill         []uint64          // prefilled keys
	srv          *serverProc
	cl           [workers]*server.Client
	retry0       [workers]uint64 // retries of clients replaced after a failure
	prefillFresh bool            // prefill acknowledged every key as fresh

	// The in-process replay store of the traced pass, keyed like the
	// server: decimal key strings, decimal values.
	decKeys []string
	decVals [writers][]string
}

func newWire(cfg config, depth int) *wireWL {
	w := &wireWL{cfg: cfg, depth: depth, ring: 1 << 19}
	if depth > 1 {
		w.ring = 1 << 14
	}
	z := newZipf(wireKeys, 0.9)
	perm := permutation(newRand(cfg.seed, 0), wireKeys)
	for g := 0; g < workers; g++ {
		r := newRand(cfg.seed, uint64(1+g))
		w.kinds[g] = make([]uint8, w.ring)
		w.keys[g] = make([]uint64, w.ring*depth)
		w.vals[g] = make([]uint64, w.ring*depth)
		for i := 0; i < w.ring; i++ {
			w.kinds[g][i] = pickKind(r, wireMix)
			for j := i * depth; j < (i+1)*depth; j++ {
				k := uint64(perm[z.rank(r)])
				w.keys[g][j] = k
				w.vals[g][j] = wireValue(k, g)
			}
		}
	}
	fillOrder := permutation(newRand(cfg.seed, 100), wireKeys)
	w.fill = make([]uint64, wirePrefill)
	for i := range w.fill {
		w.fill[i] = uint64(fillOrder[i])
	}
	return w
}

func (w *wireWL) setup() error {
	w.close()
	srv, err := startServer(w.cfg.server)
	if err != nil {
		return err
	}
	w.srv = srv
	for i := range w.cl {
		if w.cl[i], err = server.Dial(srv.addr); err != nil {
			return fmt.Errorf("dial %s: %w", srv.addr, err)
		}
	}
	vals := make([]uint64, 64)
	fresh := 0
	for i := 0; i < len(w.fill); i += 64 {
		keys := w.fill[i:min(i+64, len(w.fill))]
		for j, k := range keys {
			vals[j] = wireValue(k, prefillID)
		}
		fresh += w.cl[0].MSet(keys, vals[:len(keys)])
	}
	w.prefillFresh = fresh == len(w.fill)
	return nil
}

// guard runs one client call, turning a panic (a protocol violation,
// an error reply, retries exhausted) into a counted failure and a fresh
// connection, so one bad reply costs one operation, not the run. If the
// server cannot be reached again, the old client stays and every later
// call on it fails and is counted the same way.
func (w *wireWL) guard(id int, ws *workerStats, keys int, call func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ws.fail(keys, fmt.Sprint(r))
			if c, err := server.Dial(w.srv.addr); err == nil {
				w.retry0[id] += w.cl[id].Retries()
				w.cl[id].Close()
				w.cl[id] = c
			}
			ok = false
		}
	}()
	call()
	return true
}

func (w *wireWL) worker(id int, ctl *passCtl, ws *workerStats, tr *tracer) {
	d := w.depth
	kinds, keys, vals := w.kinds[id], w.keys[id], w.vals[id]
	prev := now()
	for seq := uint64(0); ; seq++ {
		win := ctl.current(&prev)
		if win < 0 {
			ws.requests = seq
			return
		}
		r := int(seq % uint64(w.ring))
		kind := kinds[r]
		ok := w.request(id, kind, keys[r*d:(r+1)*d], vals[r*d:(r+1)*d], ws, &ws.win[win])
		t := now()
		if ok {
			ws.done(win, kind, d, t-prev)
			if tr != nil && ctl.sample(win, seq) {
				req := uint64(id)<<48 | seq
				root := tr.add(spRequest, -1, req, d, prev, t)
				tr.add(clientSpan(kind, d), root, req, d, prev, t)
			}
		}
		prev = t
	}
}

// request issues one request on generator id's connection and checks
// and accounts its replies; sv holds the value of each SET key.
func (w *wireWL) request(id int, kind uint8, ks, sv []uint64, ws *workerStats, s *winStats) bool {
	d := len(ks)
	ws.attempted += uint64(d)
	c := w.cl[id]
	switch kind {
	case opGet:
		var vals [64]uint64
		var found [64]bool
		var ok bool
		if d == 1 {
			ok = w.guard(id, ws, d, func() { vals[0], found[0] = c.Get(ks[0]) })
		} else {
			ok = w.guard(id, ws, d, func() { c.MGet(ks, vals[:d], found[:d]) })
		}
		if !ok {
			return false
		}
		s.gets += uint64(d)
		for j, k := range ks {
			if !found[j] {
				continue
			}
			s.hits++
			if !wireValueOK(k, vals[j]) {
				ws.wrong(fmt.Sprintf("GET %d returned %d", k, vals[j]))
			}
		}
		return true
	case opSet:
		var fresh int
		ok := w.guard(id, ws, d, func() {
			if d > 1 {
				fresh = c.MSet(ks, sv)
			} else if _, replaced := c.Set(ks[0], sv[0]); !replaced {
				fresh = 1
			}
		})
		if ok {
			ws.inserted += int64(fresh)
		}
		return ok
	default:
		var gone int
		ok := w.guard(id, ws, d, func() {
			if d > 1 {
				gone = c.MDel(ks)
			} else if _, present := c.Del(ks[0]); present {
				gone = 1
			}
		})
		if ok {
			ws.deleted += int64(gone)
		}
		return ok
	}
}

// clientSpan names the server.Client call a request made. The client is
// timed from outside, so its span is the request's whole interval.
func clientSpan(kind uint8, depth int) uint8 {
	name := uint8(spClientGet)
	switch kind {
	case opSet:
		name = spClientSet
	case opDel:
		name = spClientDel
	}
	if depth > 1 {
		name += spClientMGet - spClientGet
	}
	return name
}

func (w *wireWL) serving() procStat {
	if w.srv == nil {
		return procStat{}
	}
	ps, err := childStat(w.srv.cmd.Process.Pid)
	if err != nil {
		panic(fmt.Sprintf("perfbench: reading server stats: %v", err))
	}
	return ps
}

// counters reads STATS over generator connection 0; it is called only
// while the generators are stopped.
func (w *wireWL) counters() map[string]float64 {
	m := map[string]float64{}
	for k, v := range w.cl[0].Stats() {
		m[k] = float64(v)
	}
	for i, c := range w.cl {
		m["client_retries"] += float64(w.retry0[i] + c.Retries())
	}
	return m
}

// memMB is the server's peak resident set (VmHWM): its RSS at any one
// moment swings with where its garbage collector is in a cycle.
func (w *wireWL) memMB() float64 {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", w.srv.cmd.Process.Pid), "VmHWM")
	if err != nil {
		panic(fmt.Sprintf("perfbench: reading server RSS: %v", err))
	}
	return kb / 1024
}

// check verifies the key ledger: after QUIESCE the server holds exactly
// the prefill plus every acknowledged fresh insert minus every
// acknowledged delete.
func (w *wireWL) check(ws []*workerStats) []string {
	var out []string
	if !w.prefillFresh {
		out = append(out, "prefill did not insert every key fresh")
	}
	want := int64(len(w.fill))
	var failed uint64
	for _, s := range ws {
		want += s.inserted - s.deleted
		failed += s.failed
	}
	if failed > 0 {
		return append(out, "LEN ledger not checked: failed operations leave it inexact")
	}
	w.cl[0].Quiesce()
	if got := int64(w.cl[0].Len()); got != want {
		out = append(out, fmt.Sprintf("LEN after QUIESCE is %d, want prefill %d + inserts - deletes = %d", got, len(w.fill), want))
	}
	return out
}

func (w *wireWL) close() {
	for i, c := range w.cl {
		if c != nil {
			c.Close()
			w.cl[i] = nil
		}
	}
	if w.srv != nil {
		if err := w.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
		w.srv = nil
	}
}

// ledger replays, against an in-process store.Strings built like the
// server's, exactly the requests each generator issued in the traced
// pass, timing each store call; then it replays the GET hits it saw
// layer by layer. The replay's store time per key is the store's share
// of the wire time per key.
func (w *wireWL) ledger(ws []*workerStats) []*tracer {
	if w.decKeys == nil {
		w.decKeys = decimalKeys(wireKeys+1, "")
		for g := range w.decVals {
			w.decVals[g] = make([]string, wireKeys+1)
			for k := 1; k <= wireKeys; k++ {
				w.decVals[g][k] = strconv.FormatUint(wireValue(uint64(k), g), 10)
			}
		}
	}
	st := store.NewStrings(store.WithShards(0), store.WithShardBuckets(1024))
	defer st.Close()
	for _, k := range w.fill {
		st.Set(w.decKeys[k], w.decVals[prefillID][k])
	}
	ts := make([]*tracer, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		ts[g] = newTracer(1 << 19)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w.replay(st, g, ws[g].requests, traceEvery(w.cfg.workload), ts[g])
		}(g)
	}
	wg.Wait()
	return ts
}

func (w *wireWL) replay(st *store.Strings, g int, requests, every uint64, tr *tracer) {
	d := w.depth
	hashes := make([]uint64, d)
	strs := make([]string, d)
	found := make([]bool, d)
	var hitKeys []uint64
	for seq := uint64(0); seq < requests; seq++ {
		r := int(seq % uint64(w.ring))
		ks := w.keys[g][r*d : (r+1)*d]
		req := uint64(g)<<48 | seq
		kind := w.kinds[g][r]
		t0 := now()
		var root int32 = spanDropped
		if seq%every == 0 {
			root = tr.open(spReplay, req, d, t0)
		}
		var name uint8
		hit := false
		switch {
		case kind == opGet && d == 1:
			name = spStringsGet
			_, hit = st.Get(w.decKeys[ks[0]])
		case kind == opGet:
			name = spStringsGet
			for j, k := range ks {
				hashes[j] = store.HashKey(w.decKeys[k])
			}
			st.MGetHashed(hashes, strs, found)
		case kind == opSet && d == 1:
			name = spStringsSet
			st.Set(w.decKeys[ks[0]], w.decVals[g][ks[0]])
		case kind == opSet:
			name = spStringsSet
			for j, k := range ks {
				hashes[j] = store.HashKey(w.decKeys[k])
				strs[j] = w.decVals[g][k]
			}
			st.MSetHashed(hashes, strs, found)
		case d == 1:
			name = spStringsDel
			st.Del(w.decKeys[ks[0]])
		default:
			name = spStringsDel
			for j, k := range ks {
				hashes[j] = store.HashKey(w.decKeys[k])
			}
			st.MDelHashed(hashes, found)
		}
		t1 := now()
		if seq%every != 0 {
			continue
		}
		s := tr.add(name, root, req, d, t0, t1)
		if hit {
			tr.markHit(s)
		}
		tr.close(root, t1)
		if kind == opGet {
			for j, k := range ks {
				if (d == 1 && hit) || (d > 1 && found[j]) {
					if len(hitKeys) < ledgerSample {
						hitKeys = append(hitKeys, k)
					}
				}
			}
		}
	}
	for i, k := range hitKeys {
		getLedger(st, w.decKeys[k], uint64(g)<<48|1<<47|uint64(i), tr)
	}
}

// getLedger replays one GET through the layers Strings.Get is made of:
// hash the key, look the hash up in the index, load the slot from the
// value arena.
func getLedger(st *store.Strings, key string, req uint64, tr *tracer) {
	t0 := now()
	root := tr.open(spLedgerGet, req, 1, t0)
	h := store.HashKey(key)
	t1 := now()
	slot, ok := st.Index().Get(h)
	t2 := now()
	tr.add(spHash, root, req, 1, t0, t1)
	tr.add(spIndexGet, root, req, 1, t1, t2)
	end := t2
	if ok {
		st.Values().Load(slot, h)
		end = now()
		tr.add(spValuesLoad, root, req, 1, t2, end)
	}
	tr.close(root, end)
}

// serverProc is a running optik-server child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

var (
	liveMu      sync.Mutex
	liveServers = map[*serverProc]bool{}
)

// startServer starts the binary on a free loopback port and waits for
// its banner, which names the bound address.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs()))
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	liveMu.Lock()
	liveServers[p] = true
	liveMu.Unlock()
	br := bufio.NewReader(out)
	banner := make(chan string, 1)
	go func() {
		line, _ := br.ReadString('\n')
		banner <- line
		io.Copy(io.Discard, br)
		close(p.drained)
	}()
	var line string
	select {
	case line = <-banner:
	case <-time.After(30 * time.Second):
	}
	_, rest, ok := strings.Cut(line, " on ")
	addr, _, _ := strings.Cut(rest, " ")
	if !ok || addr == "" {
		p.stop()
		return nil, fmt.Errorf("%s: no listening banner (got %q)", bin, line)
	}
	p.addr = addr
	return p, nil
}

// stop asks the server to drain and exit, killing it if it does not
// within 10 seconds, and waits for it.
func (p *serverProc) stop() error {
	liveMu.Lock()
	delete(liveServers, p)
	liveMu.Unlock()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	err := p.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ProcessState.Sys().(syscall.WaitStatus).Signaled() {
		return nil
	}
	return err
}

// stopAllServers stops every child still running; main calls it on exit
// and on SIGINT/SIGTERM.
func stopAllServers() {
	liveMu.Lock()
	ps := make([]*serverProc, 0, len(liveServers))
	for p := range liveServers {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}
