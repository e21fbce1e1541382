// Command perfbench is the repository's benchmark: one closed-loop
// workload per run, its outputs checked, its end-to-end metrics printed
// by name with units (or, with -trace 1, its per-layer ledger), and one
// JSON result as the last line of standard output.
//
// Build it and the optik-server it drives from the same checkout with
// perfbench/run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload wire-pipe64 --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	wire-pipe64      optik-server child, 2 conns, 64-deep pipelines
//	wire-rr          optik-server child, 2 conns, one request in flight each
//	store-churn-ttl  in-process store.Strings over a working set 4x its byte budget
//	ordered-scan     in-process store.SortedStrings with 64-key range scans
//
// wire-rr runs by hand but is not in BENCHMARK.json: on a shared 2-core
// virtual machine its tail latency moves by a fifth from run to run, too
// much for a regression bound.
//
// Every workload is a closed loop: 2 generator goroutines, each issuing
// its next request when the previous one completes, timed from issue to
// last reply. There is no open-loop workload because time.Sleep's floor
// on a small box (about 1 ms) is 30 times the loopback round trip, so a
// paced generator would measure its own lateness.
//
// After every window of about a second the generators park for 150 ms
// while a fixed loop that runs none of the program's code measures how
// fast the machine is right then (probe.go). The time metrics are read
// against it: throughput in key operations per million probe units
// (kop/Mpu), the median request and CPU time per operation in probe
// units (pu). On a shared virtual machine whose speed drifts by tens of
// percent over minutes, these move with the program and hardly with the
// host; the raw kops, µs and probe rates are printed as report lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllServers()
		os.Exit(130)
	}()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	stopAllServers()
	os.Exit(code)
}

// workers is the generator goroutine count of every workload: one per
// core of the 2-core reference box, and at most one connection each.
const workers = 2

// setups is how many times a run builds its serving instance; setup_s is
// the median, and the last instance serves the run.
const setups = 5

// A pass is measured in windows of about a second, at least minWindows
// and at most maxWindows of them; rates and percentiles are the median
// over the windows, so a disturbed second does not move a run.
const (
	minWindows = 5
	maxWindows = 60
)

func windowsFor(secs float64) int { return min(max(minWindows, int(math.Round(secs))), maxWindows) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string // optik-server binary (wire workloads)
	out      string // directory for span files
}

// workload is one traffic mix against one serving instance.
type workload interface {
	// setup builds a fresh serving instance and prefills it, replacing
	// (and stopping) any earlier one.
	setup() error
	// worker is generator goroutine id's closed loop; it returns when
	// ctl says the pass is over. tr is nil unless the pass is traced.
	worker(id int, ctl *passCtl, ws *workerStats, tr *tracer)
	// serving reads the CPU ledger of the process serving requests.
	serving() procStat
	// counters snapshots the layer counters the program exports.
	counters() map[string]float64
	// memMB is the serving instance's memory (see BENCHMARK.json).
	memMB() float64
	// ledger replays a traced pass's sampled requests layer by layer and
	// returns the tracers holding those spans.
	ledger(ws []*workerStats) []*tracer
	// check runs the post-run correctness checks.
	check(ws []*workerStats) []string
	// close stops the serving instance.
	close()
}

var workloadNames = []string{"wire-pipe64", "wire-rr", "store-churn-ttl", "ordered-scan"}

// isWire reports whether a workload drives an optik-server child.
func isWire(workload string) bool { return strings.HasPrefix(workload, "wire-") }

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "wire-pipe64":
		return newWire(cfg, 64), nil
	case "wire-rr":
		return newWire(cfg, 1), nil
	case "store-churn-ttl":
		return newChurn(cfg), nil
	case "ordered-scan":
		return newOrdered(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// passCtl is what the coordinator and the generators share during a
// pass: the current window (0 = warm-up, 1..windowsFor, -1 = stop,
// pauseWin = parked for a host probe) and the tracing rate.
type passCtl struct {
	win        atomic.Int32
	traceEvery uint64 // trace one request in this many; 0 = untraced pass

	resume chan struct{} // closed to release parked generators
	parked atomic.Int32  // generators parked for the current probe
	exited atomic.Int32  // generators that returned early (a panic)
}

// sample reports whether request seq, issued in window win, is traced.
// A traced pass traces only in its odd windows, so its even windows
// measure the same store state untraced: the difference between the two
// is the tracing overhead.
func (c *passCtl) sample(win int32, seq uint64) bool {
	return c.traceEvery > 0 && win%2 == 1 && seq%c.traceEvery == 0
}

// winStats is one generator's ledger for one window.
type winStats struct {
	reqs       [nKinds]uint64
	keys       uint64
	gets, hits uint64
	lat        [nKinds]hist
}

// workerStats is one generator's ledger for a pass.
type workerStats struct {
	win       [maxWindows + 1]winStats
	requests  uint64 // requests issued, in ring order from position 0
	attempted uint64 // key operations attempted
	failed    uint64 // key operations that failed (recovered panic, error reply)
	bad       uint64 // replies carrying a wrong value
	errs      []string
	inserted  int64 // fresh inserts acknowledged
	deleted   int64 // deletes that found their key
	sampled   []uint64
}

// fail records a failed operation carrying keys key operations.
func (ws *workerStats) fail(keys int, msg string) {
	ws.failed += uint64(keys)
	if len(ws.errs) < 5 {
		ws.errs = append(ws.errs, msg)
	}
}

// wrong records a reply that carried a wrong value.
func (ws *workerStats) wrong(msg string) {
	ws.bad++
	if len(ws.errs) < 5 {
		ws.errs = append(ws.errs, msg)
	}
}

// done records one completed request.
func (ws *workerStats) done(w int32, kind uint8, keys int, lat int64) {
	s := &ws.win[w]
	s.reqs[kind]++
	s.keys += uint64(keys)
	s.lat[kind].add(lat)
}

// window is the merged ledger of one measured window.
type window struct {
	secs  float64
	stats winStats
	serve procStat
	probe probeRate // the host probe run right after the window
}

// latencyUS is the window's q-quantile, in µs, of the requests of the
// given kinds.
func (w window) latencyUS(q float64, kinds ...uint8) float64 {
	var h hist
	for _, k := range kinds {
		h.merge(&w.stats.lat[k])
	}
	return h.quantile(q) / 1e3
}

func (w window) kops() float64 { return float64(w.stats.keys) / w.secs / 1e3 }

// cpuUSPerOp is the serving process's CPU time per key operation.
func (w window) cpuUSPerOp() float64 {
	return ratio(w.serve.userUS+w.serve.sysUS, float64(w.stats.keys))
}

type passResult struct {
	windows    []window
	workers    []*workerStats
	tracers    []*tracer
	self       procStat // benchmark process over the whole pass
	serve      procStat // serving process over the whole pass
	secs       float64  // whole pass, warm-up included
	keys       float64  // key operations over the whole pass
	rt0, rt1   runtimeSample
	c0, c1     map[string]float64
	memMB      float64
	traceEvery uint64
}

// runPass drives one pass: warm-up, then windowsFor(secs) windows over
// secs seconds, reading the serving process's CPU at each boundary and
// probing the host, generators parked, after each window.
func runPass(w workload, secs float64, traceEvery uint64) passResult {
	ctl := &passCtl{traceEvery: traceEvery}
	res := passResult{traceEvery: traceEvery}
	res.workers = make([]*workerStats, workers)
	res.tracers = make([]*tracer, workers)
	res.c0 = w.counters()
	res.rt0 = readRuntime()
	self0, serve0 := selfStat(), w.serving()
	t0 := now()
	var wg sync.WaitGroup
	for i := range res.workers {
		res.workers[i] = &workerStats{}
		if traceEvery > 0 {
			res.tracers[i] = newTracer(1 << 19)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ctl.exited.Add(1)
			w.worker(i, ctl, res.workers[i], res.tracers[i])
		}(i)
	}
	warm := time.Duration(math.Min(1, secs/10) * float64(time.Second))
	nwin := windowsFor(secs)
	per := time.Duration(secs / float64(nwin) * float64(time.Second))
	time.Sleep(warm)
	prevT, prevServe := now(), w.serving()
	ctl.win.Store(1)
	for i := 1; i <= nwin; i++ {
		time.Sleep(per)
		t, s := now(), w.serving()
		res.windows = append(res.windows, window{secs: float64(t-prevT) / 1e9, serve: s.sub(prevServe), probe: ctl.probe()})
		prevT, prevServe = now(), w.serving()
		if i < nwin {
			ctl.release(int32(i + 1))
		} else {
			ctl.release(-1)
		}
	}
	wg.Wait()
	res.secs = float64(now()-t0) / 1e9
	res.self, res.serve = selfStat().sub(self0), w.serving().sub(serve0)
	res.rt1 = readRuntime()
	res.memMB = w.memMB()
	res.c1 = w.counters()
	for i := range res.windows {
		m := &res.windows[i].stats
		for _, ws := range res.workers {
			mergeWin(m, &ws.win[i+1])
		}
	}
	for _, ws := range res.workers {
		for i := range ws.win {
			res.keys += float64(ws.win[i].keys)
		}
	}
	return res
}

func mergeWin(dst, src *winStats) {
	for k := range dst.reqs {
		dst.reqs[k] += src.reqs[k]
		dst.lat[k].merge(&src.lat[k])
	}
	dst.keys += src.keys
	dst.gets += src.gets
	dst.hits += src.hits
}

// perWindow is the median over windows of f.
func (p passResult) perWindow(f func(w window) float64) float64 {
	xs := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		xs = append(xs, f(w))
	}
	return median(xs)
}

func (p passResult) throughputKops() float64 { return p.perWindow(window.kops) }

// latencyUS is the median over windows of the q-quantile, in µs, of the
// requests of the given kinds (all kinds when none are named). Pooling
// the windows instead lets a few seconds of host disturbance set a run's
// tail; the median over windows ignores them.
func (p passResult) latencyUS(q float64, kinds ...uint8) float64 {
	if len(kinds) == 0 {
		kinds = allKinds
	}
	return p.perWindow(func(w window) float64 { return w.latencyUS(q, kinds...) })
}

// allKinds lists every request kind.
var allKinds = []uint8{opGet, opSet, opSetEX, opDel, opScan}

func (p passResult) samples(kinds ...uint8) (n uint64) {
	for _, w := range p.windows {
		for _, k := range kinds {
			n += w.stats.lat[k].n
		}
	}
	return n
}

func (p passResult) hitRate() float64 {
	var gets, hits uint64
	for _, w := range p.windows {
		gets += w.stats.gets
		hits += w.stats.hits
	}
	return ratio(float64(hits), float64(gets))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every key, value and op stream")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&cfg.server, "server", "", "optik-server binary built from this checkout (wire workloads)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if isWire(cfg.workload) {
		if cfg.server == "" {
			fmt.Fprintln(stderr, "perfbench: wire workloads need -server")
			return 2
		}
		// Wire generators spend their time blocked on replies: one P
		// serves both, and leaves the server's Ps no idle-spinning rival.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, stamp(cfg))

	baseHeap = liveHeap()
	var setupS []float64
	for i := 0; i < setups; i++ {
		t := now()
		if err := w.setup(); err != nil {
			w.close()
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		setupS = append(setupS, float64(now()-t)/1e9)
	}
	defer w.close()

	var metrics map[string]metric
	var report []string
	var passes []passResult
	if !cfg.trace {
		p := runPass(w, cfg.seconds, 0)
		passes = append(passes, p)
		metrics, report = endToEnd(p, median(setupS))
	} else {
		cost := spanCost()
		t := runPass(w, cfg.seconds, traceEvery(cfg.workload))
		passes = append(passes, t)
		ledger := w.ledger(t.workers)
		all := append(append([]*tracer{}, t.tracers...), ledger...)
		path := filepath.Join(cfg.out, "trace", cfg.workload+".tsv")
		if err := writeSpans(path, all); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		metrics, report = perLayer(cfg.workload, t, all, cost)
		report = append(report, "spans written to "+path)
	}

	res := result{Correct: true, Metrics: metrics}
	var problems []string
	var all []*workerStats
	for _, p := range passes {
		for _, ws := range p.workers {
			res.Attempted += ws.attempted
			res.Failed += ws.failed
			if ws.bad > 0 {
				problems = append(problems, fmt.Sprintf("%d replies carried a wrong value", ws.bad))
			}
			problems = append(problems, ws.errs...)
		}
		all = append(all, p.workers...)
		// Over the wire every key operation is one command: STATS must
		// count the generators' commands plus the few (STATS itself) the
		// benchmark sends around a pass.
		if cmds, ok := p.c1["commands"]; ok && math.Abs(cmds-p.c0["commands"]-p.keys) > 16 {
			problems = append(problems, fmt.Sprintf("STATS counted %.0f commands over a pass of %.0f key operations",
				cmds-p.c0["commands"], p.keys))
		}
	}
	problems = append(problems, w.check(all)...)
	report = append(report, fmt.Sprintf("error_rate %.6g (failed %d of %d key operations)",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	for _, p := range problems {
		res.Correct = false
		report = append(report, "CHECK FAILED: "+p)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, l := range report {
		fmt.Fprintln(stdout, l)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// traceEvery is the request sampling rate of the traced pass: one in 4
// over the wire (tens of thousands of requests a second), one in 64 in
// process (over a million a second), so the span buffers hold the pass.
func traceEvery(workload string) uint64 {
	if isWire(workload) {
		return 4
	}
	return 64
}

// baseHeap is the benchmark's live heap once its inputs exist and before
// any store does; in-process mem_mb is measured above it.
var baseHeap float64

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// endToEnd computes the untraced run's metrics. The machine this runs on
// is shared: over minutes it gets faster and slower by up to a half, with
// little steal time, as other tenants load the cores and the memory
// system. So the time metrics are read against the host probe run right
// after each window (see probe.go), and move with the program, not the
// host: throughput in key operations per probe unit the machine ran in
// the same wall time; the median request and the CPU time per operation
// in probe units of one core's CPU time, since a request runs on one
// core and a stolen time slice rarely lands inside a typical one. The raw
// readings are printed as report lines. The tail percentiles are printed
// but kept out of the result's metrics: a host disturbance that lasts
// minutes moves a run's p99 by a third.
func endToEnd(p passResult, setupS float64) (map[string]metric, []string) {
	m := map[string]metric{
		"throughput_kop_per_mpu": {p.perWindow(func(w window) float64 { return w.kops() / (w.probe.wall / 1e6) }), "kop/Mpu"},
		"p50_probe_units": {p.perWindow(func(w window) float64 {
			return w.latencyUS(0.5, allKinds...) * w.probe.cpu / 1e6
		}), "pu"},
		"cpu_probe_units_per_op": {p.perWindow(func(w window) float64 { return w.cpuUSPerOp() * w.probe.cpu / 1e6 }), "pu"},
		"hit_rate":               {p.hitRate(), "ratio"},
		"mem_mb":                 {p.memMB, "MB"},
		"setup_s":                {setupS, "s"},
	}
	var kops, probes []string
	for _, w := range p.windows {
		kops = append(kops, fmt.Sprintf("%.6g", w.kops()))
		probes = append(probes, fmt.Sprintf("%.4g", w.probe.wall/1e6))
	}
	report := []string{
		"window throughput_kops " + strings.Join(kops, " "),
		"window probe_mpu_per_s " + strings.Join(probes, " "),
		fmt.Sprintf("raw throughput_kops %.6g p50_us %.6g cpu_us_per_op %.6g (medians over windows)",
			p.throughputKops(), p.latencyUS(0.5), p.perWindow(window.cpuUSPerOp)),
		fmt.Sprintf("probe %.6g Mpu per second, %.6g Mpu per CPU second (medians over windows)",
			p.perWindow(func(w window) float64 { return w.probe.wall / 1e6 }),
			p.perWindow(func(w window) float64 { return w.probe.cpu / 1e6 })),
		fmt.Sprintf("samples all=%d get=%d set=%d del=%d scan=%d over %d windows",
			p.samples(allKinds...), p.samples(opGet), p.samples(opSet, opSetEX),
			p.samples(opDel), p.samples(opScan), len(p.windows)),
		fmt.Sprintf("unbounded p99_us %.6g us", p.latencyUS(0.99)),
		fmt.Sprintf("unbounded get_p99_us %.6g us", p.latencyUS(0.99, opGet)),
		fmt.Sprintf("unbounded set_p99_us %.6g us", p.latencyUS(0.99, opSet, opSetEX)),
	}
	if p.samples(opScan) > 0 {
		report = append(report, fmt.Sprintf("unbounded scan_p99_us %.6g us", p.latencyUS(0.99, opScan)))
	}
	return m, report
}

// delta is a counter's change over a pass.
func (p passResult) delta(name string) float64 { return p.c1[name] - p.c0[name] }

// windowsTraced returns p restricted to its traced (odd) or untraced (even)
// windows.
func (p passResult) windowsTraced(traced bool) passResult {
	var ws []window
	for i, w := range p.windows {
		if (i%2 == 0) == traced { // windows[0] is window 1
			ws = append(ws, w)
		}
	}
	p.windows = ws
	return p
}

// perLayer computes the traced run's metrics from its pass t and every
// span recorded in it or in the ledger replays after it.
func perLayer(workload string, t passResult, ts []*tracer, cost float64) (map[string]metric, []string) {
	traced, untraced := t.windowsTraced(true), t.windowsTraced(false)
	agg, nspans, dropped := aggregate(ts)
	ops := t.keys
	get := pick(agg, spStringsGet, spSortedGet)
	set := pick(agg, spStringsSet, spSortedSet)
	del := pick(agg, spStringsDel, spSortedDel)
	parts := agg[spHash].perCall(cost) + agg[spIndexGet].perCall(cost) + agg[spValuesLoad].perCall(cost)
	// The ledger's whole is a GET that hit; a pipeline's GETs are timed
	// per 64-key call, so there it is the per-key time, hits and misses.
	getWhole, basis := get.perHit(cost), "hits"
	if get.hitCalls == 0 {
		getWhole, basis = get.perKey(cost), "per key of 64-key MGetHashed calls"
	}
	m := map[string]metric{
		"kernel.sys_us_per_op":            {ratio(t.serve.sysUS, ops), "us"},
		"kernel.ctx_switches_per_op":      {ratio(t.serve.ctxSwitches, ops), "count"},
		"server.user_us_per_op":           {ratio(t.serve.userUS, ops), "us"},
		"server.commands_per_op":          {ratio(t.delta("commands"), ops), "ratio"},
		"server.coalesced_share":          {ratio(t.delta("coalesced_keys"), t.delta("commands")), "ratio"},
		"server.keys_per_coalesced_batch": {ratio(t.delta("coalesced_keys"), t.delta("coalesced_batches")), "count"},
		"server.buffers_resident":         {t.c1["buffers_resident"], "B"},
		"client.retries":                  {t.delta("client_retries"), "count"},
		"store.get_ns":                    {get.perKey(cost), "ns"},
		"store.set_ns":                    {set.perKey(cost), "ns"},
		"store.del_ns":                    {del.perKey(cost), "ns"},
		"store.index.get_ns":              {agg[spIndexGet].perCall(cost), "ns"},
		"store.values.load_ns":            {agg[spValuesLoad].perCall(cost), "ns"},
		"store.get_unexplained_ns":        {getWhole - parts, "ns"},
		"store.values.allocated":          {t.c1["values_allocated"], "count"},
		"store.values.free":               {t.c1["values_free"], "count"},
		"store.ttl.expired_lazy_per_kop":  {1e3 * ratio(t.delta("expired_lazy"), ops), "count"},
		"store.ttl.expired_swept_per_kop": {1e3 * ratio(t.delta("expired_swept"), ops), "count"},
		"store.ttl.evicted_per_kop":       {1e3 * ratio(t.delta("evicted"), ops), "count"},
		"store.sorted.keys_per_scan":      {ratio(agg[spSortedScan].keys, agg[spSortedScan].calls), "count"},
		"qsbr.reuse_ratio":                {ratio(t.delta("nodes_reused"), t.delta("nodes_retired")), "ratio"},
		"runtime.gc_cycles_per_s":         {(t.rt1.gcCycles - t.rt0.gcCycles) / t.secs, "1/s"},
		"runtime.alloc_bytes_per_op":      {ratio(t.rt1.allocBytes-t.rt0.allocBytes, ops), "B"},
		"trace.throughput_kops":           {traced.throughputKops(), "kops"},
		"trace.untraced_throughput_kops":  {untraced.throughputKops(), "kops"},
		"trace.p50_us":                    {traced.latencyUS(0.5), "us"},
		"trace.untraced_p50_us":           {untraced.latencyUS(0.5), "us"},
		"trace.span_cost_ns":              {cost, "ns"},
	}
	report := []string{
		fmt.Sprintf("trace overhead: throughput_kops %.6g traced vs %.6g untraced, p50_us %.6g traced vs %.6g untraced (odd vs even windows)",
			traced.throughputKops(), untraced.throughputKops(), traced.latencyUS(0.5), untraced.latencyUS(0.5)),
		fmt.Sprintf("trace: %d spans kept, %d dropped, one request in %d traced in odd windows, span cost %.1f ns subtracted from every span",
			nspans, dropped, t.traceEvery, cost),
		fmt.Sprintf("layer client.cpu_us_per_op %.6g us (benchmark process CPU per op)", ratio(t.self.userUS+t.self.sysUS, ops)),
		fmt.Sprintf("layer runtime.gc_pause_p99_us %.6g us", pauseQuantile(t.rt0, t.rt1, 0.99)),
	}
	if b := t.c1["buckets"]; b > 0 {
		report = append(report, fmt.Sprintf("layer store.index.resizes %.0f store.index.buckets %.0f", t.delta("resizes"), b))
	}
	if agg[spHash].calls > 0 {
		report = append(report, fmt.Sprintf("layer GET ledger (%s): store.strings.get %.1f ns = store.hash %.1f + store.index.get %.1f + store.values.load %.1f + store.get_unexplained %.1f",
			basis, getWhole, agg[spHash].perCall(cost), agg[spIndexGet].perCall(cost), agg[spValuesLoad].perCall(cost), getWhole-parts))
	} else {
		report = append(report, fmt.Sprintf("layer GET ledger (%s): store.sorted.get %.1f ns = store.index.get %.1f + store.values.load %.1f + store.get_unexplained %.1f",
			basis, getWhole, agg[spIndexGet].perCall(cost), agg[spValuesLoad].perCall(cost), getWhole-parts))
	}
	if b := t.c1["byte_budget"]; b > 0 {
		report = append(report, fmt.Sprintf("layer store.values.bytes_used_ratio %.6g", t.c1["bytes_used"]/b))
	}
	if isWire(workload) {
		client := agg[spClientGet].dur + agg[spClientSet].dur + agg[spClientDel].dur +
			agg[spClientMGet].dur + agg[spClientMSet].dur + agg[spClientMDel].dur
		clientCalls := agg[spClientGet].calls + agg[spClientSet].calls + agg[spClientDel].calls +
			agg[spClientMGet].calls + agg[spClientMSet].calls + agg[spClientMDel].calls
		clientKeys := agg[spClientGet].keys + agg[spClientSet].keys + agg[spClientDel].keys +
			agg[spClientMGet].keys + agg[spClientMSet].keys + agg[spClientMDel].keys
		storeDur := get.dur + set.dur + del.dur
		storeCalls := get.calls + set.calls + del.calls
		storeKeys := get.keys + set.keys + del.keys
		wireKey := ratio(client-cost*clientCalls, clientKeys)
		storeKey := ratio(storeDur-cost*storeCalls, storeKeys)
		report = append(report, fmt.Sprintf("layer wire.self_ns_per_key %.6g ns (client %.6g ns/key, of which the in-process store replay %.6g ns/key)",
			wireKey-storeKey, wireKey, storeKey))
	}
	if agg[spOrderedScan].calls > 0 {
		report = append(report, fmt.Sprintf("layer scan split: store.sorted.scan %.1f ns = store.ordered.scan %.1f + value layer %.1f",
			agg[spSortedScan].perCall(cost), agg[spOrderedScan].perCall(cost),
			agg[spSortedScan].perCall(cost)-agg[spOrderedScan].perCall(cost)))
	}
	if workload == "ordered-scan" {
		report = append(report, fmt.Sprintf("layer qsbr.towers_reuse_ratio %.6g", m["qsbr.reuse_ratio"].Value))
	} else {
		report = append(report, fmt.Sprintf("layer qsbr.nodes_reuse_ratio %.6g", m["qsbr.reuse_ratio"].Value))
	}
	report = append(report, spanTable(agg, cost)...)
	return m, report
}

// pick returns the first of the named spans that was recorded.
func pick(agg [nSpans]spanAgg, names ...int) spanAgg {
	for _, n := range names {
		if agg[n].calls > 0 {
			return agg[n]
		}
	}
	return spanAgg{}
}
