package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/optik-go/optik/server"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the result line names exactly the metrics BENCHMARK.json declares,
// with the same units, and that the run's checks passed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "optik-server")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/optik-go/optik/cmd/optik-server").CombinedOutput(); err != nil {
		t.Fatalf("building optik-server: %v\n%s", err, out)
	}
	for _, wl := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", wl, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl, "--seed", "7", "--seconds", "0.5",
					"--trace", strconv.Itoa(trace), "-server", bin, "-out", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// fakeServer answers every GET with the value of the next key, the way
// a server that aliased two keys or mis-framed a reply would.
func fakeServer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					f := strings.Fields(line)
					if len(f) != 2 || f[0] != "GET" {
						fmt.Fprint(w, "-ERR unexpected\r\n")
					} else {
						k, _ := strconv.ParseUint(f[1], 10, 64)
						v := strconv.FormatUint(wireValue(k+1, 0), 10)
						fmt.Fprintf(w, "$%d\r\n%s\r\n", len(v), v)
					}
					if r.Buffered() == 0 {
						w.Flush()
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWrongValueTripsCheck drives the wire GET path, scalar and
// pipelined, against a server that returns another key's value, and
// expects every such reply to be counted as wrong.
func TestWrongValueTripsCheck(t *testing.T) {
	addr := fakeServer(t)
	for _, depth := range []int{1, 64} {
		w := &wireWL{depth: depth}
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w.cl[0] = c
		keys := make([]uint64, depth)
		for i := range keys {
			keys[i] = uint64(100 + i)
		}
		ws := &workerStats{}
		if !w.request(0, opGet, keys, nil, ws, &ws.win[1]) {
			t.Fatalf("depth %d: request failed: %v", depth, ws.errs)
		}
		if ws.bad != uint64(depth) || ws.win[1].hits != uint64(depth) {
			t.Errorf("depth %d: %d wrong values counted over %d hits, want %d", depth, ws.bad, ws.win[1].hits, depth)
		}
	}
}

// TestValueChecks pins the in-process value and scan checks: a value is
// accepted only for its own key, whole, and a scan page only when it is
// ascending, in bounds and carries each key's own value.
func TestValueChecks(t *testing.T) {
	v := newStrValues(1000, 1, 16, 64)
	if !v.ok(10, v.value(10)) {
		t.Fatal("a key's own value rejected")
	}
	other := newStrValues(1000, prefillID, 16, 64)
	if !v.ok(10, other.value(10)) {
		t.Fatal("another writer's value for the same key rejected")
	}
	n := len(v.value(10))
	for name, bad := range map[string]string{
		"another key's value": v.value(11),
		"truncated":           v.value(10)[:n-8],
		"spliced":             v.value(10)[:n-8] + other.value(10)[n-8:],
	} {
		if v.ok(10, bad) {
			t.Errorf("%s accepted", name)
		}
	}
	w := &orderedWL{}
	w.vals[0] = v
	for name, page := range map[string][]uint64{
		"descending":    {12, 11},
		"repeated":      {11, 11},
		"out of bounds": {9, 11},
	} {
		ws := &workerStats{}
		vals := make([]string, len(page))
		for i, k := range page {
			vals[i] = v.value(int(k))
		}
		w.checkScan(10, 20, page, vals, ws)
		if ws.bad == 0 {
			t.Errorf("%s page accepted", name)
		}
	}
	ws := &workerStats{}
	w.checkScan(10, 20, []uint64{11, 12}, []string{v.value(11), v.value(11)}, ws)
	if ws.bad != 1 {
		t.Errorf("page with a wrong value: %d wrong, want 1", ws.bad)
	}
}
