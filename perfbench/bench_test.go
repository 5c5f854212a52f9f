package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	igq "repro"
	"repro/internal/index/grapes"
)

// short shrinks a workload's inputs so a test run takes seconds.
func short(t *testing.T, name string) (workload, inputs) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.streamLen = 200, 400
	return w, w.inputs(1)
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	// served-mixed runs, but is not gated: see README.md.
	var gated []string
	for _, w := range workloads {
		if !w.served {
			gated = append(gated, w.name)
		}
	}
	if len(cfg.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(gated))
	}
	for i, w := range cfg.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, gated[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || want[i].unit == "" {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s here", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// checkPrinted asserts that every metric of the mode prints by name with
// its unit, and that the result line parses back.
func checkPrinted(t *testing.T, res result, traced, served bool) {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf)
	set := metricSet(traced, served)
	out := buf.String()
	for _, m := range set {
		if !strings.Contains(out, m.name+" ") || !strings.Contains(out, " "+m.unit+"\n") {
			t.Errorf("metric %s (%s) not printed with its unit", m.name, m.unit)
		}
	}
	var back result
	if err := json.Unmarshal(lastLine(buf.Bytes()), &back); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if len(back.Metrics) != len(set) || !back.Correct || back.Attempted < 1 {
		t.Fatalf("result line: %d metrics, correct=%v, attempted=%d", len(back.Metrics), back.Correct, back.Attempted)
	}
	for _, m := range set {
		if back.Metrics[m.name].Unit != m.unit {
			t.Errorf("metric %s has unit %q in the result line", m.name, back.Metrics[m.name].Unit)
		}
	}
}

func TestEngineWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range []string{"aids-zipf", "pdbs-uni"} {
		t.Run(name, func(t *testing.T) {
			_, in := short(t, name)
			rep, err := runEngine(in, 300*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rep.result(false, false)
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, res, false, false)

			rep, _, err = runEngineTraced(in, 300*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rep.set("fail_frac", 0)
			res, err = rep.result(true, false)
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, res, true, false)
		})
	}
}

func TestServedWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs igqserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "igqserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/igqserve").CombinedOutput(); err != nil {
		t.Fatalf("building igqserve: %v\n%s", err, out)
	}
	_, in := short(t, "served-mixed")
	for _, traced := range []bool{false, true} {
		rep, _, err := runServed(in, time.Second, traced, bin, dir)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			rep.set("fail_frac", 0)
		}
		res, err := rep.result(traced, true)
		if err != nil {
			t.Fatal(err)
		}
		checkPrinted(t, res, traced, true)
	}
}

// dropOne is a faulty index: the first test that should succeed reports
// failure, so one answer loses one graph.
type dropOne struct {
	*grapes.Index
	dropped *atomic.Bool
}

func (d dropOne) Verify(q *igq.Graph, id int32) bool {
	ok := d.Index.Verify(q, id)
	if ok && d.dropped.CompareAndSwap(false, true) {
		return false
	}
	return ok
}

func TestDroppedAnswerIsCaught(t *testing.T) {
	_, in := short(t, "aids-zipf")
	var dropped atomic.Bool
	wrap := func(m any) any { return dropOne{m.(*grapes.Index), &dropped} }
	rep, err := runEngine(in, 200*time.Millisecond, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("the faulty index never dropped an answer")
	}
	res, err := rep.result(false, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a dropped answer passed the correctness gate: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestOpenLoopCountsStallFromDueTime stalls the server for a window and
// checks that a request due during the stall, which could only be sent
// late, is timed from its due time, not from when it was sent.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stallFrom, stallTo = 50 * time.Millisecond, 300 * time.Millisecond
	var start atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since := time.Since(time.Unix(0, start.Load()))
		if since >= stallFrom && since < stallTo {
			time.Sleep(stallTo - since)
		}
		w.Write([]byte(`{"ids":[]}`))
	}))
	defer srv.Close()
	var evs []*event
	for i := range 40 {
		evs = append(evs, &event{due: time.Duration(i) * 10 * time.Millisecond, mode: "sub", body: []byte(`{}`)})
	}
	c := newClient()
	defer c.CloseIdleConnections()
	start.Store(time.Now().UnixNano())
	outs := openLoop(c, srv.URL, evs, 0, 400*time.Millisecond)
	behind := 0
	for _, o := range outs {
		if o.err != nil {
			t.Fatalf("event due at %v: %v", o.ev.due, o.err)
		}
		if o.late < 30*time.Millisecond {
			continue
		}
		// Sent late because every client was stuck in the stall: its
		// latency must include the wait since it was due.
		behind++
		if o.lat < o.late {
			t.Errorf("event due at %v sent %v late has latency %v, less than its wait", o.ev.due, o.late, o.lat)
		}
		if o.ev.due < stallTo && o.lat < stallTo-o.ev.due-20*time.Millisecond {
			t.Errorf("event due at %v: latency %v misses the stall until %v", o.ev.due, o.lat, stallTo)
		}
	}
	if behind == 0 {
		t.Fatal("no event was held back by the stall")
	}
}
