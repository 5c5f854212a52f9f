package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	igq "repro"
	"repro/internal/server"
)

// The served workload's open-loop schedule. The query rate leaves the
// server spare capacity (closed-loop capacity on a 2-vCPU box is several
// times higher), so latency measures service, not a growing backlog.
const (
	queryRate  = 200 // queries per second, alternating sub and super
	mutateRate = 3   // add+remove pairs per second
	// lateLimit is how late the generator may run at its p99 before the
	// run is marked invalid: beyond it the schedule, not the server, sets
	// the load.
	lateLimit = 100 * time.Millisecond
	// grace is how long after the schedule ends events may still be sent.
	grace = 5 * time.Second
)

// serverProc is one igqserve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan error
	pid    string
}

// startServer spawns igqserve restoring snap over the dataset file db, with
// the supergraph engine on.
func startServer(bin, db, snap string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &serverProc{base: "http://" + addr, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-db", db, "-addr", addr, "-super", "-snapshot", snap, "-quiet")
	p.cmd.Stdout = &p.stderr
	p.cmd.Stderr = &p.stderr
	// Should the benchmark die, the kernel ends the server with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p.pid = strconv.Itoa(p.cmd.Process.Pid)
	go func() { p.done <- p.cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM and waits for the graceful drain and shutdown save;
// it returns how long that took.
func (p *serverProc) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return 0, fmt.Errorf("igqserve exited: %v\n%s", err, p.stderr.String())
		}
		return time.Since(t0), nil
	case <-time.After(60 * time.Second):
		p.kill()
		return 0, errors.New("igqserve did not exit within 60s of SIGTERM")
	}
}

// kill ends the process without a graceful shutdown and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
}

// client is the load generator's HTTP client: at most nclients
// connections, shared by queries and mutations.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nclients(),
			MaxIdleConnsPerHost: nclients(),
		},
	}
}

// post sends a JSON body and decodes a 200 reply into out.
func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func getStats(c *http.Client, base string) (server.StatsReply, error) {
	var st server.StatsReply
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func queryBody(q *igq.Graph, mode string) []byte {
	b, _ := json.Marshal(server.QueryRequest{Graph: server.EncodeGraph(q), Mode: mode}) // plain data: cannot fail
	return b
}

// waitReady sends q until the server answers it and returns the time since
// the process was spawned: the served workload's set-up time.
func waitReady(c *http.Client, p *serverProc, body []byte, spawned time.Time) (time.Duration, error) {
	deadline := spawned.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return 0, fmt.Errorf("igqserve exited during start-up: %v\n%s", err, p.stderr.String())
		default:
		}
		var rep server.QueryReply
		if err := post(c, p.base+"/query", body, &rep); err == nil {
			return time.Since(spawned), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, errors.New("igqserve did not answer a query within 120s")
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// event is one scheduled operation of the open loop.
type event struct {
	due    time.Duration // since the loop started
	mutate bool
	q      *igq.Graph // the query; nil for a mutation pair
	mode   string
	body   []byte
}

// outcome is what the generator observed for one event. Latencies count
// from the due time, so a stall also delays every request queued behind
// it.
type outcome struct {
	ev       *event
	sent     bool
	late     time.Duration // send time minus due time
	lat      time.Duration // reply time minus due time (adds for mutations)
	removeAt time.Duration // mutations: remove reply minus add reply
	done     time.Duration // reply time since the loop started
	reply    server.QueryReply
	err      error
}

// schedule builds the open-loop event list for dur: queries alternate sub
// and super over the stream, and mutation pairs add a batch cloned from
// stream queries.
func schedule(stream []*igq.Graph, dur time.Duration) []*event {
	var evs []*event
	nq := int(dur.Seconds() * queryRate)
	for k := range nq {
		mode := server.ModeSub
		if k%2 == 1 {
			mode = server.ModeSuper
		}
		q := stream[k%len(stream)]
		evs = append(evs, &event{due: time.Duration(k) * time.Second / queryRate, q: q, mode: mode, body: queryBody(q, mode)})
	}
	nm := int(dur.Seconds() * mutateRate)
	for j := range nm {
		var req server.MutateRequest
		for i := range mutateBatch {
			req.Graphs = append(req.Graphs, server.EncodeGraph(stream[(j*mutateBatch+i)%len(stream)]))
		}
		body, _ := json.Marshal(req) // plain data: cannot fail
		due := (time.Duration(j)*time.Second + time.Second/2) / mutateRate
		evs = append(evs, &event{due: due, mutate: true, body: body})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
	return evs
}

// openLoop runs the schedule from nclients workers. A worker takes the
// next event in due order, waits for its due time, sends it and waits for
// the reply. Mutation pairs never overlap: each removes exactly the tail
// positions its add created, so base positions [0, base) stay stable.
func openLoop(c *http.Client, baseURL string, evs []*event, base int, dur time.Duration) []outcome {
	outs := make([]outcome, len(evs))
	var next atomic.Int64
	var mutMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for range nclients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(evs) {
					return
				}
				ev := evs[i]
				o := &outs[i]
				o.ev = ev
				if d := ev.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				now := time.Since(start)
				if now > dur+grace {
					o.err = errors.New("not sent: the generator fell behind the schedule")
					continue
				}
				o.sent, o.late = true, now-ev.due
				if !ev.mutate {
					o.err = post(c, baseURL+"/query", ev.body, &o.reply)
					o.done = time.Since(start)
					o.lat = o.done - ev.due
					continue
				}
				mutMu.Lock()
				o.err = mutatePair(c, baseURL, ev.body, base, start, o)
				mutMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// mutatePair adds a batch and removes exactly the positions it took.
func mutatePair(c *http.Client, baseURL string, body []byte, base int, start time.Time, o *outcome) error {
	var added server.MutateReply
	if err := post(c, baseURL+"/graphs/add", body, &added); err != nil {
		return fmt.Errorf("add: %w", err)
	}
	addDone := time.Since(start)
	o.lat = addDone - o.ev.due
	var pos []int
	for p := base; p < added.DatasetSize; p++ {
		pos = append(pos, p)
	}
	if len(pos) != mutateBatch {
		return fmt.Errorf("add left %d graphs, want %d", added.DatasetSize, base+mutateBatch)
	}
	rb, _ := json.Marshal(server.MutateRequest{Positions: pos}) // plain data: cannot fail
	var removed server.MutateReply
	if err := post(c, baseURL+"/graphs/remove", rb, &removed); err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	o.done = time.Since(start)
	o.removeAt = o.done - addDone
	if removed.DatasetSize != base {
		return fmt.Errorf("remove left %d graphs, want %d", removed.DatasetSize, base)
	}
	return nil
}

// runServed is the served-mixed workload: igqserve restored from a
// prepared snapshot, driven over HTTP in an open loop.
func runServed(in inputs, dur time.Duration, traced bool, bin, work string) (*report, []*tracer, error) {
	rep := newReport()
	st := in.streams[0]
	// The load generator shares the box with the server: collect its own
	// garbage rarely, so it steals less CPU from the process it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	if _, err := os.Stat(bin); err != nil {
		return nil, nil, fmt.Errorf("igqserve binary: %w", err)
	}
	dbPath := filepath.Join(work, "dataset.graphs")
	if err := igq.SaveGraphs(dbPath, in.db); err != nil {
		return nil, nil, err
	}
	// The snapshot a restart restores: the index plus the cache the
	// warm-up prefix earned.
	opt := engineOptions(nil)
	prep, err := igq.NewEngine(in.db, opt)
	if err != nil {
		return nil, nil, err
	}
	closedLoop(prep, st.warmup, nclients(), 0, len(st.warmup))
	prepared := filepath.Join(work, "prepared.snap")
	if err := igq.SaveEngineFile(prepared, prep); err != nil {
		return nil, nil, err
	}
	evs := schedule(st.timed, dur)
	live := filepath.Join(work, "live.snap")
	c := newClient()
	defer c.CloseIdleConnections()

	// Set up several times; serve from the last process.
	var setups, saves []float64
	var p *serverProc
	for k := range setupBuilds {
		if err := copyFile(live, prepared); err != nil {
			return nil, nil, err
		}
		spawned := time.Now()
		sp, err := startServer(bin, dbPath, live)
		if err != nil {
			return nil, nil, err
		}
		d, err := waitReady(c, sp, evs[0].body, spawned)
		if err != nil {
			sp.kill()
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if k == setupBuilds-1 {
			p = sp
			break
		}
		c.CloseIdleConnections()
		sd, err := sp.stop()
		if err != nil {
			return nil, nil, err
		}
		saves = append(saves, ms(sd))
	}
	stopped := false
	defer func() {
		if !stopped {
			p.kill()
		}
	}()
	rep.set("setup_s", median(setups))

	st0, err := getStats(c, p.base)
	if err != nil {
		return nil, nil, err
	}
	base := len(in.db)
	outs := openLoop(c, p.base, evs, base, dur)
	st1, err := getStats(c, p.base)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(p.pid)
	if err != nil {
		return nil, nil, err
	}
	c.CloseIdleConnections()
	sd, err := p.stop()
	stopped = true
	if err != nil {
		return nil, nil, err
	}
	saves = append(saves, ms(sd))
	fi, err := os.Stat(live)
	if err != nil {
		return nil, nil, err
	}

	rep.set("rss_peak_mb", rss)
	var lats, service, subLats, superLats, late, adds, removes []time.Duration
	var last time.Duration
	answered, iso := 0, 0
	for _, o := range outs {
		if o.sent {
			late = append(late, o.late)
		}
		if o.err != nil {
			continue
		}
		last = max(last, o.done)
		if o.ev.mutate {
			adds = append(adds, o.lat)
			removes = append(removes, o.removeAt)
			continue
		}
		answered++
		iso += o.reply.Stats.DatasetIsoTests
		lats = append(lats, o.lat)
		service = append(service, o.lat-o.late)
		if o.ev.mode == server.ModeSub {
			subLats = append(subLats, o.lat)
		} else {
			superLats = append(superLats, o.lat)
		}
	}
	rep.set("qps", float64(answered)/last.Seconds())
	rep.set("p50_ms", percentile(lats, 50))
	rep.set("p99_ms", percentile(lats, 99))
	rep.set("iso_tests_per_query", float64(iso)/float64(max(answered, 1)))
	all := append(append([]time.Duration(nil), adds...), removes...)
	rep.set("mutate_p50_ms", percentile(all, 50))
	rep.set("mutate_p90_ms", percentile(all, 90))
	lateP99 := percentile(late, 99)
	fmt.Fprintf(os.Stderr, "served: late p50 %.3f ms p99 %.1f ms; query p50 %.3f ms from due, %.3f ms from send\n",
		percentile(late, 50), lateP99, percentile(lats, 50), percentile(service, 50))
	if lateP99 > ms(lateLimit) || len(late) < len(outs) {
		fmt.Printf("INVALID: the load generator fell behind (late p99 %.1f ms, %d of %d events sent)\n",
			lateP99, len(late), len(outs))
	}

	if err := checkServed(rep, in.db, outs); err != nil {
		return nil, nil, err
	}
	if !traced {
		return rep, nil, nil
	}

	rep.set("served.sub_p50_ms", percentile(subLats, 50))
	rep.set("served.super_p50_ms", percentile(superLats, 50))
	rep.set("mutate.add_p50_ms", percentile(adds, 50))
	rep.set("mutate.remove_p50_ms", percentile(removes, 50))
	rep.set("persist.shutdown_save_ms", median(saves))
	rep.set("persist.snapshot_mb", float64(fi.Size())/(1<<20))
	t0 := time.Now()
	if _, _, err := igq.LoadEngineFile(prepared, in.db, opt); err != nil {
		return nil, nil, err
	}
	rep.set("persist.restore_ms", ms(time.Since(t0)))
	rep.set("server.rejected", float64(st1.Server.Rejected-st0.Server.Rejected))
	rep.set("server.errors", float64(st1.Server.Errors-st0.Server.Errors))
	rep.set("server.super_rebuilds", float64(st1.Server.SuperRebuilds-st0.Server.SuperRebuilds))
	rep.set("loadgen.late_p99_ms", lateP99)
	enc, dec, err := wireTimes(st.timed)
	if err != nil {
		return nil, nil, err
	}
	rep.set("wire.encode_us", enc)
	rep.set("wire.decode_us", dec)

	// The engines behind the server, traced in process on the same
	// dataset and the same sub and super halves of the stream.
	var subQs, superQs []*igq.Graph
	for _, ev := range evs {
		switch {
		case ev.mutate:
		case ev.mode == server.ModeSub:
			subQs = append(subQs, ev.q)
		default:
			superQs = append(superQs, ev.q)
		}
	}
	subS, err := tracedSample(rep, in.db, opt, st.warmup, subQs, dur/4)
	if err != nil {
		return nil, nil, err
	}
	superS, err := tracedSample(rep, in.db, superOptions(), nil, superQs, dur/4)
	if err != nil {
		return nil, nil, err
	}
	setLayerMetrics(rep, subS, superS)
	return rep, []*tracer{subS.tracer, superS.tracer}, nil
}

// superOptions is the supergraph engine igqserve -super hosts.
func superOptions() igq.EngineOptions {
	return igq.EngineOptions{Supergraph: true, CacheSize: 500, Window: 100}
}

// checkServed compares every served answer, restricted to the base
// positions, with cache-free oracles for each mode.
func checkServed(rep *report, db []*igq.Graph, outs []outcome) error {
	var subQs, superQs []*igq.Graph
	for _, o := range outs {
		if o.ev.mutate {
			continue
		}
		if o.ev.mode == server.ModeSub {
			subQs = append(subQs, o.ev.q)
		} else {
			superQs = append(superQs, o.ev.q)
		}
	}
	oracles := map[string]*oracle{}
	for mode, opt := range map[string]igq.EngineOptions{server.ModeSub: engineOptions(nil), server.ModeSuper: superOptions()} {
		opt.DisableCache = true
		e, err := igq.NewEngine(db, opt)
		if err != nil {
			return fmt.Errorf("building %s oracle: %w", mode, err)
		}
		o := newOracle(e)
		qs := subQs
		if mode == server.ModeSuper {
			qs = superQs
		}
		if err := o.prepare(qs); err != nil {
			return err
		}
		if err := o.bruteCheck(db, qs, 8, mode == server.ModeSuper); err != nil {
			return err
		}
		oracles[mode] = o
	}
	for _, o := range outs {
		rep.attempted++
		switch {
		case o.err != nil:
			what := o.ev.mode + " query"
			if o.ev.mutate {
				what = "mutation pair"
				rep.attempted++ // a pair is two operations
			}
			rep.fail("%s: %v", what, o.err)
		case o.ev.mutate:
			rep.attempted++
		case !oracles[o.ev.mode].check(o.ev.q, o.reply.IDs, int32(len(db))):
			rep.fail("wrong %s answer for a query of %d edges", o.ev.mode, o.ev.q.NumEdges())
		}
	}
	return nil
}

// wireTimes is the mean time to encode a query request (EncodeGraph plus
// JSON) and to decode one (JSON plus DecodeGraph), over qs.
func wireTimes(qs []*igq.Graph) (encUS, decUS float64, err error) {
	bodies := make([][]byte, len(qs))
	t0 := time.Now()
	for i, q := range qs {
		bodies[i], err = json.Marshal(server.QueryRequest{Graph: server.EncodeGraph(q)})
		if err != nil {
			return 0, 0, err
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i, b := range bodies {
		var req server.QueryRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, 0, err
		}
		g, err := server.DecodeGraph(req.Graph)
		if err != nil {
			return 0, 0, err
		}
		if g.NumEdges() != qs[i].NumEdges() {
			return 0, 0, errors.New("wire round trip changed a query graph")
		}
	}
	dec := time.Since(t0)
	n := float64(len(qs))
	return us(enc) / n, us(dec) / n, nil
}
