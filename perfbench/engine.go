package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	igq "repro"
	"repro/internal/features"
)

// setupBuilds is how many times a run sets up; setup_s is the median, so
// one slow set-up does not move it.
const setupBuilds = 3

// mutatePairs is how many add+remove round trips the engine workloads
// time after the query phases (each pair adds mutateBatch graphs cloned
// from the stream and removes exactly those tail positions again).
const (
	mutatePairs = 100
	mutateBatch = 4
)

// answer is one completed request of a query loop.
type answer struct {
	q     *igq.Graph
	lat   time.Duration
	ids   []int32
	stats igq.QueryStats
	err   error
}

// closedLoop runs qs (wrapping around) from clients goroutines, each
// sending its next query when the previous one returns, until dur has
// passed or n queries (n > 0) were issued. It returns the answers and the
// wall time from the first send to the last reply.
func closedLoop(eng *igq.Engine, qs []*igq.Graph, clients int, dur time.Duration, n int) ([]answer, time.Duration) {
	if len(qs) == 0 {
		return nil, 0
	}
	var next atomic.Int64
	per := make([][]answer, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if (n > 0 && i >= n) || (dur > 0 && time.Since(start) >= dur) {
					return
				}
				q := qs[i%len(qs)]
				t0 := time.Now()
				res, err := eng.Query(context.Background(), q)
				per[c] = append(per[c], answer{q: q, lat: time.Since(t0), ids: res.IDs, stats: res.Stats, err: err})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []answer
	for _, a := range per {
		out = append(out, a...)
	}
	return out, elapsed
}

// engineOptions is the configuration every engine workload measures:
// Grapes with the paper's default C=500, W=100.
func engineOptions(wrap func(any) any) igq.EngineOptions {
	return igq.EngineOptions{Method: igq.Grapes, CacheSize: 500, Window: 100, WrapMethod: wrap}
}

// timedBuild builds an engine and returns it with the build time.
func timedBuild(db []*igq.Graph, opt igq.EngineOptions) (*igq.Engine, float64, error) {
	runtime.GC() // free earlier engines first, so no build pays for them
	t0 := time.Now()
	e, err := igq.NewEngine(db, opt)
	return e, time.Since(t0).Seconds(), err
}

// checkAnswers compares every answer with a cache-free oracle engine built
// fresh, without the measured engine's wrapper, over the same dataset.
func checkAnswers(rep *report, db []*igq.Graph, opt igq.EngineOptions, as []answer) error {
	opt.WrapMethod = nil
	opt.DisableCache = true
	oe, err := igq.NewEngine(db, opt)
	if err != nil {
		return fmt.Errorf("building oracle: %w", err)
	}
	o := newOracle(oe)
	qs := make([]*igq.Graph, len(as))
	for i, a := range as {
		qs[i] = a.q
	}
	if err := o.prepare(qs); err != nil {
		return err
	}
	if err := o.bruteCheck(db, qs, 8, opt.Supergraph); err != nil {
		return err
	}
	for _, a := range as {
		rep.attempted++
		switch {
		case a.err != nil:
			rep.fail("query failed: %v", a.err)
		case !o.check(a.q, a.ids, int32(len(db))):
			rep.fail("wrong answer for a query of %d edges", a.q.NumEdges())
		}
	}
	return nil
}

// runEngine is an untraced engine workload run: for each segment, a fresh
// engine, its stream's warm-up prefix, then nclients closed-loop clients
// for an equal share of dur, then that share of the mutation pairs. wrap,
// when non-nil, wraps the measured engines' index (tests use it to inject
// faults).
func runEngine(in inputs, dur time.Duration, wrap func(any) any) (*report, error) {
	rep := newReport()
	opt := engineOptions(wrap)
	segs := len(in.streams)
	var setups, rss []float64
	for range setupBuilds - segs { // builds only set-up time needs
		_, secs, err := timedBuild(in.db, opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	var as, checked []answer // timed answers; every answer, warm-up too
	var elapsed time.Duration
	var adds, removes []time.Duration
	for _, st := range in.streams {
		eng, secs, err := timedBuild(in.db, opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		warm, _ := closedLoop(eng, st.warmup, nclients(), 0, len(st.warmup))
		checked = append(checked, warm...)
		runtime.GC()
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		a, el := closedLoop(eng, st.timed, nclients(), dur/time.Duration(segs), 0)
		peak, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		as, elapsed = append(as, a...), elapsed+el
		checked = append(checked, a...)
		ad, rm, err := mutateEngine(eng, len(in.db), st.timed, mutatePairs/segs)
		if err != nil {
			rep.fail("mutation: %v", err)
		}
		adds, removes = append(adds, ad...), append(removes, rm...)
	}
	phase("set-up, timed")
	rep.set("setup_s", median(setups))
	rep.set("rss_peak_mb", slices.Max(rss))
	rep.set("qps", float64(len(as))/elapsed.Seconds())
	lats := make([]time.Duration, len(as))
	iso := 0
	for i, a := range as {
		lats[i] = a.lat
		iso += a.stats.DatasetIsoTests
	}
	rep.set("p50_ms", percentile(lats, 50))
	rep.set("p99_ms", percentile(lats, 99))
	rep.set("iso_tests_per_query", float64(iso)/float64(len(as)))
	all := append(append([]time.Duration(nil), adds...), removes...)
	rep.set("mutate_p50_ms", percentile(all, 50))
	rep.set("mutate_p90_ms", percentile(all, 90))
	rep.attempted += len(all)

	if err := checkAnswers(rep, in.db, opt, checked); err != nil {
		return nil, err
	}
	phase("oracle")
	return rep, nil
}

// mutateEngine times add+remove round trips through the engine API: each
// pair appends a batch cloned from stream queries and removes exactly
// those tail positions, so the dataset returns to its base size.
func mutateEngine(eng *igq.Engine, base int, qs []*igq.Graph, pairs int) (adds, removes []time.Duration, err error) {
	ctx := context.Background()
	for p := range pairs {
		batch := make([]*igq.Graph, mutateBatch)
		pos := make([]int, mutateBatch)
		for i := range batch {
			batch[i] = qs[(p*mutateBatch+i)%len(qs)].Clone()
			pos[i] = base + i
		}
		t0 := time.Now()
		if err := eng.AddGraphs(ctx, batch); err != nil {
			return adds, removes, err
		}
		adds = append(adds, time.Since(t0))
		t0 = time.Now()
		if err := eng.RemoveGraphs(ctx, pos); err != nil {
			return adds, removes, err
		}
		removes = append(removes, time.Since(t0))
		if n := len(eng.Dataset()); n != base {
			return adds, removes, fmt.Errorf("dataset has %d graphs after a mutation pair, want %d", n, base)
		}
	}
	return adds, removes, nil
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one single-client run of a fixed query list on a fresh engine.
type pass struct {
	eng     *igq.Engine
	warm    []answer // the untimed warm-up prefix
	answers []answer
	elapsed time.Duration
	mallocs uint64
	cpu     time.Duration
	gcs     uint32
	flushAt []bool // per answer: Stats().Flushes advanced during the query
}

// runPass builds an engine, runs warm one query at a time untimed, then
// times qs one at a time: for dur when dur > 0 (wrapping around qs),
// otherwise all of qs once. With a tracer, each timed query gets its own
// query object and an engine.query span, and only those are traced.
func runPass(db []*igq.Graph, opt igq.EngineOptions, warm, qs []*igq.Graph, t *tracer, dur time.Duration) (*pass, error) {
	eng, err := igq.NewEngine(db, opt)
	if err != nil {
		return nil, err
	}
	warmed, _ := closedLoop(eng, warm, 1, 0, len(warm))
	if t != nil {
		own := make([]*igq.Graph, len(qs))
		for i, q := range qs {
			own[i] = q.Clone()
		}
		qs = own
	}
	p := &pass{eng: eng, warm: warmed}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	flushes := eng.Stats().Flushes
	start := time.Now()
	for i := 0; ; i++ {
		if (dur > 0 && time.Since(start) >= dur) || (dur <= 0 && i == len(qs)) {
			break
		}
		q := qs[i%len(qs)]
		var id int32
		if t != nil {
			id = t.beginQuery(q, int32(i))
		}
		t0 := time.Now()
		res, err := eng.Query(context.Background(), q)
		lat := time.Since(t0)
		if t != nil {
			t.endQuery(q, id)
			f := eng.Stats().Flushes
			p.flushAt = append(p.flushAt, f != flushes)
			flushes = f
		}
		p.answers = append(p.answers, answer{q: q, lat: lat, ids: res.IDs, stats: res.Stats, err: err})
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcs = ms1.NumGC - ms0.NumGC
	return p, nil
}

// layerSample is what one traced comparison measured: an untraced and a
// traced single-client pass over the same queries on fresh engines.
type layerSample struct {
	n             int
	lt            layerTimes
	flushes       int
	flushSelf     time.Duration
	stats         igq.QueryStats // sums over the traced pass; AnsweredByCache unused
	short         int
	methodBytes   int
	cacheBytes    int
	plain, traced *pass
	pathsUS       float64 // mean features.PathsID time per query
	tracer        *tracer
}

// tracedSample runs the comparison for one engine configuration: the
// traced pass must give the same answers and counters as the untraced
// one, and the per-layer metrics come from its spans. The untraced pass
// runs for dur; the traced pass repeats exactly its queries.
func tracedSample(rep *report, db []*igq.Graph, opt igq.EngineOptions, warm, stream []*igq.Graph, dur time.Duration) (*layerSample, error) {
	plain, err := runPass(db, opt, warm, stream, nil, dur)
	if err != nil {
		return nil, err
	}
	qs := make([]*igq.Graph, len(plain.answers))
	for i, a := range plain.answers {
		qs[i] = a.q
	}
	t := newTracer()
	topt := opt
	topt.WrapMethod = t.wrap
	traced, err := runPass(db, topt, warm, qs, t, 0)
	if err != nil {
		return nil, err
	}
	if err := samePrograms(plain, traced); err != nil {
		rep.fail("traced run differs from untraced run: %v", err)
	}
	ls := &layerSample{n: len(qs), lt: t.layers(), plain: plain, traced: traced, tracer: t}
	for i, a := range traced.answers {
		if traced.flushAt[i] {
			ls.flushes++
			ls.flushSelf += ls.lt.selfByReq[int32(i)]
		}
		if a.stats.AnsweredByCache {
			ls.short++
		}
		ls.stats.BaseCandidates += a.stats.BaseCandidates
		ls.stats.FinalCandidates += a.stats.FinalCandidates
		ls.stats.CacheIsoTests += a.stats.CacheIsoTests
		ls.stats.SubHits += a.stats.SubHits
		ls.stats.SuperHits += a.stats.SuperHits
	}
	ls.methodBytes, ls.cacheBytes = traced.eng.IndexSizeBytes()
	ls.pathsUS = pathsTime(t.dict, qs)
	return ls, nil
}

// setLayerMetrics reports the per-layer metrics of one or more samples
// (the served workload traces its sub and super engines separately).
func setLayerMetrics(rep *report, samples ...*layerSample) {
	var lt layerTimes
	var st igq.QueryStats
	var n, flushes, short, mb, cb int
	var flushSelf, plainCPU, plainElapsed, tracedElapsed time.Duration
	var mallocs uint64
	var gcs uint32
	var paths float64
	for _, s := range samples {
		n += s.n
		lt.query += s.lt.query
		lt.filter += s.lt.filter
		lt.verify += s.lt.verify
		lt.self += s.lt.self
		lt.verifyCalls += s.lt.verifyCalls
		lt.verifyTrue += s.lt.verifyTrue
		flushes += s.flushes
		flushSelf += s.flushSelf
		short += s.short
		st.BaseCandidates += s.stats.BaseCandidates
		st.FinalCandidates += s.stats.FinalCandidates
		st.CacheIsoTests += s.stats.CacheIsoTests
		st.SubHits += s.stats.SubHits
		st.SuperHits += s.stats.SuperHits
		mb += s.methodBytes
		cb += s.cacheBytes
		plainCPU += s.plain.cpu
		plainElapsed += s.plain.elapsed
		tracedElapsed += s.traced.elapsed
		mallocs += s.plain.mallocs
		gcs += s.plain.gcs
		paths += s.pathsUS * float64(s.n)
	}
	nq := float64(max(n, 1))
	rep.set("index.filter_us", us(lt.filter)/nq)
	rep.set("index.filter_share", frac(lt.filter, lt.query))
	rep.set("index.verify_us", us(lt.verify)/nq)
	rep.set("index.verify_calls_per_query", float64(lt.verifyCalls)/nq)
	rep.set("index.verify_true_ratio", ratio(lt.verifyTrue, lt.verifyCalls))
	rep.set("index.verify_share", frac(lt.verify, lt.query))
	rep.set("core.self_us", us(lt.self)/nq)
	rep.set("core.self_share", frac(lt.self, lt.query))
	rep.set("core.flushes", float64(flushes))
	rep.set("core.flush_ms", ms(flushSelf)/float64(max(flushes, 1)))
	rep.set("core.short_circuit_frac", float64(short)/nq)
	rep.set("core.prune_ratio", ratio(st.FinalCandidates, st.BaseCandidates))
	rep.set("core.cache_iso_tests_per_query", float64(st.CacheIsoTests)/nq)
	rep.set("core.sub_hits_per_query", float64(st.SubHits)/nq)
	rep.set("core.super_hits_per_query", float64(st.SuperHits)/nq)
	rep.set("features.paths_us", paths/nq)
	rep.set("index.size_mb", float64(mb)/(1<<20))
	rep.set("core.cache_mb", float64(cb)/(1<<20))
	rep.set("runtime.allocs_per_query", float64(mallocs)/nq)
	rep.set("runtime.cpu_us_per_query", us(plainCPU)/nq)
	rep.set("runtime.gc_cycles", float64(gcs))
	rep.set("trace.overhead_frac", 1-plainElapsed.Seconds()/tracedElapsed.Seconds())
}

// pathsTime is the mean time of one lookup-only path enumeration of a
// query over the index's dictionary, the feature work of every query.
func pathsTime(dict *features.Dict, qs []*igq.Graph) float64 {
	if dict == nil || len(qs) == 0 {
		return 0
	}
	sc := features.NewScratch()
	opt := features.PathOptions{MaxLen: 4}
	start := time.Now()
	for _, q := range qs {
		features.PathsID(q, opt, dict, sc, false)
	}
	return us(time.Since(start)) / float64(len(qs))
}

// samePrograms checks that two passes over the same queries gave the same
// answers and the same counters.
func samePrograms(a, b *pass) error {
	if len(a.answers) != len(b.answers) {
		return fmt.Errorf("%d answers against %d", len(a.answers), len(b.answers))
	}
	for i := range a.answers {
		x, y := a.answers[i], b.answers[i]
		if x.err != nil || y.err != nil {
			return fmt.Errorf("query %d failed: %v / %v", i, x.err, y.err)
		}
		if !slices.Equal(x.ids, y.ids) {
			return fmt.Errorf("query %d: answers differ", i)
		}
		if x.stats != y.stats {
			return fmt.Errorf("query %d: counters differ: %+v against %+v", i, x.stats, y.stats)
		}
	}
	sa, sb := a.eng.Stats(), b.eng.Stats()
	if sa.Flushes != sb.Flushes || sa.AnsweredByCache != sb.AnsweredByCache || sa.DatasetIsoTests != sb.DatasetIsoTests {
		return fmt.Errorf("engine counters differ: %+v against %+v", sa, sb)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func frac(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runEngineTraced is the traced run of an engine workload.
func runEngineTraced(in inputs, dur time.Duration, work string) (*report, []*tracer, error) {
	rep := newReport()
	opt := engineOptions(nil)
	st := in.streams[0]
	ls, err := tracedSample(rep, in.db, opt, st.warmup, st.timed, dur/2)
	if err != nil {
		return nil, nil, err
	}
	setLayerMetrics(rep, ls)
	if err := checkAnswers(rep, in.db, opt, append(ls.plain.warm, ls.plain.answers...)); err != nil {
		return nil, nil, err
	}
	enc, dec, err := wireTimes(st.timed)
	if err != nil {
		return nil, nil, err
	}
	rep.set("wire.encode_us", enc)
	rep.set("wire.decode_us", dec)

	eng := ls.plain.eng
	path := filepath.Join(work, "engine.snap")
	t0 := time.Now()
	if err := igq.SaveEngineFile(path, eng); err != nil {
		return nil, nil, err
	}
	rep.set("persist.shutdown_save_ms", ms(time.Since(t0)))
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	rep.set("persist.snapshot_mb", float64(fi.Size())/(1<<20))
	t0 = time.Now()
	if _, _, err := igq.LoadEngineFile(path, in.db, opt); err != nil {
		return nil, nil, err
	}
	rep.set("persist.restore_ms", ms(time.Since(t0)))

	adds, removes, err := mutateEngine(eng, len(in.db), st.timed, mutatePairs)
	if err != nil {
		rep.fail("mutation: %v", err)
	}
	rep.attempted += len(adds) + len(removes)
	rep.set("mutate.add_p50_ms", percentile(adds, 50))
	rep.set("mutate.remove_p50_ms", percentile(removes, 50))
	return rep, []*tracer{ls.tracer}, nil
}

var phaseStart = time.Now()

// phase logs how long the benchmark spent since the previous phase.
func phase(name string) {
	fmt.Fprintf(os.Stderr, "perfbench: %-14s %6.2fs\n", name, time.Since(phaseStart).Seconds())
	phaseStart = time.Now()
}
