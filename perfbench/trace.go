package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	igq "repro"
	"repro/internal/features"
	"repro/internal/index/contain"
	"repro/internal/index/grapes"
)

// Span names: one per layer boundary the traced run times.
const (
	spanQuery  = "engine.query"
	spanFilter = "index.filter"
	spanVerify = "index.verify"
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	name       string
	id, parent int32
	req        int32 // request id, shared by every span of one query
	start, end int64
	ok         bool // a verify span's outcome
}

// tracer keeps spans in memory until the run ends. A child span finds its
// parent through the query graph pointer, so every request of a traced run
// must carry its own query object. FilterByFeatureCounts receives no query
// graph; its parent is the most recently opened query span, which is exact
// because traced runs issue one request at a time.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	active map[*igq.Graph]int32 // open query span index by query graph
	last   int32                // most recently opened query span, -1 if none

	dict *features.Dict // the wrapped index's feature dictionary
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), active: map[*igq.Graph]int32{}, last: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginQuery opens the engine.query span of request req for query q.
func (t *tracer) beginQuery(q *igq.Graph, req int32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: spanQuery, id: id, parent: -1, req: req, start: start})
	t.active[q] = id
	t.last = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endQuery(q *igq.Graph, id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	delete(t.active, q)
	if t.last == id {
		t.last = -1
	}
	t.mu.Unlock()
}

// child records a finished child span of the query span that q (or, when
// q is nil, the most recent query) belongs to. Calls outside any traced
// request, such as warm-up queries, are not recorded.
func (t *tracer) child(name string, q *igq.Graph, start int64, ok bool) {
	end := t.now()
	t.mu.Lock()
	parent := t.last
	if q != nil {
		p, found := t.active[q]
		if !found {
			parent = -1
		} else {
			parent = p
		}
	}
	if parent >= 0 {
		t.spans = append(t.spans, span{name: name, id: int32(len(t.spans)), parent: parent,
			req: t.spans[parent].req, start: start, end: end, ok: ok})
	}
	t.mu.Unlock()
}

// tracedGrapes and tracedContain time the dataset index's read path. They
// embed the concrete index, not index.Method, so the engine still sees its
// CountFilterer, DictProvider and Mutable capabilities and runs the same
// program as an untraced engine.
type tracedGrapes struct {
	*grapes.Index
	t *tracer
}

func (w tracedGrapes) Filter(q *igq.Graph) []int32 {
	s := w.t.now()
	out := w.Index.Filter(q)
	w.t.child(spanFilter, q, s, false)
	return out
}

func (w tracedGrapes) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := w.t.now()
	out := w.Index.FilterByFeatureCounts(qf)
	w.t.child(spanFilter, nil, s, false)
	return out
}

func (w tracedGrapes) Verify(q *igq.Graph, id int32) bool {
	s := w.t.now()
	ok := w.Index.Verify(q, id)
	w.t.child(spanVerify, q, s, ok)
	return ok
}

type tracedContain struct {
	*contain.Index
	t *tracer
}

func (w tracedContain) Filter(q *igq.Graph) []int32 {
	s := w.t.now()
	out := w.Index.Filter(q)
	w.t.child(spanFilter, q, s, false)
	return out
}

func (w tracedContain) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := w.t.now()
	out := w.Index.FilterByFeatureCounts(qf)
	w.t.child(spanFilter, nil, s, false)
	return out
}

func (w tracedContain) Verify(q *igq.Graph, id int32) bool {
	s := w.t.now()
	ok := w.Index.Verify(q, id)
	w.t.child(spanVerify, q, s, ok)
	return ok
}

// wrap is the EngineOptions.WrapMethod hook of a traced engine.
func (t *tracer) wrap(m any) any {
	switch x := m.(type) {
	case *grapes.Index:
		t.dict = x.FeatureDict()
		return tracedGrapes{x, t}
	case *contain.Index:
		t.dict = x.FeatureDict()
		return tracedContain{x, t}
	}
	return m // an unknown method stays untraced; layerTimes then reads zero
}

// layerTimes are totals over the traced query spans.
type layerTimes struct {
	query          time.Duration // sum of engine.query durations
	filter, verify time.Duration // sum of child durations
	self           time.Duration // query time not covered by a child
	verifyCalls    int
	verifyTrue     int
	selfByReq      map[int32]time.Duration
}

// layers folds the recorded spans into per-layer totals. A query's self
// time is its duration minus the union of its children's intervals.
func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{selfByReq: map[int32]time.Duration{}}
	kids := map[int32][]span{}
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		kids[s.parent] = append(kids[s.parent], s)
		switch s.name {
		case spanFilter:
			lt.filter += time.Duration(s.end - s.start)
		case spanVerify:
			lt.verify += time.Duration(s.end - s.start)
			lt.verifyCalls++
			if s.ok {
				lt.verifyTrue++
			}
		}
	}
	for _, s := range t.spans {
		if s.name != spanQuery {
			continue
		}
		d := time.Duration(s.end - s.start)
		lt.query += d
		self := d - coverage(s, kids[s.id])
		lt.self += self
		lt.selfByReq[s.req] = self
	}
	return lt
}

// coverage is the length of the part of parent's interval covered by at
// least one child.
func coverage(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, t := range ts {
		t.mu.Lock()
		for _, s := range t.spans {
			fmt.Fprintf(bw, `{"tracer":%d,"name":%q,"id":%d,"parent":%d,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				i, s.name, s.id, s.parent, s.req, s.start, s.end)
		}
		t.mu.Unlock()
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
