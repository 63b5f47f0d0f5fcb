package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/netsim"
	"sheriff/internal/store"
)

// The tracer records spans around the program's public seams — the
// server's http.Handler, each retailer's handler (re-registered through
// netsim.Registry.Register), the store.Backend with the fold observer it
// hands to the aggregate engine, and the follower's replica.Target. It
// lives in the benchmark alone; the program is not changed for it.
// Spans stay in memory and are written out when the run ends.

// span is one timed call. Parent is the index of the enclosing span
// (-1 at the top); Op is the operation id (the check's index, or -1).
type span struct {
	Name       string
	Op, Parent int
	Start, End int64 // ns since the tracer started
	Key        string
}

// window is a named phase of the run, for summing spans per phase.
type window struct {
	Name       string
	Start, End int64
}

type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	windows []window

	// batches maps the first row of an in-flight AddAll batch to its span
	// index: the store hands the observer the same slice, so the fold
	// span finds its parent.
	batches sync.Map
	// plain holds the unwrapped retailer handlers, for replaying fetches
	// without recording them.
	plain *netsim.Registry

	applyFrames, applyRows atomic.Int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18), plain: netsim.NewRegistry()}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) set(i int, s span) {
	t.mu.Lock()
	t.spans[i] = s
	t.mu.Unlock()
}

// phase runs fn as the named window.
func (t *tracer) phase(name string, fn func() error) error {
	start := t.ns(time.Now())
	err := fn()
	t.mu.Lock()
	t.windows = append(t.windows, window{name, start, t.ns(time.Now())})
	t.mu.Unlock()
	return err
}

// sum totals the duration and count of spans named name that lie inside
// the named phase; keep, when set, filters on the span.
func (t *tracer) sum(phase, name string, keep func(span) bool) (total time.Duration, n int) {
	t.each(phase, name, func(_ int, s span) {
		if keep == nil || keep(s) {
			total += time.Duration(s.End - s.Start)
			n++
		}
	})
	return total, n
}

// selfTime is sum for spans named name, less the time of their children
// named child: the layer's own time.
func (t *tracer) selfTime(phase, name, child string) (total time.Duration, n int) {
	t.mu.Lock()
	kids := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 {
			kids[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	t.mu.Unlock()
	t.each(phase, name, func(i int, s span) {
		total += time.Duration(s.End-s.Start) - kids[i]
		n++
	})
	return total, n
}

// each calls fn for every span named name inside the named phase.
func (t *tracer) each(phase, name string, fn func(int, span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.windows {
		if w.Name != phase {
			continue
		}
		for i, s := range t.spans {
			if s.Name == name && s.Start >= w.Start && s.End <= w.End {
				fn(i, s)
			}
		}
	}
}

// tracedHandler times an http.Handler.
type tracedHandler struct {
	t    *tracer
	name string
	next http.Handler
}

func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return tracedHandler{t, name, h}
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	op := -1
	if v := r.Header.Get(opHeader); v != "" {
		op, _ = strconv.Atoi(v)
	}
	h.t.add(span{Name: h.name, Op: op, Parent: -1, Start: h.t.ns(start), End: h.t.ns(end), Key: r.Host + r.URL.Path})
}

// wrapRetailers re-registers every retailer behind a timing handler and
// keeps the originals for replays.
func (t *tracer) wrapRetailers(reg *netsim.Registry) {
	for _, d := range reg.Domains() {
		h, _ := reg.Lookup(d)
		t.plain.Register(d, h)
		reg.Register(d, t.wrapHandler("shop", h))
	}
}

// tracedStore times the durable backend's write path. Embedding keeps
// every other method — reads, replication, stats — the engine's own.
type tracedStore struct {
	*store.Durable
	t *tracer
}

func (t *tracer) wrapStore(d *store.Durable) store.Backend { return tracedStore{d, t} }

func (s tracedStore) Add(o store.Observation) { s.AddAll([]store.Observation{o}) }

func (s tracedStore) AddAll(obs []store.Observation) {
	if len(obs) == 0 {
		s.Durable.AddAll(obs)
		return
	}
	idx := s.t.add(span{Name: "store.add_all", Op: -1, Parent: -1})
	s.t.batches.Store(&obs[0], idx)
	start := time.Now()
	s.Durable.AddAll(obs)
	end := time.Now()
	s.t.batches.Delete(&obs[0])
	s.t.set(idx, span{Name: "store.add_all", Op: -1, Parent: -1, Start: s.t.ns(start), End: s.t.ns(end), Key: obs[0].Source + " " + obs[0].URL})
}

func (s tracedStore) SetObserver(fn store.Observer) {
	if fn == nil {
		s.Durable.SetObserver(nil)
		return
	}
	s.Durable.SetObserver(func(batch []store.Observation) {
		start := time.Now()
		fn(batch)
		end := time.Now()
		parent := -1
		if len(batch) > 0 {
			if v, ok := s.t.batches.Load(&batch[0]); ok {
				parent = v.(int)
			}
		}
		s.t.add(span{Name: "aggregate.fold", Op: -1, Parent: parent, Start: s.t.ns(start), End: s.t.ns(end)})
	})
}

// tracedTarget times a follower store's ApplyAt, one call per
// non-heartbeat replication frame.
type tracedTarget struct {
	*store.Store
	t *tracer
}

func (tt tracedTarget) ApplyAt(seqs []uint64, obs []store.Observation) error {
	start := time.Now()
	err := tt.Store.ApplyAt(seqs, obs)
	end := time.Now()
	tt.t.applyFrames.Add(1)
	tt.t.applyRows.Add(int64(len(obs)))
	tt.t.add(span{Name: "replica.apply", Op: -1, Parent: -1, Start: tt.t.ns(start), End: tt.t.ns(end)})
	return err
}

// link fills the parents the seams cannot see: a retailer or store span
// inside a check's server span, for the same product URL, belongs to that
// check. opURL maps a check's operation id to its URL.
func (t *tracer) link(opURL map[int]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var api []int
	for i, s := range t.spans {
		if s.Name == "api" && s.Op >= 0 {
			api = append(api, i)
		}
	}
	sort.Slice(api, func(a, b int) bool { return t.spans[api[a]].Start < t.spans[api[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if (s.Name != "shop" && s.Name != "store.add_all") || s.Parent >= 0 {
			continue
		}
		// One client: the enclosing server span, if any, is the last one
		// to start before s.
		j := sort.Search(len(api), func(k int) bool { return t.spans[api[k]].Start > s.Start })
		if j == 0 {
			continue
		}
		p := t.spans[api[j-1]]
		if u := opURL[p.Op]; s.End <= p.End && u != "" && (s.Key == u[len("http://"):] || s.Key == store.SourceCrowd+" "+u) {
			s.Parent, s.Op = api[j-1], p.Op
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "aggregate.fold" && s.Parent >= 0 {
			s.Op = t.spans[s.Parent].Op
		}
	}
}

// writeFile writes the phases and spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	for _, w := range t.windows {
		fmt.Fprintf(bw, `{"phase":%q,"start_ns":%d,"end_ns":%d}`+"\n", w.Name, w.Start, w.End)
	}
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"key":%q}`+"\n",
			i, s.Name, s.Op, s.Parent, s.Start, s.End, s.Key)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
