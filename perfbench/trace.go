package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one benchmark job
// share Job; Parent links a span to the span that caused it.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	Dur    float64 `json:"dur_s"`
	Code   int     `json:"code,omitempty"` // HTTP status, for HTTP spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span

	// cur is the job the single closed-loop client has in flight. The
	// coordinator calls its nodes on its own goroutines, so node-side
	// spans are attributed to the one job in flight rather than through
	// request headers.
	cur atomic.Pointer[jobScope]
}

type jobScope struct {
	job   string
	root  int64        // the client's job span
	coord atomic.Int64 // the coordinator's submission span for the job
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(id, parent int64, job, name string, start time.Time, code int) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), Dur: time.Since(start).Seconds(), Code: code}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records fn's duration as a span and passes its error through.
func (t *tracer) timed(parent int64, job, name string, fn func() error) error {
	id, start := t.id(), time.Now()
	err := fn()
	t.add(id, parent, job, name, start, 0)
	return err
}

// beginJob makes job the one in flight and returns its root span id.
// Requests outside a job pass through the middleware unrecorded.
func (t *tracer) beginJob(job string) int64 {
	if t == nil {
		return 0
	}
	sc := &jobScope{job: job, root: t.id()}
	t.cur.Store(sc)
	return sc.root
}

// endJob ends the job in flight.
func (t *tracer) endJob() {
	if t != nil {
		t.cur.Store(nil)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string, host map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"host": host, "spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

const spanHeader = "X-Perfbench-Span"

// transport wraps the benchmark client's HTTP transport: one span per
// request, carrying its id to the coordinator in a header.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tp transport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc := tp.t.cur.Load()
	if sc == nil {
		return tp.base.RoundTrip(r)
	}
	id, start := tp.t.id(), time.Now()
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tp.base.RoundTrip(r)
	code := 0
	if err == nil {
		code = resp.StatusCode
	}
	// An SSE response is still streaming when RoundTrip returns; its span
	// is the request round trip only, the stream shows on the server side.
	tp.t.add(id, sc.root, sc.job, "client "+r.Method+" "+routeOf(r.URL.Path), start, code)
	return resp, err
}

// handler wraps a daemon's or the coordinator's http.Handler: one span
// per request, parented to the calling span.
func (t *tracer) handler(role string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := t.cur.Load()
		if sc == nil {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.id(), time.Now()
		route := routeOf(r.URL.Path)
		parent := sc.root
		if role == "coord" {
			if p, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
				parent = p
			}
			if r.Method == http.MethodPost && route == "/v1/jobs" {
				sc.coord.Store(id)
			}
		} else if c := sc.coord.Load(); c != 0 {
			parent = c
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		t.add(id, parent, sc.job, role+" "+r.Method+" "+route, start, sw.code)
	})
}

// routeOf folds job ids out of a request path.
func routeOf(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) > 3 && parts[1] == "v1" && parts[2] == "jobs" {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

// statusWriter records the response status and keeps the writer
// flushable, which the SSE handlers require.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// durationsOf returns the durations of the spans named name, in ms.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur*1000)
		}
	}
	return out
}
