package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// setupReq is the request id of spans recorded while setting up.
const setupReq = -1

// span is one interval of the traced pass, recorded in this package around
// a call into one layer. Spans of one request share Req; Parent is the id
// of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many calls of the layer the span covers: a replay
	// span times a whole batch.
	Calls int `json:"calls"`
	// Allocs counts heap objects allocated between start and stop, read
	// through runtime/metrics; it includes the allocations of child spans.
	Allocs uint64 `json:"allocs"`
	// Replay marks a span that re-executes, after its request finished,
	// work the request did inside one coarser call, so that the layer can
	// be timed alone. Replay spans are never part of a request's time.
	Replay bool `json:"replay,omitempty"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use; the traced pass of serve-sessions records from two
// client goroutines.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	sample   []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		counters: make(map[string]float64),
		sample:   []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// start opens a span that is part of request req and returns its id.
func (t *tracer) start(req, parent int, name string) int {
	return t.open(req, parent, name, false)
}

// replay opens a replay span for request req and returns its id.
func (t *tracer) replay(req int, name string) int {
	return t.open(req, 0, name, true)
}

// open reads the allocation counter and the clock last, so the span's own
// bookkeeping falls outside what it measures.
func (t *tracer) open(req, parent int, name string, replay bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Replay: replay})
	s := &t.spans[len(t.spans)-1]
	metrics.Read(t.sample)
	s.Allocs = t.sample[0].Value.Uint64()
	s.Start = time.Since(t.t0).Nanoseconds()
	return s.ID
}

// stop closes span id as covering calls calls and returns its duration.
func (t *tracer) stop(id, calls int) time.Duration {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(t.sample)
	s := &t.spans[id-1]
	s.End = end
	s.Calls = calls
	s.Allocs = t.sample[0].Value.Uint64() - s.Allocs
	return time.Duration(s.End - s.Start)
}

// mark records a span from times taken elsewhere and returns its id.
func (t *tracer) mark(req, parent int, name string, from, to time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Calls: 1,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// add accumulates v into a named counter.
func (t *tracer) add(counter string, v float64) {
	t.mu.Lock()
	t.counters[counter] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// layerTotal aggregates every span of one name.
type layerTotal struct {
	Spans  int
	Calls  int
	Self   time.Duration
	Allocs uint64
}

// layers sums spans by name. A span's self time is its duration minus the
// durations of its child spans.
func (t *tracer) layers() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTotal{}
			out[s.Name] = l
		}
		l.Spans++
		l.Calls += s.Calls
		l.Self += time.Duration(s.End - s.Start - children[s.ID])
		l.Allocs += s.Allocs
	}
	return out
}

// covered returns, for every traced request, the time its root span's
// children account for: the root's duration minus its self time.
func (t *tracer) covered() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[int]int) // span id -> request
	for _, s := range t.spans {
		if s.Parent == 0 && !s.Replay && s.Req != setupReq {
			roots[s.ID] = s.Req
		}
	}
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if req, ok := roots[s.Parent]; ok {
			out[req] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
