package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"standout/internal/bitvec"
	"standout/internal/obsv"
	"standout/internal/shard"
)

// The traced run reads the program from outside: the flight record of each
// request (GET /debug/requests/{trace_id}), the process counters before and
// after each stack's share of the loop (GET /metrics), the runtime's
// allocation and GC counters around each request, and a timing decorator
// around every shard backend. Reading them happens outside the timed
// request intervals.

// opTrace is the per-layer reading of one traced operation.
type opTrace struct {
	phases   map[string]float64 // phase name → seconds
	counters map[string]int64
	mallocs  uint64
	alloc    uint64 // bytes
	gcs      uint32 // GC cycles that ended during the operation
	gcPause  uint64 // ns of GC pause during the operation
}

type tracer struct {
	// metrics sums, over the stacks, the change of each /metrics counter
	// from the end of a stack's set-up to the end of its share of the loop.
	metrics map[string]float64
	at      map[string]float64

	before, afterMS runtime.MemStats

	calls []scoreCall
}

func newTracer() *tracer { return &tracer{metrics: map[string]float64{}} }

func (t *tracer) beginStack(st *stack) {
	if t == nil {
		return
	}
	t.at = scrape(st)
}

func (t *tracer) endStack(st *stack) {
	if t == nil {
		return
	}
	for name, v := range scrape(st) {
		t.metrics[name] += v - t.at[name]
	}
	if st.calls != nil {
		t.calls = append(t.calls, st.calls.take()...)
	}
}

// call runs one request with runtime counters read around it.
func (t *tracer) call(st *stack, path string, body []byte) reply {
	runtime.ReadMemStats(&t.before)
	r := call(st.h, http.MethodPost, path, body)
	runtime.ReadMemStats(&t.afterMS)
	return r
}

// after fetches the request's flight record.
func (t *tracer) after(st *stack, r reply) *opTrace {
	ot := &opTrace{
		phases:  map[string]float64{},
		mallocs: t.afterMS.Mallocs - t.before.Mallocs,
		alloc:   t.afterMS.TotalAlloc - t.before.TotalAlloc,
		gcs:     t.afterMS.NumGC - t.before.NumGC,
		gcPause: t.afterMS.PauseTotalNs - t.before.PauseTotalNs,
	}
	id := r.header.Get("X-Request-Id")
	g := call(st.h, http.MethodGet, "/debug/requests/"+id, nil)
	var rec obsv.Record
	if err := json.Unmarshal(g.body, &rec); err == nil && rec.Trace != nil {
		for _, ph := range rec.Trace.Phases {
			ot.phases[ph.Name] += ph.Seconds
		}
		ot.counters = rec.Trace.Counters
	}
	return ot
}

// scrape reads the process counters from GET /metrics (unlabelled samples).
func scrape(st *stack) map[string]float64 {
	r := call(st.h, http.MethodGet, "/metrics", nil)
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// scoreCall is one shard Score call seen by the timing decorator.
type scoreCall struct {
	start, end time.Time
	cands      int
}

type callLog struct {
	mu    sync.Mutex
	calls []scoreCall
}

func (l *callLog) add(c scoreCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) take() []scoreCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// timedBackend is the timing decorator around a shard backend.
type timedBackend struct {
	shard.Backend
	calls *callLog
}

func (b timedBackend) Score(ctx context.Context, mode shard.Mode, cands []bitvec.Vector) ([]int, error) {
	start := time.Now()
	out, err := b.Backend.Score(ctx, mode, cands)
	b.calls.add(scoreCall{start: start, end: time.Now(), cands: len(cands)})
	return out, err
}

// shardSelf is, per request, its wall time minus the part of it covered by
// at least one Score call, in ms. The client is single, so the calls inside
// a request's interval are that request's.
func shardSelf(recs []record, calls []scoreCall) []float64 {
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var out []float64
	k := 0
	for _, r := range recs {
		if r.failed != "" {
			continue
		}
		end := r.start.Add(r.wall)
		for k < len(calls) && calls[k].start.Before(r.start) {
			k++
		}
		var covered time.Duration
		reach := r.start
		for j := k; j < len(calls) && calls[j].start.Before(end); j++ {
			s, e := calls[j].start, calls[j].end
			if e.After(end) {
				e = end
			}
			if s.Before(reach) {
				s = reach
			}
			if e.After(s) {
				covered += e.Sub(s)
				reach = e
			}
		}
		out = append(out, ms(r.wall-covered))
	}
	return out
}
