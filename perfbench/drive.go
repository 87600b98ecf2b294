package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"syscall"
	"time"

	"standout/internal/dataset"
	"standout/internal/serve"
	"standout/internal/shard"
)

// requestTimeoutMS is far above any solve in the workloads, so the deadline
// ladder never degrades a request: an answer from another rung than the one
// asked for is different work and counts as a failed operation.
const requestTimeoutMS = 30000

// stack is one set-up instance of the program, driven through its HTTP
// handler in process (no sockets: loopback would measure the kernel).
type stack struct {
	h     http.Handler
	close func()
	// calls records shard Score calls; set only on traced sharded stacks.
	calls *callLog
}

// reply is one handler response and the wall time the handler took.
type reply struct {
	status int
	body   []byte
	header http.Header
	wall   time.Duration
	start  time.Time
}

// call runs one request through the handler. Building the request and
// reading the response happen outside the timed interval.
func call(h http.Handler, method, path string, body []byte) reply {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	wall := time.Since(start)
	return reply{status: rec.Code, body: rec.Body.Bytes(), header: rec.Header(), wall: wall, start: start}
}

// solveReply covers the solve answers of both the single-process server and
// the shard coordinator; only the server answers estimates.
type solveReply struct {
	KeptBits  string `json:"kept_bits"`
	Satisfied int    `json:"satisfied"`
	Solver    string `json:"solver"`
	Degraded  bool   `json:"degraded"`
	Partial   bool   `json:"partial"`
	Estimated bool   `json:"estimated"`
	Estimate  *struct {
		Lo int `json:"lo"`
		Hi int `json:"hi"`
	} `json:"estimate"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type logReply struct {
	Queries     int `json:"queries"`
	TotalWeight int `json:"total_weight"`
}

// quietLogger drops the program's slow-request log lines, so standard output
// and error carry only the benchmark's own report.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serveStack parses the CSV log and builds the single-process server.
// Solvers run sequentially (SolverWorkers 0).
func serveStack(csv []byte) (*stack, error) {
	log, err := dataset.ReadQueryLogCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("parse log: %w", err)
	}
	srv, err := serve.New(serve.Config{Log: log, Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	return &stack{h: srv.Handler(), close: srv.Close}, nil
}

// shardedStack parses the CSV log, hash-partitions it into n in-process
// shards and builds the coordinator's handler over them with its default
// configuration. With calls non-nil every shard is wrapped in the timing
// decorator.
func shardedStack(csv []byte, n int, calls *callLog) (*stack, error) {
	ctx := context.Background()
	log, err := dataset.ReadQueryLogCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("parse log: %w", err)
	}
	parts, err := shard.Partition(ctx, log, n)
	if err != nil {
		return nil, err
	}
	backends := make([]shard.Backend, n)
	for i, part := range parts {
		l, err := shard.NewLocal(ctx, fmt.Sprintf("s%d", i), part)
		if err != nil {
			return nil, err
		}
		backends[i] = l
		if calls != nil {
			backends[i] = timedBackend{Backend: l, calls: calls}
		}
	}
	srv, err := shard.NewServer(shard.Config{Backends: backends, Schema: log.Schema})
	if err != nil {
		return nil, err
	}
	return &stack{h: srv.Handler(), close: srv.Close, calls: calls}, nil
}

func solveBody(tuple uint64, width, m int, algo string) []byte {
	b, _ := json.Marshal(map[string]any{
		"tuple": bitString(tuple, width), "m": m, "algo": algo, "timeout_ms": requestTimeoutMS,
	})
	return b
}

func appendBody(batch []uint64, width int) []byte {
	specs := make([]string, len(batch))
	for i, q := range batch {
		specs[i] = bitString(q, width)
	}
	b, _ := json.Marshal(map[string]any{"append": specs})
	return b
}

// warm answers a fresh stack's first requests: a greedy solve builds the
// prep index, and on the single-process server an estimate solve waits for
// the estimator model of that generation. Set-up ends with them.
func warm(st *stack, tuple uint64, width, m int, sharded bool) error {
	algos := []string{"greedy", "estimate"}
	if sharded {
		algos = algos[:1]
	}
	for _, algo := range algos {
		r := call(st.h, http.MethodPost, "/solve", solveBody(tuple, width, m, algo))
		var sr solveReply
		if err := json.Unmarshal(r.body, &sr); err != nil || r.status != http.StatusOK || sr.Solver != algo {
			return fmt.Errorf("warm-up %s solve: status %d solver %q: %s", algo, r.status, sr.Solver, r.body)
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quiesce waits, up to a bound, until the goroutines a stack started have
// ended, so heap readings do not catch background builds half done.
func quiesce(goroutines int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}
