package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// record is one attempted operation and what the program answered.
type record struct {
	op
	wall  time.Duration
	start time.Time
	// cpu is the process CPU time, of every goroutine, during the operation.
	cpu time.Duration
	// failed says why the operation failed; empty when it did not.
	failed string
	solve  solveReply
	kept   uint64
	// Append replies: the log the POST answered with, the log a GET /log
	// read afterwards, and the benchmark's own tally.
	posted, got, want tally
	// traced holds the per-layer readings of a traced operation.
	traced *opTrace
}

// session is one pass of the closed loop over a workload.
type session struct {
	wl      *workload
	in      *inputs
	seed    int64
	width   int
	records []record
	// setups and setupCPU are the wall and process CPU time of each set-up.
	setups, setupCPU []time.Duration
	// timed is the wall time of the timed intervals.
	timed  time.Duration
	rounds int
	heapMB float64
	tr     *tracer // nil when untraced
}

// setUp builds a stack and answers its first requests, timed in wall and
// process CPU time. It starts from a collected heap, so a set-up does not
// pay for the garbage of the one before it.
func (s *session) setUp() (*stack, error) {
	runtime.GC()
	start, cpu := time.Now(), cpuTime()
	var st *stack
	var err error
	if s.wl.sharded {
		var calls *callLog
		if s.tr != nil {
			calls = &callLog{}
		}
		st, err = shardedStack(s.in.csv, shards, calls)
	} else {
		st, err = serveStack(s.in.csv)
	}
	if err != nil {
		return nil, err
	}
	if err := warm(st, s.in.tuples[0], s.width, budgetM, s.wl.sharded); err != nil {
		st.close()
		return nil, err
	}
	s.setups = append(s.setups, time.Since(start))
	s.setupCPU = append(s.setupCPU, cpuTime()-cpu)
	return st, nil
}

// loop runs whole rounds until the timed intervals add up to seconds, or,
// when maxRounds > 0, exactly maxRounds rounds. It ends with the live heap
// the last stack holds, measured after its background work has stopped.
func (s *session) loop(seconds float64, maxRounds int) error {
	goroutines := runtime.NumGoroutine()
	// Set up at least setupReps times and for at least setupMin in all, so
	// a set-up of a few ms is still read as a median of many. The last
	// stack serves the loop, unless the workload sets one up per round.
	// Every set-up waits until the stack before it has stopped its
	// background work.
	var st *stack
	var spent time.Duration
	for i := 0; i < setupReps || spent < setupMin; i++ {
		if st != nil {
			st.close()
			quiesce(goroutines)
		}
		var err error
		if st, err = s.setUp(); err != nil {
			return err
		}
		spent += s.setups[len(s.setups)-1]
	}
	if s.wl.stackRounds {
		st.close()
		st = nil
	}
	limit := s.wl.rounds(s.in)
	if maxRounds > 0 && maxRounds < limit {
		limit = maxRounds
	}
	for r := 0; r < limit; r++ {
		if s.wl.stackRounds {
			if st != nil {
				s.tr.endStack(st)
				st.close()
				quiesce(goroutines)
			}
			var err error
			if st, err = s.setUp(); err != nil {
				return err
			}
			s.tr.beginStack(st)
		} else if r == 0 {
			s.tr.beginStack(st)
		}
		var tl tally
		tl.queries, tl.weight = len(s.in.log), len(s.in.log)
		for _, o := range s.wl.round(s.in, s.seed, r) {
			rec := s.do(st, o)
			s.timed += rec.wall
			if o.kind == "append" {
				tl.add(o.batch, nil)
				rec.want = tl
				g := call(st.h, http.MethodGet, "/log", nil)
				var lr logReply
				if err := json.Unmarshal(g.body, &lr); err == nil && g.status == http.StatusOK {
					rec.got = tally{lr.Queries, lr.TotalWeight}
				}
			}
			s.records = append(s.records, rec)
		}
		s.rounds++
		if maxRounds <= 0 && s.timed.Seconds() >= seconds {
			break
		}
	}
	if s.rounds == 0 {
		return fmt.Errorf("workload %s has no rounds", s.wl.name)
	}
	// The heap the program holds is the live heap with the last stack
	// minus the live heap once it is dropped, so the benchmark's own records
	// do not count.
	s.tr.endStack(st)
	st.close()
	quiesce(goroutines)
	held := liveHeap()
	runtime.KeepAlive(st)
	st = nil
	s.heapMB = (float64(held) - float64(liveHeap())) / (1 << 20)
	return nil
}

// do runs one operation and classifies its reply. A reply other than a 200
// from the requested solver, whole and undegraded, is a failed operation.
func (s *session) do(st *stack, o op) record {
	var body []byte
	path := "/solve"
	if o.kind == "append" {
		body, path = appendBody(o.batch, s.width), "/log"
	} else {
		body = solveBody(o.tuple, s.width, budgetM, o.kind)
	}
	var r reply
	cpu := cpuTime()
	if s.tr != nil {
		r = s.tr.call(st, path, body)
	} else {
		r = call(st.h, http.MethodPost, path, body)
	}
	rec := record{op: o, wall: r.wall, start: r.start, cpu: cpuTime() - cpu}
	if s.tr != nil {
		rec.traced = s.tr.after(st, r)
	}
	if r.status != http.StatusOK {
		rec.failed = fmt.Sprintf("status %d: %s", r.status, r.body)
		return rec
	}
	if o.kind == "append" {
		var lr logReply
		if err := json.Unmarshal(r.body, &lr); err != nil {
			rec.failed = "bad append reply: " + err.Error()
		}
		rec.posted = tally{lr.Queries, lr.TotalWeight}
		return rec
	}
	if err := json.Unmarshal(r.body, &rec.solve); err != nil {
		rec.failed = "bad solve reply: " + err.Error()
		return rec
	}
	sr := &rec.solve
	switch {
	case sr.Solver != o.kind || sr.Degraded:
		rec.failed = fmt.Sprintf("answered by %q (degraded %v), asked %q", sr.Solver, sr.Degraded, o.kind)
	case sr.Partial:
		rec.failed = "partial answer"
	case sr.Estimated != (o.kind == "estimate"):
		rec.failed = fmt.Sprintf("estimated %v from %q", sr.Estimated, o.kind)
	case sr.Estimated && sr.Estimate == nil:
		rec.failed = "estimate answer without an interval"
	}
	var err error
	if rec.kept, err = parseBits(sr.KeptBits); err != nil && rec.failed == "" {
		rec.failed = "bad kept_bits: " + err.Error()
	}
	return rec
}

// Reading the records.

// chunkCount is how many slices of consecutive operations the throughput
// and CPU metrics are taken over; their median is reported, so a burst of
// host noise over a few slices does not move the result.
const chunkCount = 20

// chunks splits the records into about chunkCount runs of consecutive
// operations, each a whole number of the workload's mix units.
func (s *session) chunks() [][]record {
	size := (len(s.records) + chunkCount - 1) / chunkCount
	size = (size + s.wl.unitOps - 1) / s.wl.unitOps * s.wl.unitOps
	var out [][]record
	for lo := 0; lo < len(s.records); lo += size {
		hi := lo + size
		if hi > len(s.records) {
			break // a partial mix unit would skew the slice
		}
		out = append(out, s.records[lo:hi])
	}
	if len(out) == 0 {
		out = append(out, s.records)
	}
	return out
}

// throughput is the median over chunks of operations per second of the
// handler's wall time, and cpuPerOp the median over chunks of process CPU
// time per operation, in ms.
func (s *session) throughput() (opsPerS, cpuPerOp float64) {
	var tput, cpu []float64
	for _, c := range s.chunks() {
		var wall, busy time.Duration
		for _, r := range c {
			wall += r.wall
			busy += r.cpu
		}
		tput = append(tput, float64(len(c))/wall.Seconds())
		cpu = append(cpu, ms(busy)/float64(len(c)))
	}
	return quantile(tput, 0.5), quantile(cpu, 0.5)
}

func (s *session) failed() int {
	n := 0
	for _, r := range s.records {
		if r.failed != "" {
			n++
		}
	}
	return n
}

// latencies returns the wall times, in ms, of the ops of one kind that did
// not fail.
func (s *session) latencies(kind string) []float64 {
	var out []float64
	for _, r := range s.records {
		if r.kind == kind && r.failed == "" {
			out = append(out, ms(r.wall))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
