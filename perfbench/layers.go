package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/estimate"
	"standout/internal/index"
	"standout/internal/obsv"
)

// deltaSteps is how many one-batch delta builds the direct index calls time
// on workloads that do not append (ingest replays its own append sequence).
const deltaSteps = 16

// directCalls caps the answered kept sets the direct calls are timed on.
const directCalls = 2000

// directReps is how many times each direct build is timed; the median is
// reported.
const directReps = 3

// perLayer computes the per-layer readings of a traced session: the traced
// requests, the /metrics deltas, the shard decorator, and timed direct calls
// into the dataset, index and estimate layers on the same inputs.
func (s *session) perLayer() (map[string]float64, error) {
	out := map[string]float64{}
	tr := s.tr
	n := float64(len(s.records))
	perOp := func(kind, counter string) float64 {
		total, ops := 0.0, 0.0
		for _, r := range s.records {
			if r.kind == kind || kind == "" {
				ops++
				if r.traced != nil {
					total += float64(r.traced.counters[counter])
				}
			}
		}
		if ops == 0 {
			return 0
		}
		return total / ops
	}
	phase := func(kind, name string, q float64) float64 {
		var xs []float64
		for _, r := range s.records {
			if r.kind == kind && r.failed == "" && r.traced != nil {
				if sec, ok := r.traced.phases[name]; ok {
					xs = append(xs, sec*1e3)
				}
			}
		}
		if q < 0 {
			return mean(xs)
		}
		return quantile(xs, q)
	}

	var self []float64
	var mallocs, alloc, gcs, gcPause float64
	for _, r := range s.records {
		if r.traced != nil {
			mallocs += float64(r.traced.mallocs)
			alloc += float64(r.traced.alloc)
			gcs += float64(r.traced.gcs)
			gcPause += float64(r.traced.gcPause)
		}
		if r.kind != "append" && r.failed == "" {
			self = append(self, ms(r.wall)-r.solve.ElapsedMS)
		}
	}
	out["serve.self_ms"] = quantile(self, 0.5)
	out["serve.memo_hits"] = tr.metrics["standout_prep_cache_hits_total"] / n
	out["serve.prep_builds"] = tr.metrics["standout_serve_prep_rebuilds_total"] / n
	out["serve.allocs_per_request"] = mallocs / n
	out["serve.alloc_kb_per_request"] = alloc / 1024 / n

	// The coordinator's greedy runs no select phase of its own, so on
	// sharded this reads NaN and is not printed.
	out["core.select_ms"] = phase("greedy", "select", 0.5)
	out["core.rescans"] = perOp("greedy", "greedy.rescans")
	out["core.enumerate_ms"] = phase("brute", "enumerate", -1)
	out["core.candidates"] = perOp("brute", "bruteforce.candidates")
	out["core.mfi_candidates"] = perOp("mfi-exact", "mfi.candidates")
	out["itemsets.mine_ms"] = phase("mfi-exact", "mine", -1)
	out["itemsets.dfs_nodes"] = perOp("mfi-exact", "itemsets.dfs_nodes")
	out["ilp.branch_bound_ms"] = phase("ilp", "branch_bound", -1)
	out["ilp.nodes"] = perOp("ilp", "ilp.nodes")
	out["lp.pivots"] = perOp("", "lp.pivots")
	out["index.compactions"] = tr.metrics["standout_index_compactions_total"] / n

	var cands float64
	var callMS []float64
	for _, c := range tr.calls {
		cands += float64(c.cands)
		callMS = append(callMS, ms(c.end.Sub(c.start)))
	}
	out["shard.calls_per_request"] = float64(len(tr.calls)) / n
	out["shard.candidates_per_call"] = cands / float64(len(tr.calls)) // NaN, so 0, unsharded
	out["shard.score_ms"] = quantile(callMS, 0.5)
	out["shard.self_ms"] = nan
	if s.wl.sharded {
		out["shard.self_ms"] = quantile(shardSelf(s.records, tr.calls), 0.5)
	}
	out["shard.hedges"] = tr.metrics["standout_shard_hedges_total"] / n
	out["shard.retries"] = tr.metrics["standout_shard_retries_total"] / n

	out["runtime.gc_cycles"] = gcs / n
	out["runtime.gc_pause_ms"] = gcPause / 1e6 / n
	if err := s.direct(out); err != nil {
		return nil, err
	}
	return out, nil
}

// direct times calls into the dataset, index and estimate layers on the
// session's own inputs and answers.
func (s *session) direct(out map[string]float64) error {
	var log *dataset.QueryLog
	var parse []float64
	for i := 0; i < directReps; i++ {
		start := time.Now()
		l, err := dataset.ReadQueryLogCSV(bytes.NewReader(s.in.csv))
		if err != nil {
			return fmt.Errorf("direct parse: %w", err)
		}
		parse = append(parse, ms(time.Since(start)))
		log = l
	}
	out["dataset.parse_ms"] = quantile(parse, 0.5)

	var build []float64
	var prep *core.PreparedLog
	for i := 0; i < directReps; i++ {
		start := time.Now()
		p, err := core.PrepareLog(log)
		if err != nil {
			return fmt.Errorf("direct index build: %w", err)
		}
		build = append(build, ms(time.Since(start)))
		prep = p
	}
	out["index.build_ms"] = quantile(build, 0.5)
	seg, err := index.BuildSegmented(log, index.Options{})
	if err != nil {
		return fmt.Errorf("direct index build: %w", err)
	}
	out["index.mem_mb"] = float64(seg.Mem().Bytes) / (1 << 20)

	var kept []uint64
	for _, r := range s.records {
		if r.kind != "append" && r.failed == "" && len(kept) < directCalls {
			kept = append(kept, r.kept)
		}
	}
	var sat []float64
	for _, k := range kept {
		v := vector(k, s.width)
		start := time.Now()
		seg.Satisfied(v)
		sat = append(sat, float64(time.Since(start))/float64(time.Microsecond))
	}
	out["index.satisfied_us"] = quantile(sat, 0.5)

	var est []float64
	var model *estimate.Model
	for i := 0; i < directReps; i++ {
		start := time.Now()
		m, err := estimate.Build(log, estimate.Options{})
		if err != nil {
			return fmt.Errorf("direct estimator build: %w", err)
		}
		est = append(est, ms(time.Since(start)))
		model = m
	}
	out["estimate.build_ms"] = quantile(est, 0.5)
	var score []float64
	var fallbacks, width float64
	for _, k := range kept {
		v := vector(k, s.width)
		t := obsv.NewTrace()
		ctx := obsv.WithTrace(context.Background(), t)
		start := time.Now()
		iv, err := model.Estimate(ctx, v)
		score = append(score, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("direct estimate: %w", err)
		}
		fallbacks += float64(t.Counter("estimate.lp.fallbacks"))
		width += float64(iv.Hi-iv.Lo) / float64(model.TotalWeight())
	}
	out["estimate.score_us"] = quantile(score, 0.5)
	out["estimate.lp_fallbacks"] = fallbacks / float64(len(kept))
	out["estimate.width"] = width / float64(len(kept))

	return s.deltas(out, log, prep)
}

// deltas times copy-on-write appends (QueryLog.Extend plus the batch) and
// the delta index builds over them. Ingest replays its own append sequence,
// one generation after another; other workloads time deltaSteps one-batch
// appends, each onto the serving log itself.
func (s *session) deltas(out map[string]float64, log *dataset.QueryLog, prep *core.PreparedLog) error {
	steps, chain := deltaSteps, false
	if s.wl.nAppends > 0 {
		steps, chain = s.wl.nAppends/batchSize, true
	}
	var extend, delta []float64
	cur, p := log, prep
	for i := 0; i < steps; i++ {
		start := time.Now()
		next := cur.Extend()
		for _, q := range s.in.appends[i*batchSize : (i+1)*batchSize] {
			if err := next.AppendWeighted(vector(q, s.width), 1); err != nil {
				return fmt.Errorf("direct extend: %w", err)
			}
		}
		mid := time.Now()
		np, err := core.PrepareLogFrom(p, next)
		if err != nil {
			return fmt.Errorf("direct delta build: %w", err)
		}
		extend = append(extend, ms(mid.Sub(start)))
		delta = append(delta, ms(time.Since(mid)))
		if chain {
			cur, p = next, np
		}
		out["index.segments"] = float64(np.Segments())
	}
	out["dataset.extend_ms"] = quantile(extend, 0.5)
	out["index.delta_ms"] = quantile(delta, 0.5)
	return nil
}
