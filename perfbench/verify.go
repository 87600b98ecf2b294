package main

import (
	"bytes"
	"context"
	"fmt"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
)

// verify checks every answer that did not fail:
//   - the kept set is a subset of the tuple of size ≤ m;
//   - an exact answer's satisfied equals the naive weighted count, and an
//     estimate's interval contains it;
//   - on paper, brute, mfi-exact and ilp equal the exhaustive optimum and
//     greedy does not exceed it;
//   - on sharded, the answer equals the unsharded greedy solver's on the
//     same log (the coordinator's bit-identity claim);
//   - after every append, the log size and total weight the program reports,
//     in the POST reply and in a later GET /log, equal the benchmark's tally.
func (s *session) verify() []error {
	var errs []error
	full := append(append([]uint64(nil), s.in.log...), s.in.appends...)
	optimum := map[uint64]int{}
	var ref *reference
	if s.wl.sharded {
		var err error
		if ref, err = newReference(s.in.csv, s.width); err != nil {
			return []error{err}
		}
	}
	for i := range s.records {
		r := &s.records[i]
		if r.failed != "" {
			continue
		}
		fail := func(err error) {
			errs = append(errs, fmt.Errorf("%s op %d (%s): %w", s.wl.name, i, r.kind, err))
		}
		if r.kind == "append" {
			if err := r.want.check(r.posted.queries, r.posted.weight); err != nil {
				fail(fmt.Errorf("POST /log: %w", err))
			}
			if err := r.want.check(r.got.queries, r.got.weight); err != nil {
				fail(fmt.Errorf("GET /log: %w", err))
			}
			continue
		}
		log := full[:r.logLen]
		if err := checkKept(r.tuple, r.kept, budgetM); err != nil {
			fail(err)
			continue
		}
		if r.solve.Estimated {
			if err := checkInterval(log, nil, r.kept, r.solve.Estimate.Lo, r.solve.Estimate.Hi); err != nil {
				fail(err)
			}
			continue
		}
		if err := checkExact(log, nil, r.kept, r.solve.Satisfied); err != nil {
			fail(err)
			continue
		}
		if s.wl.name == "paper" {
			opt, ok := optimum[r.tuple]
			if !ok {
				opt = exhaustiveOptimum(log, nil, r.tuple, budgetM)
				optimum[r.tuple] = opt
			}
			if r.kind == "greedy" && r.solve.Satisfied > opt {
				fail(fmt.Errorf("greedy satisfied %d exceeds the optimum %d", r.solve.Satisfied, opt))
			} else if r.kind != "greedy" && r.solve.Satisfied != opt {
				fail(fmt.Errorf("satisfied %d, exhaustive optimum is %d", r.solve.Satisfied, opt))
			}
		}
		if ref != nil {
			kept, sat, err := ref.greedy(r.tuple)
			if err != nil {
				fail(err)
			} else if kept != r.kept || sat != r.solve.Satisfied {
				fail(fmt.Errorf("sharded answer %#x/%d, unsharded greedy %#x/%d", r.kept, r.solve.Satisfied, kept, sat))
			}
		}
	}
	return errs
}

// reference is the unsharded greedy solver over the whole log, the answer
// the coordinator must reproduce.
type reference struct {
	prep  *core.PreparedLog
	width int
}

func newReference(csv []byte, width int) (*reference, error) {
	log, err := dataset.ReadQueryLogCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	p, err := core.PrepareLog(log)
	if err != nil {
		return nil, err
	}
	return &reference{prep: p, width: width}, nil
}

// greedy solves tuple unsharded.
func (r *reference) greedy(tuple uint64) (uint64, int, error) {
	sol, err := r.prep.SolveContext(context.Background(), core.ConsumeAttrCumul{}, vector(tuple, r.width), budgetM)
	if err != nil {
		return 0, 0, err
	}
	return maskOf(sol.Kept), sol.Satisfied, nil
}

func vector(m uint64, width int) bitvec.Vector {
	v := bitvec.New(width)
	for i := 0; i < width; i++ {
		if m>>uint(i)&1 == 1 {
			v.Set(i)
		}
	}
	return v
}
