package main

import (
	"fmt"
	"math/bits"
)

// The checkers below recompute every answer from the benchmark's own copy of
// the inputs, with plain loops over bit masks; none of them calls into the
// program.

// naiveCount is the weighted number of queries retrieved by kept: the sum of
// weights[i] over the queries log[i] ⊆ kept. A nil weights slice means every
// query has weight 1.
func naiveCount(log []uint64, weights []int, kept uint64) int {
	n := 0
	for i, q := range log {
		if q&^kept == 0 {
			if weights == nil {
				n++
			} else {
				n += weights[i]
			}
		}
	}
	return n
}

// exhaustiveOptimum is the largest naiveCount over every subset of tuple with
// at most m attributes, found by trying each m-subset of the tuple's
// attributes (counts only grow with the kept set, so m-subsets suffice).
func exhaustiveOptimum(log []uint64, weights []int, tuple uint64, m int) int {
	var attrs []uint64
	for t := tuple; t != 0; t &= t - 1 {
		attrs = append(attrs, t&-t)
	}
	if m >= len(attrs) {
		return naiveCount(log, weights, tuple)
	}
	// Only queries inside the tuple can ever be retrieved.
	var sub []uint64
	var subW []int
	for i, q := range log {
		if q&^tuple == 0 {
			sub = append(sub, q)
			if weights != nil {
				subW = append(subW, weights[i])
			}
		}
	}
	best := -1
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for {
		var kept uint64
		for _, i := range idx {
			kept |= attrs[i]
		}
		if n := naiveCount(sub, subW, kept); n > best {
			best = n
		}
		// Next m-combination of len(attrs) in lexicographic order.
		i := m - 1
		for i >= 0 && idx[i] == len(attrs)-m+i {
			i--
		}
		if i < 0 {
			return best
		}
		idx[i]++
		for j := i + 1; j < m; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// checkKept verifies the shape every answer must have: the kept set is a
// subset of the tuple with at most m attributes.
func checkKept(tuple, kept uint64, m int) error {
	if kept&^tuple != 0 {
		return fmt.Errorf("kept %#x is not a subset of tuple %#x", kept, tuple)
	}
	if n := bits.OnesCount64(kept); n > m {
		return fmt.Errorf("kept %d attributes, budget is %d", n, m)
	}
	return nil
}

// checkExact verifies an exact answer's satisfied count.
func checkExact(log []uint64, weights []int, kept uint64, satisfied int) error {
	if want := naiveCount(log, weights, kept); satisfied != want {
		return fmt.Errorf("satisfied %d, naive count of kept %#x is %d", satisfied, kept, want)
	}
	return nil
}

// checkInterval verifies that an estimate's certified interval holds the
// naive count of its kept set.
func checkInterval(log []uint64, weights []int, kept uint64, lo, hi int) error {
	n := naiveCount(log, weights, kept)
	if lo > n || n > hi {
		return fmt.Errorf("interval [%d, %d] misses the naive count %d of kept %#x", lo, hi, n, kept)
	}
	return nil
}

// tally is the benchmark's own account of the serving log's size and total
// weight across appends.
type tally struct {
	queries, weight int
}

func (t *tally) add(batch []uint64, weights []int) {
	t.queries += len(batch)
	for i := range batch {
		if weights == nil {
			t.weight++
		} else {
			t.weight += weights[i]
		}
	}
}

// check compares the log size and total weight the program reports.
func (t *tally) check(queries, weight int) error {
	if queries != t.queries || weight != t.weight {
		return fmt.Errorf("program reports %d queries of total weight %d, tally is %d of %d",
			queries, weight, t.queries, t.weight)
	}
	return nil
}
