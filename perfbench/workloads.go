package main

import (
	"math/rand"
	"time"
)

// op is one operation of the closed loop.
type op struct {
	// kind is a /solve algorithm name, or "append" for POST /log.
	kind  string
	tuple uint64
	batch []uint64
	// logLen is how many queries of the benchmark's log (the serving log
	// followed by the appended queries) the program holds when it answers.
	logLen int
}

// workload is one traffic mix. Every run attempts whole rounds.
type workload struct {
	name string
	// logSize is the serving log's size; 0 selects the paper's 185-query
	// real-workload surrogate.
	logSize int
	// nAppends is the number of appended queries the run generates.
	nAppends int
	// stackRounds sets up a fresh stack for every round of the workload;
	// otherwise the last of the set-ups serves the whole run.
	stackRounds bool
	sharded     bool
	// unitOps is the length of the repeating operation mix.
	unitOps int
	// rounds bounds the rounds the inputs provide.
	rounds func(in *inputs) int
	round  func(in *inputs, seed int64, r int) []op
}

const (
	budgetM   = 5 // m, the attribute budget of every request
	batchSize = 8 // queries per ingest append
	// ingestSteps is the number of append-then-solve steps one ingest stack
	// serves. Every generation of the log stays live (see the README), so a
	// fixed count per stack bounds the heap a run can reach.
	ingestSteps = 250
	largeLog    = 200000
	shards      = 4
	// A run sets up at least setupReps times and for at least setupMin, and
	// reports the median set-up (about seven set-ups on large and sharded).
	setupReps = 7
	setupMin  = 3 * time.Second
)

// paperSizes are the tuple sizes (attributes present) of the paper
// workload's tuple set, paperSet tuples of each. The exact solvers' cost
// grows steeply with the tuple's size and varies widely between tuples of
// one size: at 18 attributes the ILP solver takes about 120 ms a tuple on
// average and up to 1.4 s, and that solve is the largest share of the work.
// Larger tuples are left out: ILP takes seconds on 25 to 29 attributes, and
// on some draws runs past the request deadline.
var paperSizes = []int{8, 10, 12, 14, 16, 18}

// paperSet is the number of tuples of each size in the paper tuple set.
const paperSet = 12

// shardedSizes are the tuple sizes each sharded round draws. The
// coordinator's greedy scatters one count per remaining tuple attribute and
// round, so its latency grows with the tuple's size; a fixed size mix keeps
// the latency median on the same work across seeds.
var shardedSizes = []int{8, 11, 14, 17, 20}

var workloads = map[string]*workload{
	"paper": {
		name:        "paper",
		unitOps:     4 * len(paperSizes) * paperSet,
		stackRounds: true,
		rounds:      func(*inputs) int { return 1 << 30 },
		// Like the paper's experiments, every round solves the same tuple
		// set: the first paperSet tuples of each size, each once with every
		// solver of the paper's experiments, on a fresh stack so the solution
		// memo answers none of them. The seed orders the set in each round.
		round: func(in *inputs, seed int64, r int) []op {
			var tuples []uint64
			for _, k := range paperSizes {
				tuples = append(tuples, in.bySize[k][:paperSet]...)
			}
			rng := rand.New(rand.NewSource(seed*1000003 + int64(r)))
			rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
			ops := make([]op, 0, 4*len(tuples))
			for _, t := range tuples {
				for _, algo := range []string{"brute", "mfi-exact", "ilp", "greedy"} {
					ops = append(ops, op{kind: algo, tuple: t, logLen: len(in.log)})
				}
			}
			return ops
		},
	},
	"large": {
		name:    "large",
		unitOps: 8,
		logSize: largeLog,
		rounds: func(in *inputs) int {
			return (len(in.tuples) - 1) / 6
		},
		round: largeRound,
	},
	"ingest": {
		name:        "ingest",
		unitOps:     2,
		logSize:     20000,
		nAppends:    ingestSteps * batchSize,
		stackRounds: true,
		rounds:      func(*inputs) int { return 1 << 30 },
		// A round is one stack's life: ingestSteps appends of one batch, each
		// followed by a greedy solve on the new generation. Every round
		// repeats the same steps on a fresh stack.
		round: func(in *inputs, _ int64, _ int) []op {
			ops := make([]op, 0, 2*ingestSteps)
			for s := 0; s < ingestSteps; s++ {
				n := len(in.log) + (s+1)*batchSize
				ops = append(ops,
					op{kind: "append", batch: in.appends[s*batchSize : (s+1)*batchSize], logLen: n},
					op{kind: "greedy", tuple: in.tuples[1+s], logLen: n})
			}
			return ops
		},
	},
	"sharded": {
		name:    "sharded",
		logSize: largeLog,
		sharded: true,
		unitOps: len(shardedSizes),
		rounds:  func(in *inputs) int { return minBucket(in, shardedSizes) },
		// Each round asks one fresh tuple of every size in shardedSizes.
		round: func(in *inputs, _ int64, r int) []op {
			ops := make([]op, 0, len(shardedSizes))
			for _, k := range shardedSizes {
				ops = append(ops, op{kind: "greedy", tuple: in.bySize[k][r], logLen: len(in.log)})
			}
			return ops
		},
	},
}

// minBucket is the number of rounds the tuples of the given sizes provide.
func minBucket(in *inputs, sizes []int) int {
	n := len(in.tuples)
	for _, k := range sizes {
		if len(in.bySize[k]) < n {
			n = len(in.bySize[k])
		}
	}
	return n
}

// largeRound is eight requests alternating greedy and estimate. Six use
// tuples never asked before; one greedy and one estimate request (a quarter
// of all) repeat a tuple an earlier request of the same algorithm asked in
// the last 150 rounds. The solution memo answers the greedy repeat; the
// estimate rung is not memoized and solves again.
func largeRound(in *inputs, seed int64, r int) []op {
	fresh := func(j int) uint64 { return in.tuples[1+6*r+j] }
	// Fresh tuples by algorithm, in order: greedy takes round slots 0, 2 and
	// 4, estimate slots 1, 3 and 5.
	nth := func(k, first int) uint64 { return in.tuples[1+6*(k/3)+first+2*(k%3)] }
	rng := rand.New(rand.NewSource(seed*1000003 + int64(r)))
	// repeat draws one of the algorithm's fresh tuples asked before it in
	// this round or in the 150 rounds before.
	repeat := func(first, last int) uint64 {
		lo := last - 450
		if lo < 0 {
			lo = 0
		}
		return nth(lo+rng.Intn(last-lo+1), first)
	}
	n := len(in.log)
	return []op{
		{kind: "greedy", tuple: fresh(0), logLen: n},
		{kind: "estimate", tuple: fresh(1), logLen: n},
		{kind: "greedy", tuple: fresh(2), logLen: n},
		{kind: "estimate", tuple: fresh(3), logLen: n},
		{kind: "greedy", tuple: fresh(4), logLen: n},
		{kind: "estimate", tuple: repeat(1, 3*r+1), logLen: n},
		{kind: "greedy", tuple: repeat(0, 3*r+2), logLen: n},
		{kind: "estimate", tuple: fresh(5), logLen: n},
	}
}
