package main

import (
	"bytes"
	"fmt"
	"math/bits"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// inputs is everything one run feeds the program, made from the seed alone.
// Queries and tuples are kept as attribute bit masks (bit i = attribute i):
// that copy is the benchmark's own, and the checkers count over it without
// calling into the program. The program sees the serving log only as CSV.
type inputs struct {
	attrs []string
	// csv is the serving log in the CSV layout the program parses.
	csv []byte
	// log is the benchmark's copy of the same queries, all of weight 1.
	log []uint64
	// tuples are distinct to-be-advertised tuples in draw order; tuples[0]
	// only warms a freshly set-up stack, the timed loop starts at tuples[1].
	tuples []uint64
	// bySize are tuples[1:] grouped by their number of attributes.
	bySize map[int][]uint64
	// appends are the queries a run appends, batchSize at a time.
	appends []uint64
}

// The table, the serving log, the tuple draw and the appended queries each
// get their own stream derived from the run seed.
const (
	streamTable = iota + 1
	streamLog
	streamTuples
	streamAppends
)

func subSeed(seed int64, stream int64) int64 { return seed*7919 + stream }

// paperDataSeed fixes the table, the 185-query log and the tuple set of the
// paper workload, as the paper's experiments use one dataset, one collected
// workload and one fixed set of tuples; the run seed orders the tuple set.
// One small log and a few dozen tuples set the exact solvers' cost, so a
// log or tuple set drawn per seed would make runs differ by the draw rather
// than by the program.
const paperDataSeed = 1

// makeInputs builds a run's inputs: the cars surrogate (15,211 rows, 32
// attributes), a serving log of logSize queries (0 selects the paper's
// 185-query real-workload surrogate, otherwise the synthetic log with the
// paper's 1–5-attribute size mixture), the distinct tuples, and
// nAppends queries of a second synthetic log over the same schema.
func makeInputs(seed int64, logSize, nAppends int) (*inputs, error) {
	dataSeed := seed
	if logSize == 0 {
		dataSeed = paperDataSeed
	}
	tab := gen.Cars(subSeed(dataSeed, streamTable), gen.CarsSize)
	if tab.Width() > 64 {
		return nil, fmt.Errorf("schema width %d does not fit a 64-bit mask", tab.Width())
	}
	var log *dataset.QueryLog
	if logSize == 0 {
		log = gen.RealWorkload(tab, subSeed(dataSeed, streamLog), gen.RealWorkloadSize)
	} else {
		log = gen.SyntheticWorkload(tab.Schema, subSeed(seed, streamLog), logSize, gen.WorkloadOptions{})
	}
	in := &inputs{attrs: append([]string(nil), tab.Schema.Attrs()...)}
	in.log = masksOf(log.Queries)
	in.csv = writeCSV(in.attrs, in.log)

	seen := map[uint64]bool{}
	for _, t := range gen.PickTuples(tab, subSeed(dataSeed, streamTuples), tab.Size()) {
		m := maskOf(t)
		if !seen[m] {
			seen[m] = true
			in.tuples = append(in.tuples, m)
		}
	}
	in.bySize = map[int][]uint64{}
	for _, t := range in.tuples[1:] {
		k := bits.OnesCount64(t)
		in.bySize[k] = append(in.bySize[k], t)
	}
	if nAppends > 0 {
		extra := gen.SyntheticWorkload(tab.Schema, subSeed(seed, streamAppends), nAppends, gen.WorkloadOptions{})
		in.appends = masksOf(extra.Queries)
	}
	return in, nil
}

func maskOf(v bitvec.Vector) uint64 {
	var m uint64
	for _, i := range v.Ones() {
		m |= 1 << uint(i)
	}
	return m
}

func masksOf(vs []bitvec.Vector) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = maskOf(v)
	}
	return out
}

// bitString renders a mask as the program's 0/1 tuple syntax (attribute 0 first).
func bitString(m uint64, width int) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = '0' + byte(m>>uint(i)&1)
	}
	return string(b)
}

// parseBits is the inverse of bitString.
func parseBits(s string) (uint64, error) {
	if len(s) > 64 {
		return 0, fmt.Errorf("bit string of %d bits does not fit a mask", len(s))
	}
	var m uint64
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			m |= 1 << uint(i)
		case '0':
		default:
			return 0, fmt.Errorf("bad bit %q in %q", s[i], s)
		}
	}
	return m, nil
}

// writeCSV renders queries in the header-plus-0/1-rows layout the program's
// query-log reader takes.
func writeCSV(attrs []string, qs []uint64) []byte {
	var b bytes.Buffer
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
	}
	b.WriteByte('\n')
	row := make([]byte, 2*len(attrs))
	for _, q := range qs {
		for i := range attrs {
			row[2*i] = '0' + byte(q>>uint(i)&1)
			row[2*i+1] = ','
		}
		row[len(row)-1] = '\n'
		b.Write(row)
	}
	return b.Bytes()
}
