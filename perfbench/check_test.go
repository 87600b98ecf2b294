package main

import "testing"

// Each checker must accept the right answer and reject a wrong one.

var testLog = []uint64{0b0011, 0b0001, 0b0110, 0b1000, 0b0111, 0b0011}

func TestNaiveCount(t *testing.T) {
	if got := naiveCount(testLog, nil, 0b0011); got != 3 {
		t.Fatalf("naiveCount = %d, want 3", got)
	}
	if got := naiveCount(testLog, []int{2, 1, 1, 1, 1, 5}, 0b0011); got != 8 {
		t.Fatalf("weighted naiveCount = %d, want 8", got)
	}
	if err := checkExact(testLog, nil, 0b0011, 3); err != nil {
		t.Fatalf("right count rejected: %v", err)
	}
	if err := checkExact(testLog, nil, 0b0011, 4); err == nil {
		t.Fatal("wrong count accepted")
	}
}

func TestExhaustiveOptimum(t *testing.T) {
	// With two of the tuple's attributes, {0,1} retrieves three queries and
	// no other pair retrieves more.
	if got := exhaustiveOptimum(testLog, nil, 0b0111, 2); got != 3 {
		t.Fatalf("optimum = %d, want 3", got)
	}
	if got := exhaustiveOptimum(testLog, nil, 0b0111, 3); got != 5 {
		t.Fatalf("optimum with the whole tuple = %d, want 5", got)
	}
	// A claimed optimum below the true one must not pass as optimal.
	opt := exhaustiveOptimum(testLog, nil, 0b1111, 2)
	if naiveCount(testLog, nil, 0b0110) == opt {
		t.Fatal("a suboptimal kept set reads as optimal")
	}
}

func TestCheckKept(t *testing.T) {
	if err := checkKept(0b0111, 0b0011, 2); err != nil {
		t.Fatalf("right kept set rejected: %v", err)
	}
	if err := checkKept(0b0111, 0b1001, 2); err == nil {
		t.Fatal("kept set outside the tuple accepted")
	}
	if err := checkKept(0b0111, 0b0111, 2); err == nil {
		t.Fatal("kept set over budget accepted")
	}
}

func TestCheckInterval(t *testing.T) {
	if err := checkInterval(testLog, nil, 0b0011, 2, 4); err != nil {
		t.Fatalf("containing interval rejected: %v", err)
	}
	if err := checkInterval(testLog, nil, 0b0011, 4, 6); err == nil {
		t.Fatal("interval above the count accepted")
	}
	if err := checkInterval(testLog, nil, 0b0011, 0, 2); err == nil {
		t.Fatal("interval below the count accepted")
	}
}

func TestTally(t *testing.T) {
	tl := tally{queries: 6, weight: 6}
	tl.add([]uint64{1, 2}, nil)
	tl.add([]uint64{4}, []int{3})
	if err := tl.check(9, 11); err != nil {
		t.Fatalf("right log size rejected: %v", err)
	}
	if err := tl.check(9, 10); err == nil {
		t.Fatal("wrong total weight accepted")
	}
	if err := tl.check(8, 11); err == nil {
		t.Fatal("wrong log size accepted")
	}
}

func TestBitString(t *testing.T) {
	m, err := parseBits(bitString(0b1011, 6))
	if err != nil || m != 0b1011 {
		t.Fatalf("round trip = %b, %v", m, err)
	}
	if bitString(0b1011, 6) != "110100" {
		t.Fatalf("bitString = %s, want attribute 0 first", bitString(0b1011, 6))
	}
}
