package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer points is one outlier's value.
const minBeyond = 10

// summary describes one timing distribution the way every report line
// prints it: the median, the tail percentile actually used and the
// sample count both were read from.
type summary struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64 // percentile actually reported, in (0, 100]
}

// summarize reads the median and the tail of xs. The tail is the wanted
// percentile (for example 99) when at least minBeyond samples lie above
// it, otherwise the highest percentile that still leaves minBeyond
// samples above it, and never below the median. Percentiles use the
// nearest-rank rule over all the samples, so every reported value is a
// sample.
func summarize(xs []float64, want float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := int(math.Ceil(0.5 * float64(n)))
	out := summary{N: n, P50: s[med-1]}
	out.Tail, out.TailPct = tail(s, want)
	return out
}

// tail returns the tail value of the sorted samples s and its
// percentile.
func tail(s []float64, want float64) (float64, float64) {
	n := len(s)
	med := int(math.Ceil(0.5 * float64(n)))
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < med {
		rank = med
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// String renders the summary with its sample count and the tail
// percentile it really reports.
func (s summary) String() string {
	return fmt.Sprintf("p50 %.3f  p%.1f %.3f  (n=%d)", s.P50, s.TailPct, s.Tail, s.N)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maxOf returns the largest value of xs, or 0 for no samples.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio returns num/den, or 0 when den is 0, so a counter the workload
// never exercised reads as 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ledger counts the operations a run attempted and those that failed:
// non-2xx responses, transport errors, missed visibility deadlines and
// failed correctness checks all count as failed operations. It is safe
// for concurrent use.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
	// checksFailed counts failed correctness checks only; any of them
	// makes the run incorrect.
	checksFailed atomic.Int64
}

// op records one attempted operation and whether it succeeded.
func (l *ledger) op(ok bool) {
	l.attempted.Add(1)
	if !ok {
		l.failed.Add(1)
	}
}

// check records one correctness check. A failed check is also a
// failed operation.
func (l *ledger) check(ok bool) {
	l.op(ok)
	if !ok {
		l.checksFailed.Add(1)
	}
}

// failedRatio is failed ÷ attempted operations.
func (l *ledger) failedRatio() float64 {
	return ratio(float64(l.failed.Load()), float64(l.attempted.Load()))
}
