package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentileLadder is the set of tail percentiles a timing may report,
// highest first.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder with at
// least minBeyond of n samples beyond it. It returns 0 when n is too
// small for even the median to qualify.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// timing is a latency distribution summarised the way the benchmark
// reports it: the median and one tail percentile, with the sample count.
type timing struct {
	P50, Tail float64
	TailPct   float64
	N         int
}

// summarize reports xs at the given tail percentile. The percentile is
// fixed per metric by the workload's guaranteed sample count (see
// tailPercentile), not by how many samples one run happened to collect,
// so the metric means the same thing on every run.
func summarize(xs []float64, tailPct float64) (timing, error) {
	if need := minSamples(tailPct); len(xs) < need {
		return timing{}, fmt.Errorf("%d samples, p%g needs at least %d", len(xs), tailPct, need)
	}
	return timing{P50: median(xs), Tail: percentile(xs, tailPct), TailPct: tailPct, N: len(xs)}, nil
}

// minSamples is the smallest sample count that puts minBeyond samples
// beyond the p-th percentile.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond * 100 / (100 - p)))
}
