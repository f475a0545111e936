// Package metrics provides the evaluation quantities of Section V:
// the completion-time lower bound L(J), the completion-time ratio the
// figures plot, the work-per-processor skew measure of Section V-E,
// streaming summary statistics for aggregating ratios over many job
// instances, and the sorted x-utilization balance vectors of
// Section IV-A that MQB's lexicographic comparison rule is built on.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"fhs/internal/dag"
)

// LowerBound returns L(J) = max(T∞(J), maxα T1(J,α)/Pα): a completion
// time no schedule on the given machine can beat. It is the
// denominator of every completion-time ratio in the paper. procs must
// have length K with positive entries.
func LowerBound(g *dag.Graph, procs []int) (float64, error) {
	if len(procs) != g.K() {
		return 0, fmt.Errorf("metrics: %d pools for a job with K=%d", len(procs), g.K())
	}
	lb := float64(g.Span())
	for a, p := range procs {
		if p <= 0 {
			return 0, fmt.Errorf("metrics: pool %d has %d processors, want > 0", a, p)
		}
		if v := float64(g.TypedWork(dag.Type(a))) / float64(p); v > lb {
			lb = v
		}
	}
	return lb, nil
}

// Ratio returns the completion-time ratio T(J)/L(J) for a measured
// completion time. Jobs with zero lower bound (empty jobs) report a
// ratio of 1 by convention.
func Ratio(completion int64, lowerBound float64) float64 {
	if lowerBound <= 0 {
		return 1
	}
	return float64(completion) / lowerBound
}

// WastedFraction returns the share of total busy processor-time that
// fault injection discarded: Σα wasted[α] / Σα busy[α]. It is the
// robustness study's wasted-work measure; 0 covers both reliable runs
// (nil or all-zero wasted) and empty jobs.
func WastedFraction(wasted, busy []int64) float64 {
	var w, b int64
	for _, v := range wasted {
		w += v
	}
	for _, v := range busy {
		b += v
	}
	if w == 0 || b == 0 {
		return 0
	}
	return float64(w) / float64(b)
}

// WorkPerProcessor returns the per-type work-per-processor ratios
// T1(J,α)/Pα used by the skewed-load study (Section V-E).
func WorkPerProcessor(g *dag.Graph, procs []int) ([]float64, error) {
	if len(procs) != g.K() {
		return nil, fmt.Errorf("metrics: %d pools for a job with K=%d", len(procs), g.K())
	}
	out := make([]float64, g.K())
	for a, p := range procs {
		if p <= 0 {
			return nil, fmt.Errorf("metrics: pool %d has %d processors, want > 0", a, p)
		}
		out[a] = float64(g.TypedWork(dag.Type(a))) / float64(p)
	}
	return out, nil
}

// SkewCoefficient summarizes how unbalanced a job's load is on a
// machine: the coefficient of variation (stddev/mean) of the
// work-per-processor ratios. 0 means perfectly balanced; larger means
// more skew.
func SkewCoefficient(g *dag.Graph, procs []int) (float64, error) {
	wpp, err := WorkPerProcessor(g, procs)
	if err != nil {
		return 0, err
	}
	var s Summary
	for _, v := range wpp {
		s.Add(v)
	}
	if s.Mean() == 0 {
		return 0, nil
	}
	return s.StdDev() / s.Mean(), nil
}

// XUtilsInPlace converts per-type loads to x-utilizations rα = load[α]/Pα
// in place. It is the building block of MQB's balance comparison and of
// the sorted balance vectors below; procs must have the same length as
// load with positive entries (callers validate machine configs before
// the hot path, so this function does not).
func XUtilsInPlace(load []float64, procs []int) {
	for a := range load {
		load[a] /= float64(procs[a])
	}
}

// SortedXUtils returns the balance vector of Section IV-A: the
// x-utilizations rα = load[α]/Pα sorted ascending. The vector is
// insensitive to permutations of the (load, procs) pairs — only the
// multiset of ratios matters — which is what makes LexLess a total
// preorder on machine states rather than on type labelings.
func SortedXUtils(load []float64, procs []int) []float64 {
	r := make([]float64, len(load))
	copy(r, load)
	XUtilsInPlace(r, procs)
	sort.Float64s(r)
	return r
}

// LexLess reports whether sorted balance vector a is strictly worse
// than b in the paper's lexicographic order on ascending
// x-utilizations: the first differing position decides, and a larger
// value there means better balance (raising the smallest queue
// dominates; ties cascade to the next-smallest). Both vectors must be
// sorted ascending and of equal length. LexLess is a strict weak
// order: irreflexive and antisymmetric (never both LexLess(a, b) and
// LexLess(b, a)).
func LexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SortBeats is the balance kernel every MQB-style policy shares. It
// reports whether the balance vector cand, once sorted ascending,
// beats the incumbent best (already sorted) in the lexicographic rule:
// exactly LexLess(best, sorted(cand)). An empty best means there is no
// incumbent yet, so cand always wins.
//
// SortBeats selection-sorts cand in place one position at a time and
// exits as soon as a position decides the comparison, so a candidate
// losing on the smallest x-utilization — the common case — costs one
// min-scan instead of a full K-sort. When it returns true, cand is
// fully sorted and ready to adopt as the new incumbent; when false,
// cand's tail past the deciding position is unspecified (losing
// vectors are discarded). Equal vectors return false: ties keep the
// earlier incumbent. cand must not contain NaN.
func SortBeats(cand, best []float64) bool {
	if len(best) == 0 {
		selectionSort(cand)
		return true
	}
	for i := range cand {
		min := i
		for j := i + 1; j < len(cand); j++ {
			if cand[j] < cand[min] {
				min = j
			}
		}
		cand[i], cand[min] = cand[min], cand[i]
		if cand[i] != best[i] {
			if cand[i] < best[i] {
				return false
			}
			selectionSort(cand[i+1:])
			return true
		}
	}
	return false
}

// selectionSort sorts ascending in place. The balance vectors have
// K ≤ 6 entries in every paper workload, where this beats the stdlib
// sort's dispatch overhead on the engines' hottest loop.
func selectionSort(v []float64) {
	for i := range v {
		min := i
		for j := i + 1; j < len(v); j++ {
			if v[j] < v[min] {
				min = j
			}
		}
		v[i], v[min] = v[min], v[i]
	}
}

// Summary accumulates streaming statistics over float64 observations
// using Welford's algorithm, so experiment workers can aggregate
// without retaining samples.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s, as if every observation of o had
// been Added to s. It lets per-worker summaries combine losslessly.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }
