package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// xutilInput is a generated (load, procs) machine state for the
// property tests. Loads are small non-negative integers and pools are
// in [1, 6], mirroring the ranges the simulator produces; both are
// sized by the shorter of the two generated slices so every input is
// well formed.
type xutilInput struct {
	Loads []uint16
	Pools []uint8
}

func (in xutilInput) state() (load []float64, procs []int) {
	n := len(in.Loads)
	if len(in.Pools) < n {
		n = len(in.Pools)
	}
	load = make([]float64, n)
	procs = make([]int, n)
	for i := 0; i < n; i++ {
		load[i] = float64(in.Loads[i] % 1000)
		procs[i] = int(in.Pools[i]%6) + 1
	}
	return load, procs
}

// TestSortedXUtilsPermutationInvariance: permuting the (load, procs)
// pairs — relabeling the resource types — never changes the sorted
// balance vector. This is the property that lets MQB compare machine
// states without caring which type holds which queue.
func TestSortedXUtilsPermutationInvariance(t *testing.T) {
	f := func(in xutilInput, seed int64) bool {
		load, procs := in.state()
		want := SortedXUtils(load, procs)

		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(load))
		pl := make([]float64, len(load))
		pp := make([]int, len(procs))
		for i, j := range perm {
			pl[i] = load[j]
			pp[i] = procs[j]
		}
		got := SortedXUtils(pl, pp)

		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSortedXUtilsSortedAndConsistent: the result is ascending and is
// exactly the multiset {load[α]/Pα}; XUtilsInPlace agrees with it.
func TestSortedXUtilsSortedAndConsistent(t *testing.T) {
	f := func(in xutilInput) bool {
		load, procs := in.state()
		got := SortedXUtils(load, procs)
		if !sort.Float64sAreSorted(got) {
			return false
		}
		ratios := append([]float64(nil), load...)
		XUtilsInPlace(ratios, procs)
		sort.Float64s(ratios)
		for i := range got {
			if got[i] != ratios[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLexLessStrictWeakOrder: on sorted vectors of equal length,
// LexLess is irreflexive and antisymmetric, and exactly one of
// "a worse", "b worse", "equal" holds (trichotomy).
func TestLexLessStrictWeakOrder(t *testing.T) {
	f := func(in1, in2 xutilInput) bool {
		a, pa := in1.state()
		b, pb := in2.state()
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a = SortedXUtils(a[:n], pa[:n])
		b = SortedXUtils(b[:n], pb[:n])

		if LexLess(a, a) || LexLess(b, b) {
			return false // irreflexive
		}
		ab, ba := LexLess(a, b), LexLess(b, a)
		if ab && ba {
			return false // antisymmetric
		}
		equal := true
		for i := range a {
			if a[i] != b[i] {
				equal = false
				break
			}
		}
		// Trichotomy: equal vectors compare false both ways; distinct
		// vectors compare true in exactly one direction.
		if equal {
			return !ab && !ba
		}
		return ab != ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSortBeatsMatchesLexLess: property check of the early-exit balance
// kernel against its specification — sort both vectors fully, compare
// with LexLess — over random vectors including ties, duplicates and
// ±Inf (a fully crashed pool scores +Inf).
func TestSortBeatsMatchesLexLess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() float64 {
		// Coarse values force frequent ties.
		switch rng.Intn(16) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return float64(rng.Intn(4))
	}
	for trial := 0; trial < 20000; trial++ {
		k := 1 + rng.Intn(6)
		cand := make([]float64, k)
		best := make([]float64, k)
		for i := 0; i < k; i++ {
			cand[i], best[i] = draw(), draw()
		}
		sort.Float64s(best)
		sorted := append([]float64(nil), cand...)
		sort.Float64s(sorted)
		want := LexLess(best, sorted)

		got := SortBeats(cand, best)
		if got != want {
			t.Fatalf("SortBeats(%v, %v) = %v, want %v", sorted, best, got, want)
		}
		if got && !equalVecs(cand, sorted) {
			// Winning vectors become the next incumbent.
			t.Fatalf("winning cand not sorted: %v want %v", cand, sorted)
		}

		// With no incumbent every candidate wins, fully sorted.
		cand = append(cand[:0], sorted...)
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		if !SortBeats(cand, nil) || !equalVecs(cand, sorted) {
			t.Fatalf("SortBeats(_, nil) left %v, want true and %v", cand, sorted)
		}
	}
}

func equalVecs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
