// Package qsort implements the paper's parallel quicksort (§2.3.1,
// Figure 5): every segment independently distributes a pivot, compares,
// splits three ways (less / equal / greater), and inserts new segment
// flags — a constant number of primitives per iteration, and expected
// O(lg n) iterations with random pivots, so expected O(lg n) program
// steps. It is the paper's flagship demonstration of segmented scans.
package qsort

import (
	"math"
	"math/rand"

	"scans/internal/core"
)

// Pivot selects the pivot strategy.
type Pivot int

const (
	// PivotRandom picks a uniformly random element of each segment: the
	// strategy the expected-O(lg n) bound needs.
	PivotRandom Pivot = iota
	// PivotFirst picks each segment's first element, as the paper's
	// Figure 5 walk-through does.
	PivotFirst
)

// Options configures the sort. The zero value is PivotRandom with seed 0.
type Options struct {
	Pivot Pivot
	Seed  int64
}

// Round is one iteration's state, recorded by SortTrace to reproduce
// Figure 5.
type Round struct {
	// Pivots is the pivot distributed across each segment.
	Pivots []float64
	// Cmp is the per-element comparison against the pivot.
	Cmp []core.Cmp3
	// Keys is the key vector after the segmented three-way split.
	Keys []float64
	// Flags is the segment-flag vector after new flags are inserted.
	Flags []bool
}

// Sort sorts keys ascending on machine m and returns the sorted vector.
func Sort(m *core.Machine, keys []float64, opt Options) []float64 {
	sorted, _, _ := run(m, keys, opt, false)
	return sorted
}

// SortWithIndex sorts keys and also returns the permutation applied:
// perm[i] is the original index of the i-th smallest key, letting
// callers reorder payload vectors alongside the keys.
func SortWithIndex(m *core.Machine, keys []float64, opt Options) ([]float64, []int) {
	sorted, perm, _ := run(m, keys, opt, false)
	return sorted, perm
}

// SortTrace sorts keys and records every iteration, for the Figure 5
// reproduction.
func SortTrace(m *core.Machine, keys []float64, opt Options) ([]float64, []Round) {
	sorted, _, rounds := run(m, keys, opt, true)
	return sorted, rounds
}

// Rounds sorts keys and returns only the iteration count, the quantity
// the expected-O(lg n) analysis bounds.
func Rounds(m *core.Machine, keys []float64, opt Options) int {
	_, _, rounds := run(m, keys, opt, true)
	return len(rounds)
}

func run(m *core.Machine, keys []float64, opt Options, trace bool) ([]float64, []int, []Round) {
	n := len(keys)
	if n == 0 {
		return nil, nil, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	a := make([]float64, n)
	copy(a, keys)
	idx := make([]int, n)
	core.Par(m, n, func(i int) { idx[i] = i })
	idxOut := make([]int, n)
	segFlags := make([]bool, n)
	segFlags[0] = true

	rot := make([]int, n) // rotate-by-one permutation for neighbor reads
	core.Par(m, n, func(i int) { rot[i] = (i + 1) % n })

	prev := make([]float64, n)
	ok := make([]bool, n)
	dist := make([]bool, n)
	pivots := make([]float64, n)
	cmp := make([]core.Cmp3, n)
	cmpOut := make([]core.Cmp3, n)
	prevCmp := make([]core.Cmp3, n)
	splitIdx := make([]int, n)
	aOut := make([]float64, n)
	var rounds []Round

	for iter := 0; ; iter++ {
		if iter > 64*64 {
			panic("qsort: did not converge; segment bookkeeping bug")
		}
		// Step 1: exit if sorted. Each processor checks its predecessor.
		core.Permute(m, prev, a, rot)
		core.Par(m, n, func(i int) { ok[i] = i == 0 || prev[i] <= a[i] })
		if core.AndDistribute(m, dist, ok) {
			break
		}
		// Step 2: pick a pivot within each segment and distribute it.
		pickPivots(m, rng, a, segFlags, pivots, opt.Pivot)
		// Step 3: compare with the pivot and split three ways.
		core.Par(m, n, func(i int) {
			switch {
			case a[i] < pivots[i]:
				cmp[i] = core.Less
			case a[i] > pivots[i]:
				cmp[i] = core.Greater
			default:
				cmp[i] = core.Equal
			}
		})
		core.SegSplit3Index(m, splitIdx, cmp, segFlags)
		core.Permute(m, aOut, a, splitIdx)
		core.Permute(m, cmpOut, cmp, splitIdx)
		core.Permute(m, idxOut, idx, splitIdx)
		a, aOut = aOut, a
		idx, idxOut = idxOut, idx
		// Step 4: insert segment flags between the three groups. Each
		// element looks at its predecessor's group.
		core.Permute(m, prevCmp, cmpOut, rot)
		core.Par(m, n, func(i int) {
			if i > 0 && cmpOut[i] != prevCmp[i] {
				segFlags[i] = true
			}
		})
		if trace {
			rounds = append(rounds, Round{
				Pivots: append([]float64(nil), pivots...),
				Cmp:    append([]core.Cmp3(nil), cmp...),
				Keys:   append([]float64(nil), a...),
				Flags:  append([]bool(nil), segFlags...),
			})
		}
	}
	return a, idx, rounds
}

// pickPivots fills pivots with each segment's pivot value distributed
// across the segment, in O(1) steps.
func pickPivots(m *core.Machine, rng *rand.Rand, a []float64, segFlags []bool, pivots []float64, strategy Pivot) {
	n := len(a)
	if strategy == PivotFirst {
		core.SegCopy(m, pivots, a, segFlags)
		return
	}
	// Random: every processor draws a random number (one elementwise
	// step); the head's draw, modulo the segment length, selects the
	// pivot rank. rng is not safe for concurrent use, so the draws are
	// taken serially in index order — the order a 1-worker machine
	// draws in — and the elementwise step hands each processor its own.
	drawn := make([]int, n)
	for i := range drawn {
		drawn[i] = rng.Intn(1 << 30)
	}
	draws := make([]int, n)
	core.Par(m, n, func(i int) { draws[i] = drawn[i] })
	headDraw := make([]int, n)
	core.SegCopy(m, headDraw, draws, segFlags)
	ones := make([]int, n)
	core.Par(m, n, func(i int) { ones[i] = 1 })
	segLen := make([]int, n)
	core.SegPlusDistribute(m, segLen, ones, segFlags)
	rank := make([]int, n)
	core.SegRank(m, rank, segFlags)
	// Mask everything but the selected element to +Inf and distribute
	// the segment minimum: "picking out the element with a few scans".
	masked := make([]float64, n)
	core.Par(m, n, func(i int) {
		if rank[i] == headDraw[i]%segLen[i] {
			masked[i] = a[i]
		} else {
			masked[i] = math.Inf(1)
		}
	})
	core.SegFMinDistribute(m, pivots, masked, segFlags)
}
