package scan

import (
	"math"
	"math/rand"
	"testing"
)

// flattenViews builds the flat src/flags model the view kernels replace:
// each non-empty view becomes one segment (head flag at its first slot),
// and a seeded view gets a phantom slot holding its carry — at the head
// for forward scans, appended at the tail for backward scans. offsets[i]
// is the flat index of view i's first PAYLOAD slot (-1 for empty views).
func flattenViews(views []View[int64], backward bool) (src []int64, flags []bool, offsets []int) {
	offsets = make([]int, len(views))
	for i := range views {
		vw := &views[i]
		if len(vw.Src) == 0 {
			offsets[i] = -1
			continue
		}
		head := len(src)
		if vw.Seeded && !backward {
			src = append(src, vw.Carry)
		}
		offsets[i] = len(src)
		src = append(src, vw.Src...)
		if vw.Seeded && backward {
			src = append(src, vw.Carry)
		}
		for len(flags) < len(src) {
			flags = append(flags, false)
		}
		flags[head] = true
	}
	return src, flags, offsets
}

// runViewsVariant dispatches variant v (0=ex fwd, 1=in fwd, 2=ex bwd,
// 3=in bwd) to the matching view kernel.
func runViewsVariant(v int, op Op[int64], views []View[int64], p int) {
	switch v {
	case 0:
		SegScanViewsExclusive(op, views, p)
	case 1:
		SegScanViewsInclusive(op, views, p)
	case 2:
		SegScanViewsExclusiveBackward(op, views, p)
	default:
		SegScanViewsInclusiveBackward(op, views, p)
	}
}

// runFlatVariant runs the flat reference kernel for variant v.
func runFlatVariant(v int, op Op[int64], dst, src []int64, flags []bool, p int) {
	switch v {
	case 0:
		SegExclusiveParallel(op, dst, src, flags, p)
	case 1:
		SegInclusiveParallel(op, dst, src, flags, p)
	case 2:
		SegExclusiveBackwardParallel(op, dst, src, flags, p)
	default:
		SegInclusiveBackwardParallel(op, dst, src, flags, p)
	}
}

// lastNonZero is a non-commutative int64 monoid: a ⊕ b = b unless b is
// 0, identity 0. It is not a builtin, so the view kernels run it through
// the generic per-element fallback, and swapped operands in a backward
// loop change its answer.
type lastNonZero struct{}

func (lastNonZero) Identity() int64 { return 0 }

func (lastNonZero) Combine(a, b int64) int64 {
	if b != 0 {
		return b
	}
	return a
}

// viewTestOps covers both loop families of the view kernels: the four
// builtin int64 monoids take the inlined loops, lastNonZero the generic
// fallback. The flat reference kernels call op.Combine per element for
// every op, so the oracle never checks a loop against itself.
var viewTestOps = []struct {
	name string
	op   Op[int64]
}{
	{"add", Add[int64]{}},
	{"mul", Mul[int64]{}},
	{"max", Max[int64]{Id: math.MinInt64}},
	{"min", Min[int64]{Id: math.MaxInt64}},
	{"lastnonzero", lastNonZero{}},
}

// checkViewsMatchFlattened runs every variant × op over the layout and
// compares against the flat reference. The views' Src buffers are
// copied fresh per run (the kernels scan in place).
func checkViewsMatchFlattened(t *testing.T, layout []View[int64], p int) {
	t.Helper()
	for v := 0; v < 4; v++ {
		backward := v >= 2
		src, flags, offsets := flattenViews(layout, backward)
		for _, tc := range viewTestOps {
			want := make([]int64, len(src))
			runFlatVariant(v, tc.op, want, src, flags, p)

			views := make([]View[int64], len(layout))
			for i := range layout {
				buf := append([]int64(nil), layout[i].Src...)
				views[i] = View[int64]{Dst: buf, Src: buf, Carry: layout[i].Carry, Seeded: layout[i].Seeded}
			}
			runViewsVariant(v, tc.op, views, p)

			for i := range views {
				if offsets[i] < 0 {
					continue
				}
				for k, got := range views[i].Dst {
					if w := want[offsets[i]+k]; got != w {
						t.Fatalf("variant %d op %s p %d view %d elem %d: got %d want %d",
							v, tc.name, p, i, k, got, w)
					}
				}
			}
		}
	}
}

// randLayout builds nviews random views (lengths up to maxLen, some
// empty, some seeded) from rng.
func randLayout(rng *rand.Rand, nviews, maxLen int) []View[int64] {
	views := make([]View[int64], nviews)
	for i := range views {
		n := rng.Intn(maxLen + 1)
		if rng.Intn(8) == 0 {
			n = 0
		}
		data := make([]int64, n)
		for k := range data {
			data[k] = int64(rng.Intn(7)) - 3
		}
		views[i] = View[int64]{
			Dst:    data,
			Src:    data,
			Carry:  int64(rng.Intn(9)) - 4,
			Seeded: rng.Intn(3) == 0,
		}
	}
	return views
}

func TestSegScanViewsSerialMatchesFlattened(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	layouts := [][]View[int64]{
		{},
		{{Src: []int64{}, Dst: []int64{}}},
		{{Src: []int64{7}, Dst: []int64{7}}},
		{{Src: []int64{5}, Dst: []int64{5}, Carry: 3, Seeded: true}},
		randLayout(rng, 1, 16),
		randLayout(rng, 5, 9),
		randLayout(rng, 17, 5),
	}
	for _, l := range layouts {
		checkViewsMatchFlattened(t, l, 1)
	}
}

func TestSegScanViewsParallelMatchesFlattened(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []int{2, 3, 7, 16} {
		// Skewed: one huge view among many small ones, so blocks cut
		// mid-view; total comfortably above parallelThreshold.
		big := randLayout(rng, 1, 3*parallelThreshold)
		small := randLayout(rng, 40, 64)
		layout := append(append(append([]View[int64]{}, small[:20]...), big...), small[20:]...)
		checkViewsMatchFlattened(t, layout, p)

		// Many same-sized views whose edges rarely align with blocks.
		checkViewsMatchFlattened(t, randLayout(rng, 64, 2*parallelThreshold/64), p)
	}
}

// TestSegScanViewsSeparateDst pins that Dst need not alias Src.
func TestSegScanViewsSeparateDst(t *testing.T) {
	src := []int64{1, 2, 3, 4}
	dst := make([]int64, 4)
	views := []View[int64]{{Dst: dst, Src: src, Carry: 10, Seeded: true}}
	SegScanViewsExclusive(Add[int64]{}, views, 1)
	want := []int64{10, 11, 13, 16}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	for i, v := range []int64{1, 2, 3, 4} {
		if src[i] != v {
			t.Fatalf("src mutated at %d: %d", i, src[i])
		}
	}
}

// TestSegScanViewsAllocFree pins that the serial view kernels allocate
// nothing for the builtin int64 monoids: choosing the run loops from the
// op's type boxes nothing that outlives the call.
func TestSegScanViewsAllocFree(t *testing.T) {
	layout := randLayout(rand.New(rand.NewSource(43)), 24, 300)
	layout[0].Seeded = true
	checkViewKernelsAllocFree(t, "add", Add[int64]{}, layout)
	checkViewKernelsAllocFree(t, "mul", Mul[int64]{}, layout)
	checkViewKernelsAllocFree(t, "max", Max[int64]{Id: math.MinInt64}, layout)
	checkViewKernelsAllocFree(t, "min", Min[int64]{Id: math.MaxInt64}, layout)
}

// checkViewKernelsAllocFree runs each of the four view kernels at p=1
// with op's concrete type, as the serving path calls them, and fails on
// any allocation.
func checkViewKernelsAllocFree[O Op[int64]](t *testing.T, name string, op O, views []View[int64]) {
	t.Helper()
	kernels := []func(O, []View[int64], int){
		SegScanViewsExclusive[int64, O],
		SegScanViewsInclusive[int64, O],
		SegScanViewsExclusiveBackward[int64, O],
		SegScanViewsInclusiveBackward[int64, O],
	}
	for v, kernel := range kernels {
		if got := testing.AllocsPerRun(20, func() { kernel(op, views, 1) }); got != 0 {
			t.Errorf("op %s variant %d: %v allocs per call, want 0", name, v, got)
		}
	}
}

// FuzzViewKernelsMatchFlattened drives random view layouts, seeds, and
// worker counts through all four view kernels and cross-checks each
// against flatten + the existing segmented parallel kernels.
func FuzzViewKernelsMatchFlattened(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(16))
	f.Add(int64(2), uint8(64), uint8(7), uint8(200))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(99), uint8(130), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nviews, workers, maxLen uint8) {
		rng := rand.New(rand.NewSource(seed))
		nv := int(nviews)%130 + 1
		p := int(workers)%16 + 1
		ml := int(maxLen)
		if ml == 0 {
			ml = 1
		}
		// Occasionally push the total past parallelThreshold so the
		// blocked path runs even for modest nviews.
		if rng.Intn(3) == 0 {
			ml = parallelThreshold/nv + 64
		}
		checkViewsMatchFlattened(t, randLayout(rng, nv, ml), p)
	})
}
