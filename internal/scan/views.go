package scan

// View-based segmented scans: the gather-free form of the segmented
// kernels. A fused batch is a list of Views — each one request's
// payload, living in its own (request-owned) buffer — and each view is
// one segment. The kernels below run the same three-phase blocked pass
// as SegExclusiveParallel and friends directly over the views'
// concatenated index space: block boundaries may fall anywhere
// (including mid-view), per-block summaries combine under the
// segmented-pair monoid, and the serial scan of the p summaries
// stitches blocks exactly like Figure 10's block sums. No flat src/flags
// vectors are ever materialized, which is what makes the serving path
// zero-copy (see internal/serve/batch.go).
//
// A seeded view continues a running prefix (a stream chunk's carry):
// its accumulation starts from Carry instead of the identity, at the
// head for forward scans and at the tail for backward scans. This is
// algebraically identical to scanning one extra leading element — an
// exclusive scan of [c, a0, a1, ...] restarted at the head yields
// [id, c, c⊕a0, ...], whose payload slots are exactly the exclusive
// scan of [a0, a1, ...] seeded with c — but costs no extra slot.
//
// Zero-length views contribute no elements and no segment boundary;
// they are skipped entirely.

// View describes one segment of a fused batch: dst receives the scan of
// src (they may alias each other, but must not overlap any other
// view's buffers), and Carry seeds the accumulation when Seeded is set.
type View[T any] struct {
	Dst, Src []T
	Carry    T
	Seeded   bool
}

// seed returns the accumulator a view's segment starts from.
func viewSeed[T any, O Op[T]](op O, vw *View[T]) T {
	if vw.Seeded {
		return vw.Carry
	}
	return op.Identity()
}

// viewsTotal validates every view (len(Dst) == len(Src)) and returns
// the total element count across views.
func viewsTotal[T any](name string, views []View[T]) int {
	n := 0
	for i := range views {
		checkLen(name, len(views[i].Dst), len(views[i].Src))
		n += len(views[i].Src)
	}
	return n
}

// locateViewStart returns the index vi of the (non-empty) view
// containing global element g, plus the global index of that view's
// first element. g must be < the total element count.
func locateViewStart[T any](views []View[T], g int) (vi, viewStart int) {
	for g >= viewStart+len(views[vi].Src) {
		viewStart += len(views[vi].Src)
		vi++
	}
	return vi, viewStart
}

// SegScanViewsExclusive computes, for each view independently, the
// exclusive scan of Src into Dst (seeded views start from Carry), using
// p worker goroutines over the concatenated index space (p <= 0 means
// GOMAXPROCS). Equivalent to flattening the views into one vector with
// a segment head per view and running SegExclusiveParallel.
func SegScanViewsExclusive[T any, O Op[T]](op O, views []View[T], p int) {
	segScanViews("SegScanViewsExclusive", op, views, p, false, false)
}

// SegScanViewsInclusive is the inclusive form of SegScanViewsExclusive.
func SegScanViewsInclusive[T any, O Op[T]](op O, views []View[T], p int) {
	segScanViews("SegScanViewsInclusive", op, views, p, false, true)
}

// SegScanViewsExclusiveBackward computes, for each view independently,
// the backward exclusive scan of Src into Dst: within a view, Dst[i]
// combines the elements strictly after i, and a seeded view's carry
// enters at the tail (as if one extra element holding it followed the
// view, without the slot).
func SegScanViewsExclusiveBackward[T any, O Op[T]](op O, views []View[T], p int) {
	segScanViews("SegScanViewsExclusiveBackward", op, views, p, true, false)
}

// SegScanViewsInclusiveBackward is the inclusive form of
// SegScanViewsExclusiveBackward.
func SegScanViewsInclusiveBackward[T any, O Op[T]](op O, views []View[T], p int) {
	segScanViews("SegScanViewsInclusiveBackward", op, views, p, true, true)
}

// segScanViews runs one view kernel. The op's run loops are chosen once
// here, from its type: the builtin int64 monoids get the concrete loops
// of viewloops.go, where the combine inlines; every other op falls back
// to opLoops, which pays a generic op.Combine call per element.
func segScanViews[T any, O Op[T]](name string, op O, views []View[T], p int, backward, inclusive bool) {
	n := viewsTotal(name, views)
	p = Workers(p)
	if iv, ok := any(views).([]View[int64]); ok {
		switch o := any(op).(type) {
		case Add[int64]:
			runViews(o, addLoops{}, iv, n, p, backward, inclusive)
			return
		case Mul[int64]:
			runViews(o, mulLoops{}, iv, n, p, backward, inclusive)
			return
		case Max[int64]:
			runViews(o, maxLoops{}, iv, n, p, backward, inclusive)
			return
		case Min[int64]:
			runViews(o, minLoops{}, iv, n, p, backward, inclusive)
			return
		}
	}
	runViews(op, opLoops[T, O]{op}, views, n, p, backward, inclusive)
}

// runViews runs one view kernel: serial below parallelThreshold (or at
// p <= 1), otherwise the blocked three-phase pass.
func runViews[T any, O Op[T], L viewLoops[T]](op O, l L, views []View[T], n, p int, backward, inclusive bool) {
	if p <= 1 || n < parallelThreshold {
		for i := range views {
			vw := &views[i]
			scanRun(l, backward, inclusive, vw.Dst, vw.Src, viewSeed(op, vw))
		}
		return
	}
	if p > n {
		p = n
	}
	if backward {
		viewsBackward(op, l, views, n, p, inclusive)
	} else {
		viewsForward(op, l, views, n, p, inclusive)
	}
}

// scanRun scans one contiguous run of a view from acc and returns the
// accumulator it ends with.
func scanRun[T any, L viewLoops[T]](l L, backward, inclusive bool, dst, src []T, acc T) T {
	switch {
	case !backward && !inclusive:
		return l.exclusive(dst, src, acc)
	case !backward:
		return l.inclusive(dst, src, acc)
	case !inclusive:
		return l.exclusiveBack(dst, src, acc)
	default:
		return l.inclusiveBack(dst, src, acc)
	}
}

// viewsForward is phase 3 of the forward view scans: each block rescans
// its elements from the carry open at its left edge, restarting from
// the view's seed at every view head inside the block.
func viewsForward[T any, O Op[T], L viewLoops[T]](op O, l L, views []View[T], n, p int, inclusive bool) {
	carries := segViewCarriesForward(op, l, views, n, p)
	blocks(n, p, func(b, lo, hi int) {
		vi, viewStart := locateViewStart(views, lo)
		acc := carries[b].v
		for g := lo; g < hi; {
			vw := &views[vi]
			if len(vw.Src) == 0 {
				vi++
				continue
			}
			s := g - viewStart
			e := min(len(vw.Src), hi-viewStart)
			if s == 0 {
				acc = viewSeed(op, vw)
			}
			acc = scanRun(l, false, inclusive, vw.Dst[s:e], vw.Src[s:e], acc)
			g = viewStart + e
			viewStart += len(vw.Src)
			vi++
		}
	})
}

// viewsBackward is the backward mirror of viewsForward: each block
// walks right to left from the carry open at its RIGHT edge, folding a
// seeded view's carry in when it enters the view at its tail.
func viewsBackward[T any, O Op[T], L viewLoops[T]](op O, l L, views []View[T], n, p int, inclusive bool) {
	carries := segViewCarriesBackward(op, l, views, n, p)
	blocks(n, p, func(b, lo, hi int) {
		vi, viewStart := locateViewStart(views, hi-1)
		acc := carries[b].v
		for g := hi; g > lo; {
			vw := &views[vi]
			if len(vw.Src) == 0 {
				vi--
				viewStart -= len(views[vi].Src)
				continue
			}
			s := max(lo-viewStart, 0)
			e := g - viewStart
			if e == len(vw.Src) && vw.Seeded {
				// Entering the view at its tail: fold the carry in, as
				// if an extra element held it just past the last slot.
				acc = op.Combine(vw.Carry, acc)
			}
			acc = scanRun(l, true, inclusive, vw.Dst[s:e], vw.Src[s:e], acc)
			if s == 0 {
				acc = op.Identity()
			}
			g = viewStart + s
			vi--
			if vi >= 0 {
				viewStart -= len(views[vi].Src)
			}
		}
	})
}

// segViewCarriesForward runs phases 1+2 of the forward view scans: each
// block folds its elements under the segmented-pair monoid (a view head
// inside the block restarts the fold from the view's seed and marks the
// summary crossed), then the p summaries are scanned exclusively,
// leaving carries[b] = the accumulation open at block b's left edge.
func segViewCarriesForward[T any, O Op[T], L viewLoops[T]](op O, l L, views []View[T], n, p int) []segPair[T] {
	sop := segOp[T, O]{op}
	carries := make([]segPair[T], p)
	blocks(n, p, func(b, lo, hi int) {
		vi, viewStart := locateViewStart(views, lo)
		acc := sop.Identity()
		for g := lo; g < hi; {
			vw := &views[vi]
			if len(vw.Src) == 0 {
				vi++
				continue
			}
			s := g - viewStart
			e := min(len(vw.Src), hi-viewStart)
			if s == 0 {
				acc = segPair[T]{v: l.fold(viewSeed(op, vw), vw.Src[:e]), crossed: true}
			} else {
				a := l.fold(vw.Src[s], vw.Src[s+1:e])
				acc = segPair[T]{v: op.Combine(acc.v, a), crossed: acc.crossed}
			}
			g = viewStart + e
			viewStart += len(vw.Src)
			vi++
		}
		carries[b] = acc
	})
	Exclusive(sop, carries, carries)
	return carries
}

// segViewCarriesBackward is the backward mirror: per-block backward
// folds (a seeded view's carry joins when the block covers the view's
// tail; a view head inside the block restarts and marks crossed), then
// the serial backward exclusive scan of the summaries under the mirror
// combine — a head anywhere in the left operand hides everything to its
// right — leaving carries[b] = the accumulation open at block b's RIGHT
// edge.
func segViewCarriesBackward[T any, O Op[T], L viewLoops[T]](op O, l L, views []View[T], n, p int) []segPair[T] {
	carries := make([]segPair[T], p)
	blocks(n, p, func(b, lo, hi int) {
		vi, viewStart := locateViewStart(views, hi-1)
		acc := op.Identity()
		crossed := false
		for g := hi; g > lo; {
			vw := &views[vi]
			if len(vw.Src) == 0 {
				vi--
				viewStart -= len(views[vi].Src)
				continue
			}
			s := max(lo-viewStart, 0)
			e := g - viewStart
			if e == len(vw.Src) && vw.Seeded {
				acc = op.Combine(vw.Carry, acc)
			}
			acc = l.foldBack(vw.Src[s:e], acc)
			if s == 0 {
				crossed = true
				acc = op.Identity()
			}
			g = viewStart + s
			vi--
			if vi >= 0 {
				viewStart -= len(views[vi].Src)
			}
		}
		carries[b] = segPair[T]{v: acc, crossed: crossed}
	})
	acc := segPair[T]{v: op.Identity()}
	for b := p - 1; b >= 0; b-- {
		s := carries[b]
		carries[b] = acc
		if s.crossed {
			acc = segPair[T]{v: s.v, crossed: true}
		} else {
			acc = segPair[T]{v: op.Combine(s.v, acc.v), crossed: acc.crossed}
		}
	}
	return carries
}
