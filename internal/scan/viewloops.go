package scan

// Run loops for the view kernels (views.go). A kernel calls one of these
// once per contiguous run of a view — the whole view, or the part of it
// one block covers — never once per element.
//
// Why concrete loops: op.Combine on a type parameter compiles to an
// indirect call through the generic dictionary (Add[int64] and
// Mul[int64] even share one GC shape), so a generic kernel pays a call
// per element and runs 3.5-4x slower than a hand-written int64 loop
// over the same data. The four builtin int64 monoids therefore get one
// concrete loop per shape, with the combine written inline; every other
// op runs opLoops. Each loop combines in exactly the order and
// association of the generic per-element code, so results are
// bit-identical. The kernels supply every seed (viewSeed, block
// carries), so the loops hold no state.

// viewLoops is one op's set of run loops. Each scans or folds src from
// acc and returns the accumulator it ends with; dst has len(src) and
// may alias src.
type viewLoops[T any] interface {
	// fold returns acc ⊕ src[0] ⊕ ... ⊕ src[n-1].
	fold(acc T, src []T) T
	// foldBack returns src[0] ⊕ (... ⊕ (src[n-1] ⊕ acc)), walking right
	// to left.
	foldBack(src []T, acc T) T
	// exclusive sets dst[k] = acc ⊕ src[0] ⊕ ... ⊕ src[k-1].
	exclusive(dst, src []T, acc T) T
	// inclusive sets dst[k] = acc ⊕ src[0] ⊕ ... ⊕ src[k].
	inclusive(dst, src []T, acc T) T
	// exclusiveBack sets dst[k] = src[k+1] ⊕ ... ⊕ src[n-1] ⊕ acc.
	exclusiveBack(dst, src []T, acc T) T
	// inclusiveBack sets dst[k] = src[k] ⊕ ... ⊕ src[n-1] ⊕ acc.
	inclusiveBack(dst, src []T, acc T) T
}

// opLoops is the generic fallback: one op.Combine call per element.
type opLoops[T any, O Op[T]] struct{ op O }

func (l opLoops[T, O]) fold(acc T, src []T) T {
	for _, v := range src {
		acc = l.op.Combine(acc, v)
	}
	return acc
}

func (l opLoops[T, O]) foldBack(src []T, acc T) T {
	for k := len(src) - 1; k >= 0; k-- {
		acc = l.op.Combine(src[k], acc)
	}
	return acc
}

func (l opLoops[T, O]) exclusive(dst, src []T, acc T) T {
	dst = dst[:len(src)]
	for k, v := range src {
		dst[k] = acc
		acc = l.op.Combine(acc, v)
	}
	return acc
}

func (l opLoops[T, O]) inclusive(dst, src []T, acc T) T {
	dst = dst[:len(src)]
	for k, v := range src {
		acc = l.op.Combine(acc, v)
		dst[k] = acc
	}
	return acc
}

func (l opLoops[T, O]) exclusiveBack(dst, src []T, acc T) T {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		dst[k] = acc
		acc = l.op.Combine(v, acc)
	}
	return acc
}

func (l opLoops[T, O]) inclusiveBack(dst, src []T, acc T) T {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		acc = l.op.Combine(src[k], acc)
		dst[k] = acc
	}
	return acc
}

// addLoops are the run loops of Add[int64].
type addLoops struct{}

func (addLoops) fold(acc int64, src []int64) int64 {
	for _, v := range src {
		acc += v
	}
	return acc
}

func (addLoops) foldBack(src []int64, acc int64) int64 {
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		acc = v + acc
	}
	return acc
}

func (addLoops) exclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		dst[k] = acc
		acc += v
	}
	return acc
}

func (addLoops) inclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		acc += v
		dst[k] = acc
	}
	return acc
}

func (addLoops) exclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		dst[k] = acc
		acc = v + acc
	}
	return acc
}

func (addLoops) inclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		acc = v + acc
		dst[k] = acc
	}
	return acc
}

// mulLoops are the run loops of Mul[int64].
type mulLoops struct{}

func (mulLoops) fold(acc int64, src []int64) int64 {
	for _, v := range src {
		acc *= v
	}
	return acc
}

func (mulLoops) foldBack(src []int64, acc int64) int64 {
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		acc = v * acc
	}
	return acc
}

func (mulLoops) exclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		dst[k] = acc
		acc *= v
	}
	return acc
}

func (mulLoops) inclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		acc *= v
		dst[k] = acc
	}
	return acc
}

func (mulLoops) exclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		dst[k] = acc
		acc = v * acc
	}
	return acc
}

func (mulLoops) inclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		acc = v * acc
		dst[k] = acc
	}
	return acc
}

// maxLoops are the run loops of Max[int64].
type maxLoops struct{}

func (maxLoops) fold(acc int64, src []int64) int64 {
	for _, v := range src {
		if v > acc {
			acc = v
		}
	}
	return acc
}

func (maxLoops) foldBack(src []int64, acc int64) int64 {
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		if v > acc {
			acc = v
		}
	}
	return acc
}

func (maxLoops) exclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		dst[k] = acc
		if v > acc {
			acc = v
		}
	}
	return acc
}

func (maxLoops) inclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		if v > acc {
			acc = v
		}
		dst[k] = acc
	}
	return acc
}

func (maxLoops) exclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		dst[k] = acc
		if v > acc {
			acc = v
		}
	}
	return acc
}

func (maxLoops) inclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		if v > acc {
			acc = v
		}
		dst[k] = acc
	}
	return acc
}

// minLoops are the run loops of Min[int64].
type minLoops struct{}

func (minLoops) fold(acc int64, src []int64) int64 {
	for _, v := range src {
		if v < acc {
			acc = v
		}
	}
	return acc
}

func (minLoops) foldBack(src []int64, acc int64) int64 {
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		if v < acc {
			acc = v
		}
	}
	return acc
}

func (minLoops) exclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		dst[k] = acc
		if v < acc {
			acc = v
		}
	}
	return acc
}

func (minLoops) inclusive(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k, v := range src {
		if v < acc {
			acc = v
		}
		dst[k] = acc
	}
	return acc
}

func (minLoops) exclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		dst[k] = acc
		if v < acc {
			acc = v
		}
	}
	return acc
}

func (minLoops) inclusiveBack(dst, src []int64, acc int64) int64 {
	dst = dst[:len(src)]
	for k := len(src) - 1; k >= 0; k-- {
		v := src[k]
		if v < acc {
			acc = v
		}
		dst[k] = acc
	}
	return acc
}
