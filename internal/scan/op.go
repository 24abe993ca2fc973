// Package scan provides sequential and parallel scan (prefix computation)
// kernels over slices: exclusive and inclusive, forward and backward, and
// segmented variants, for any associative operator with an identity.
//
// The package is the performance substrate of this repository's
// reproduction of Blelloch, "Scans as Primitive Parallel Operations"
// (ICPP 1987). The paper's two primitive scans — integer +-scan and
// max-scan — have hand-specialized kernels (ExclusiveSumInts,
// ExclusiveMaxInts), and the segmented view kernels that serve requests
// (SegScanViews*) run hand-specialized loops for the four int64 monoids
// Add, Mul, Max and Min; everything else is generic.
//
// All scans in this package follow the paper's convention: a scan of
// [a0, a1, ..., an-1] with operator ⊕ and identity i returns the
// *exclusive* result [i, a0, a0⊕a1, ..., a0⊕...⊕an-2] unless the function
// name says Inclusive.
package scan

// Integer is the constraint for the built-in integer types.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Float is the constraint for the built-in floating-point types.
type Float interface {
	~float32 | ~float64
}

// Number is the constraint for types with +, * arithmetic.
type Number interface {
	Integer | Float
}

// Ordered is the constraint for types with a total order under <.
type Ordered interface {
	Integer | Float | ~string
}

// Op is a binary associative operator with an identity element, the
// algebraic structure (a monoid) every scan in this package requires.
//
// Combine must be associative and Identity must satisfy
// Combine(Identity(), x) == Combine(x, Identity()) == x; scans do not
// check this, but the parallel kernels silently produce wrong answers if
// it is violated. Commutativity is NOT required.
type Op[T any] interface {
	Identity() T
	Combine(a, b T) T
}

// Add is the addition monoid over any numeric type, identity 0.
// It is one of the paper's two primitive scan operators.
type Add[T Number] struct{}

// Identity returns 0.
func (Add[T]) Identity() T { var z T; return z }

// Combine returns a + b.
func (Add[T]) Combine(a, b T) T { return a + b }

// Mul is the multiplication monoid over any numeric type, identity 1.
type Mul[T Number] struct{}

// Identity returns 1.
func (Mul[T]) Identity() T { return T(1) }

// Combine returns a * b.
func (Mul[T]) Combine(a, b T) T { return a * b }

// Max is the maximum monoid over an ordered type. Because Go has no
// generic "minimum value of T", the identity is stored explicitly; use
// the MaxInt, MaxFloat64, ... constructors for the usual instances. It is
// the second of the paper's two primitive scan operators.
type Max[T Ordered] struct {
	// Id is the identity element: a value ≤ every input.
	Id T
}

// Identity returns the configured identity element.
func (m Max[T]) Identity() T { return m.Id }

// Combine returns the larger of a and b.
func (Max[T]) Combine(a, b T) T {
	if a < b {
		return b
	}
	return a
}

// Min is the minimum monoid over an ordered type, with an explicit
// identity (a value ≥ every input); see Max.
type Min[T Ordered] struct {
	// Id is the identity element: a value ≥ every input.
	Id T
}

// Identity returns the configured identity element.
func (m Min[T]) Identity() T { return m.Id }

// Combine returns the smaller of a and b.
func (Min[T]) Combine(a, b T) T {
	if b < a {
		return b
	}
	return a
}

// Or is the logical-or monoid over bool, identity false.
type Or struct{}

// Identity returns false.
func (Or) Identity() bool { return false }

// Combine returns a || b.
func (Or) Combine(a, b bool) bool { return a || b }

// And is the logical-and monoid over bool, identity true.
type And struct{}

// Identity returns true.
func (And) Identity() bool { return true }

// Combine returns a && b.
func (And) Combine(a, b bool) bool { return a && b }

// Func adapts an arbitrary associative function and identity to the Op
// interface. Prefer the concrete operator types where possible: they
// inline, Func does not.
type Func[T any] struct {
	// Id is the identity element of F.
	Id T
	// F is the associative combining function.
	F func(a, b T) T
}

// Identity returns the configured identity element.
func (f Func[T]) Identity() T { return f.Id }

// Combine applies the wrapped function.
func (f Func[T]) Combine(a, b T) T { return f.F(a, b) }
