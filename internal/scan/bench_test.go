package scan

import (
	"fmt"
	"math"
	"testing"
)

func benchInput(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i*2654435761 + 1
	}
	return a
}

func BenchmarkExclusiveSumSerial(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := benchInput(n)
			dst := make([]int, n)
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ExclusiveSumInts(dst, a)
			}
		})
	}
}

func BenchmarkExclusiveSumGeneric(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := benchInput(n)
			dst := make([]int, n)
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Exclusive(Add[int]{}, dst, a)
			}
		})
	}
}

// BenchmarkAblationScanParallel sweeps worker counts for the parallel
// scan: the crossover between serial and parallel is a design parameter
// called out in DESIGN.md §3.
func BenchmarkAblationScanParallel(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20, 1 << 24} {
		for _, p := range []int{1, 2, 4, 8, 0} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				a := benchInput(n)
				dst := make([]int, n)
				b.SetBytes(int64(n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ExclusiveParallel(Add[int]{}, dst, a, p)
				}
			})
		}
	}
}

// BenchmarkAblationSegmented compares the direct segmented kernel with
// the paper's §3.4 two-primitive simulation (DESIGN.md §3 ablation).
func BenchmarkAblationSegmented(b *testing.B) {
	n := 1 << 18
	a := make([]int, n)
	for i := range a {
		a[i] = i % 1024
	}
	flags := make([]bool, n)
	for i := 0; i < n; i += 37 {
		flags[i] = true
	}
	dst := make([]int, n)
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			SegExclusive(Add[int]{}, dst, a, flags)
		}
	})
	b.Run("via-two-primitives", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			SegSumViaPrimitives(dst, a, flags)
		}
	})
	b.Run("direct-parallel", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			SegExclusiveParallel(Add[int]{}, dst, a, flags, 0)
		}
	})
}

func BenchmarkSegExclusiveMax(b *testing.B) {
	n := 1 << 18
	a := benchInput(n)
	flags := make([]bool, n)
	for i := 0; i < n; i += 64 {
		flags[i] = true
	}
	dst := make([]int, n)
	b.SetBytes(int64(n * 8))
	for i := 0; i < b.N; i++ {
		SegExclusive(MaxIntOp, dst, a, flags)
	}
}

func BenchmarkReduceParallel(b *testing.B) {
	n := 1 << 22
	a := benchInput(n)
	for _, p := range []int{1, 0} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				ReduceParallel(Add[int]{}, a, p)
			}
		})
	}
}

// BenchmarkSegScanViews times the exclusive view kernel for each builtin
// int64 monoid over one 2^20-element view (8 MiB read, 8 MiB written,
// past L2), at 1 and 2 workers. The copy row moves the same bytes
// between the same buffers: ns/elem over copy's is the kernel's
// roofline ratio on this host.
func BenchmarkSegScanViews(b *testing.B) {
	const n = 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i*2654435761) % 1000
	}
	dst := make([]int64, n)
	views := []View[int64]{{Dst: dst, Src: src}}
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(16 * n)
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
	ops := []struct {
		name string
		run  func(p int)
	}{
		{"add", func(p int) { SegScanViewsExclusive(Add[int64]{}, views, p) }},
		{"mul", func(p int) { SegScanViewsExclusive(Mul[int64]{}, views, p) }},
		{"max", func(p int) { SegScanViewsExclusive(Max[int64]{Id: math.MinInt64}, views, p) }},
		{"min", func(p int) { SegScanViewsExclusive(Min[int64]{Id: math.MaxInt64}, views, p) }},
	}
	for _, op := range ops {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/p=%d", op.name, p), func(b *testing.B) {
				b.SetBytes(16 * n)
				for i := 0; i < b.N; i++ {
					op.run(p)
				}
			})
		}
	}
}
