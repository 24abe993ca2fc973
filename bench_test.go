package scans_test

// One benchmark family per table and figure of the paper's evaluation;
// EXPERIMENTS.md records paper-vs-measured. Each benchmark reports the
// simulated quantity the paper tabulates (program steps, bit cycles,
// processor-steps) via ReportMetric alongside wall-clock time, so
// `go test -bench` regenerates the numbers.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"scans"
	"scans/internal/algo/bitonic"
	"scans/internal/algo/cc"
	"scans/internal/algo/graph"
	"scans/internal/algo/qsort"
	"scans/internal/algo/radix"
	"scans/internal/algo/svcc"
	"scans/internal/circuit"
	"scans/internal/core"
	"scans/internal/figures"
	"scans/internal/network"
	"scans/internal/scan"
	"scans/internal/serve"
	"scans/internal/tables"
)

// BenchmarkTable1 runs every implemented Table 1 algorithm at several
// sizes under the scan and EREW cost models, reporting program steps.
func BenchmarkTable1(b *testing.B) {
	for _, alg := range tables.Algorithms() {
		for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
			for _, model := range []core.Model{core.ModelScan, core.ModelEREW} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", alg.Name, n, model), func(b *testing.B) {
					var steps int64
					for i := 0; i < b.N; i++ {
						m := core.New(core.WithModel(model))
						alg.Run(m, n, 42)
						steps = m.Steps()
					}
					b.ReportMetric(float64(steps), "steps")
				})
			}
		}
	}
}

// BenchmarkTable2Scan simulates the bit-pipelined tree scan at hardware
// scale; cycles are exact from the gate-level model.
func BenchmarkTable2Scan(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("tree-scan/n=%d", n), func(b *testing.B) {
			values := make([]uint64, n)
			rng := rand.New(rand.NewSource(2))
			for i := range values {
				values[i] = rng.Uint64() & 0xffff
			}
			var cycles int
			for i := 0; i < b.N; i++ {
				cycles = circuit.PlusScan(values, 16).Cycles
			}
			b.ReportMetric(float64(cycles), "bit-cycles")
		})
	}
	b.Run("formula/n=65536/m=32", func(b *testing.B) {
		var c int
		for i := 0; i < b.N; i++ {
			c = circuit.Cycles(circuit.OpPlus, 1<<16, 32)
		}
		b.ReportMetric(float64(c), "bit-cycles")
	})
}

// BenchmarkTable2Route simulates the omega-network memory reference that
// Table 2 compares the scan against.
func BenchmarkTable2Route(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("omega/n=%d", n), func(b *testing.B) {
			o := network.NewOmega(n)
			rng := rand.New(rand.NewSource(3))
			perm := rng.Perm(n)
			var cycles int
			for i := 0; i < b.N; i++ {
				cycles = o.Route(perm, 32).Cycles
			}
			b.ReportMetric(float64(cycles), "bit-cycles")
		})
	}
}

// BenchmarkTable3 regenerates the usage cross-reference.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables.Table3(1024, 7)
	}
}

// BenchmarkTable4 compares the split radix sort and the bitonic sort,
// reporting machine steps (the wall-clock columns come from the
// SortWallClock benchmarks below).
func BenchmarkTable4(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		for _, d := range []int{8, 16, 32} {
			keys := make([]int, n)
			rng := rand.New(rand.NewSource(4))
			for i := range keys {
				keys[i] = rng.Intn(1<<uint(d) - 1)
			}
			b.Run(fmt.Sprintf("radix/n=%d/d=%d", n, d), func(b *testing.B) {
				var steps int64
				var out []int
				for i := 0; i < b.N; i++ {
					m := scans.NewMachine()
					out = m.RadixSort(keys)
					steps = m.Steps()
				}
				if !sort.IntsAreSorted(out) {
					b.Fatal("radix unsorted")
				}
				b.ReportMetric(float64(steps), "steps")
			})
			b.Run(fmt.Sprintf("bitonic/n=%d/d=%d", n, d), func(b *testing.B) {
				var steps int64
				var out []int
				for i := 0; i < b.N; i++ {
					m := scans.NewMachine()
					out = m.BitonicSort(keys)
					steps = m.Steps()
				}
				if !sort.IntsAreSorted(out) {
					b.Fatal("bitonic unsorted")
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkTable4BitCycles reports the simulated bit-serial cycle counts
// at the paper's 64K-processor scale (the "Actual (64K processor CM-1)"
// row).
func BenchmarkTable4BitCycles(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var r tables.Table4Result
			for i := 0; i < b.N; i++ {
				r = tables.Table4(1<<16, d, 4)
			}
			b.ReportMetric(float64(r.RadixMachine), "radix-bit-cycles")
			b.ReportMetric(float64(r.BitonicMachine), "bitonic-bit-cycles")
		})
	}
}

// BenchmarkTable5 measures processor-step products with p = n and
// p = n / lg n for the three Table 5 algorithms.
func BenchmarkTable5(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rows []tables.Table5Row
			for i := 0; i < b.N; i++ {
				rows = tables.Table5(n, 5)
			}
			for _, r := range rows {
				name := strings.ReplaceAll(strings.ToLower(r.Name), " ", "-")
				b.ReportMetric(float64(r.PSFull), name+"-ps-full")
				b.ReportMetric(float64(r.PSFrac), name+"-ps-frac")
			}
		})
	}
}

// BenchmarkFigures regenerates all worked-example figures (the exactness
// assertions live in internal/figures' tests).
func BenchmarkFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(figures.All()) == 0 {
			b.Fatal("no figures")
		}
	}
}

// BenchmarkSortWallClock compares real wall-clock sorting throughput:
// the machine-model radix sort, the plain goroutine-parallel bitonic
// sort, and the standard library, over the same keys.
func BenchmarkSortWallClock(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(6))
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(1 << 16)
	}
	b.Run("machine-radix", func(b *testing.B) {
		m := scans.NewMachine(scans.WithWorkers(0), scans.WithExclusiveCheck(false))
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			m.RadixSort(keys)
		}
	})
	b.Run("bitonic-parallel", func(b *testing.B) {
		buf := make([]int, n)
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			bitonic.SortParallel(buf, 0)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		buf := make([]int, n)
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			sort.Ints(buf)
		}
	})
}

// BenchmarkCRCWConnectedComponents measures Table 1's CRCW column for
// connected components: Shiloach–Vishkin hooking with min-combining
// concurrent writes, against the scan-model random-mate contraction.
func BenchmarkCRCWConnectedComponents(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		var edges []graph.Edge
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v})
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		b.Run(fmt.Sprintf("crcw-hooking/n=%d", n), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := core.New(core.WithModel(core.ModelCRCW))
				svcc.Labels(m, n, edges)
				steps = m.Steps()
			}
			b.ReportMetric(float64(steps), "steps")
		})
		b.Run(fmt.Sprintf("scan-contraction/n=%d", n), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := core.New()
				cc.Labels(m, n, edges, 5)
				steps = m.Steps()
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationRadixBits sweeps the bits-per-pass of the multi-bit
// radix extension against the paper's 1-bit split sort (DESIGN.md
// ablation): fewer passes, more scans per pass.
func BenchmarkAblationRadixBits(b *testing.B) {
	n, d := 1<<13, 16
	rng := rand.New(rand.NewSource(10))
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(1 << uint(d))
	}
	for _, r := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := core.New()
				radix.SortMultiBit(m, keys, d, r)
				steps = m.Steps()
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationPivot compares the quicksort pivot strategies: random
// (the expected-O(lg n) guarantee) vs first-element (the paper's
// walk-through choice, adversarial on sorted input).
func BenchmarkAblationPivot(b *testing.B) {
	n := 1 << 12
	rng := rand.New(rand.NewSource(11))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.Float64()
	}
	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	for _, tc := range []struct {
		name  string
		keys  []float64
		pivot qsort.Pivot
	}{
		{"random-keys/random-pivot", random, qsort.PivotRandom},
		{"random-keys/first-pivot", random, qsort.PivotFirst},
		{"reversed-keys/random-pivot", reverse(sorted), qsort.PivotRandom},
		{"reversed-keys/first-pivot", reverse(sorted), qsort.PivotFirst},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := core.New()
				qsort.Sort(m, tc.keys, qsort.Options{Pivot: tc.pivot, Seed: 5})
				steps = m.Steps()
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

func reverse(v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[len(v)-1-i]
	}
	return out
}

// BenchmarkAblationExclusiveCheck prices the machine's EREW verification
// (DESIGN.md ablation): permutes with and without the checker.
func BenchmarkAblationExclusiveCheck(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(n)
	src := make([]int, n)
	dst := make([]int, n)
	for _, check := range []bool{true, false} {
		b.Run(fmt.Sprintf("check=%v", check), func(b *testing.B) {
			m := scans.NewMachine(scans.WithExclusiveCheck(check))
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				scans.Permute(m, dst, src, perm)
			}
		})
	}
}

// BenchmarkServeFusedVsSequential measures the serve subsystem's fusion
// claim on its acceptance workload: K=1000 requests of n=256 elements
// each. "sequential" serves them one at a time (a single closed-loop
// client, so every request is its own dispatch and kernel pass);
// "fused" submits them all at once from K goroutines so the batcher
// coalesces them into a handful of segmented kernel passes. "direct" is
// the bare serial kernel loop with no service at all — the floor that
// any serving layer's overhead is measured against. EXPERIMENTS.md records
// the numbers.
func BenchmarkServeFusedVsSequential(b *testing.B) {
	const K, n = 1000, 256
	rng := rand.New(rand.NewSource(11))
	data := make([][]int64, K)
	for i := range data {
		data[i] = make([]int64, n)
		for j := range data[i] {
			data[i][j] = int64(rng.Intn(100))
		}
	}
	spec := serve.Spec{Op: serve.OpSum}

	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(K * n * 8))
		for i := 0; i < b.N; i++ {
			for k := 0; k < K; k++ {
				dst := make([]int64, n)
				scan.Exclusive(scan.Add[int64]{}, dst, data[k])
			}
		}
	})

	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		s := serve.New(serve.Config{QueueLimit: 2 * K})
		defer s.Close()
		b.SetBytes(int64(K * n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < K; k++ {
				if _, err := s.SubmitCtx(ctx, spec, data[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("fused", func(b *testing.B) {
		s := serve.New(serve.Config{QueueLimit: 2 * K})
		defer s.Close()
		b.SetBytes(int64(K * n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			wg.Add(K)
			for k := 0; k < K; k++ {
				go func(k int) {
					defer wg.Done()
					if _, err := s.SubmitCtx(ctx, spec, data[k]); err != nil {
						b.Error(err)
					}
				}(k)
			}
			wg.Wait()
		}
		b.StopTimer()
		st := s.Stats()
		b.ReportMetric(float64(st.Requests)/float64(st.Batches), "req/batch")
	})
}
