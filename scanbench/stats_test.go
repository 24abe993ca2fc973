package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, permille int
		value       float64
		ok          bool
	}{
		{10000, 999, 9990, true},
		{1000, 990, 990, true}, // 0.99*1000 is 990.0000000000001 in floating point
		{999, 950, 950, true},  // p99 would leave only 9 beyond
		{200, 950, 190, true},
		{20, 500, 10, true},
		{19, 500, 10, false}, // not even the median has ten beyond
	} {
		got := tail(seq(c.n))
		want := tailStat{Permille: c.permille, Value: c.value, N: c.n, OK: c.ok}
		if got != want {
			t.Errorf("tail of %d samples = %+v, want %+v", c.n, got, want)
		}
	}
}

func TestBlockP99IgnoresOneStalledBlock(t *testing.T) {
	lat := make([]float64, 10*blockLen)
	for i := range lat {
		lat[i] = float64(i%100) + 1 // every block: p99 = 99
	}
	for i := 3 * blockLen; i < 4*blockLen; i++ {
		lat[i] = 1000
	}
	if got := blockP99(lat); got != 99 {
		t.Errorf("blockP99 with one stalled block = %g, want 99", got)
	}
	if got := pct(sortedCopy(lat), 990); got != 1000 {
		t.Errorf("plain p99 = %g, want the stall's 1000", got)
	}
	short := seq(blockLen + 1)
	if got, want := blockP99(short), pct(short, 990); got != want {
		t.Errorf("blockP99 of one block = %g, want the plain p99 %g", got, want)
	}
	if q, v := probeTail(lat); q != 990 || v != 99 {
		t.Errorf("probeTail of %d samples = p%g %g, want blockP99's p99 99", len(lat), float64(q)/10, v)
	}
	if q, v := probeTail(seq(500)); q != 950 || v != 475 {
		t.Errorf("probeTail of 500 samples = p%g %g, want p95 475", float64(q)/10, v)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
