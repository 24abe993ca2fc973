package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
)

// BenchmarkServeZeroCopy measures the serving path (view kernels over
// request-owned buffers + pooled futures/outputs) at ~250 requests per
// batch: waves of 250 concurrent SubmitCtx calls, so each wave fuses
// into about one batch (64 elements each). Run with -benchmem:
// steady-state allocs/op should sit near the goroutine-and-scheduling
// floor. EXPERIMENTS.md records the numbers.
func BenchmarkServeZeroCopy(b *testing.B) {
	const (
		submitters = 250
		elems      = 64
	)
	s := New(Config{
		MinBatchRequests: submitters,
		MaxBatchRequests: submitters,
		MaxBatchElems:    submitters * elems,
		MaxWait:          200 * time.Microsecond,
		QueueLimit:       4 * submitters,
	})
	defer s.Close()

	spec := Spec{Op: OpSum, Kind: Inclusive}
	payloads := make([][]int64, submitters)
	for g := range payloads {
		payloads[g] = make([]int64, elems)
		for i := range payloads[g] {
			payloads[g][i] = int64(g + i)
		}
	}
	// Persistent submitter goroutines triggered once per wave, so the
	// measured allocations are the serving path's, not 250 goroutine
	// spawns per iteration.
	var wg sync.WaitGroup
	trigs := make([]chan struct{}, submitters)
	for g := range trigs {
		trigs[g] = make(chan struct{}, 1)
		go func(g int) {
			for range trigs[g] {
				res, err := s.SubmitCtx(context.Background(), spec, payloads[g])
				if err != nil {
					b.Error(err)
				} else {
					arena.PutInt64s(res)
				}
				wg.Done()
			}
		}(g)
	}
	defer func() {
		for _, c := range trigs {
			close(c)
		}
	}()
	wave := func() {
		wg.Add(submitters)
		for _, c := range trigs {
			c <- struct{}{}
		}
		wg.Wait()
	}
	wave() // warm the pools before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*submitters/b.Elapsed().Seconds(), "req/s")
}

// maxSteadyScanAllocs bounds allocations per request on the warm
// in-process Scan path: pooled future + token channel reuse, pooled
// batch slice, per-executor scratch, arena-backed output. The measured
// steady state is ~2 allocs/op (scheduler noise around the batcher's
// yield loop); 4 leaves headroom for jitter while still failing loudly
// if a buffer copy or per-request allocation sneaks back in.
const maxSteadyScanAllocs = 4

// TestAllocsSteadyStateScan is the alloc-regression guard
// scripts/check.sh runs (without -race: the race detector's sync.Pool
// deliberately drops recycled items, so alloc-free pooling cannot be
// asserted under it — see raceEnabled).
func TestAllocsSteadyStateScan(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc-free pooling is not observable under -race (sync.Pool drops Puts)")
	}
	s := New(Config{MaxWait: 50 * time.Microsecond})
	defer s.Close()
	spec := Spec{Op: OpSum, Kind: Inclusive}
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64(i)
	}
	ctx := context.Background()
	run := func() {
		res, err := s.Scan(ctx, spec, data, "")
		if err != nil {
			t.Fatal(err)
		}
		arena.PutInt64s(res)
	}
	for i := 0; i < 100; i++ {
		run() // reach steady state: pools warm, scratch grown
	}
	if avg := testing.AllocsPerRun(200, run); avg > maxSteadyScanAllocs {
		t.Errorf("steady-state Scan allocates %.1f objects/request, want <= %d — a copy or per-request allocation crept back into the zero-copy path", avg, maxSteadyScanAllocs)
	}
}

// maxSteadyUserOpAllocs bounds allocations per request on the warm
// user-op (combine VM) path. The VM itself is allocation-free after
// warm-up — per-executor Frame scratch, arena-backed dst, the same
// pooled future machinery as the builtins — so the budget is the
// builtin budget plus 2 for the resolved binding's spec plumbing.
const maxSteadyUserOpAllocs = maxSteadyScanAllocs + 2

// TestAllocsSteadyStateUserOpScan is check.sh's VM alloc gate: a
// registered monoid served through the batch path must stay within a
// fixed allocs/request budget, or the "no allocation beyond a
// per-executor scratch frame" contract of internal/combine has broken.
// All three dispatch classes are pinned: scalar (gcd's loop), vector
// (satadd's lane blocks must come from the per-executor VecScratch,
// not the GC), and native-promoted (add).
func TestAllocsSteadyStateUserOpScan(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc-free pooling is not observable under -race (sync.Pool drops Puts)")
	}
	cases := []struct {
		name, source, class string
	}{
		{"gcd", combine.ExampleGCD, "scalar"},
		{"satadd", combine.ExampleSatAdd, "vector"},
		{"add", combine.ExampleAdd, "native"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{MaxWait: 50 * time.Microsecond})
			defer s.Close()
			if _, err := s.RegisterScanOp("", tc.name, tc.source); err != nil {
				t.Fatal(err)
			}
			spec, err := ParseSpec("user:"+tc.name, "inclusive", "")
			if err != nil {
				t.Fatal(err)
			}
			data := make([]int64, 256)
			for i := range data {
				data[i] = int64((i%9 + 1) * 12)
			}
			ctx := context.Background()
			run := func() {
				res, err := s.Scan(ctx, spec, data, "")
				if err != nil {
					t.Fatal(err)
				}
				arena.PutInt64s(res)
			}
			for i := 0; i < 100; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(200, run); avg > maxSteadyUserOpAllocs {
				t.Errorf("steady-state %s-dispatch user-op Scan allocates %.1f objects/request, want <= %d — the combine VM path has grown a per-request allocation", tc.class, avg, maxSteadyUserOpAllocs)
			}
		})
	}
}

// TestAllocsJSONEdgeCodec is check.sh's alloc gate for the JSON edge:
// decoding a scan request line or a result line allocates nothing
// beyond the arena checkout for its vector, and encoding a request
// allocates nothing at all. Each line must also take the one-pass path
// — encoding/json would allocate on every call.
func TestAllocsJSONEdgeCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc-free pooling is not observable under -race (sync.Pool drops Puts)")
	}
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64(i*7919) - 1000
	}
	req := WireRequest{ID: 1 << 40, Op: "sum", Kind: "inclusive", Dir: "backward", TimeoutMS: 250, Data: data}
	reqLine, ok := appendWireRequest(nil, req)
	if !ok {
		t.Fatal("request appender declined a one-shot scan")
	}
	respLine, ok := appendWireResponse(nil, WireResponse{ID: 1 << 40, Result: data})
	if !ok {
		t.Fatal("response appender declined a result")
	}
	cases := []struct {
		name string
		run  func() bool
	}{
		{"encode-request", func() bool {
			buf := arena.GetBytes(fastReqSize(req))[:0]
			out, ok := appendWireRequest(buf, req)
			arena.PutBytes(out)
			return ok
		}},
		{"decode-request", func() bool {
			got, ok := decodeWireRequest(reqLine)
			releaseData(got.Data)
			return ok && len(got.Data) == len(data)
		}},
		{"decode-result", func() bool {
			got, ok := decodeWireResponse(respLine)
			releaseData(got.Result)
			return ok && len(got.Result) == len(data)
		}},
	}
	for _, tc := range cases {
		for i := 0; i < 100; i++ {
			if !tc.run() {
				t.Fatalf("%s: the one-pass path declined its line", tc.name)
			}
		}
		if avg := testing.AllocsPerRun(200, func() { tc.run() }); avg != 0 {
			t.Errorf("%s allocates %.1f objects/call, want 0 — the JSON edge codec has grown a per-request allocation", tc.name, avg)
		}
	}
}
