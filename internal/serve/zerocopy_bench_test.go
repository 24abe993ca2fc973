package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	// The coverage lines: every digit length at every alignment against
	// the parser's 8-byte loads (see digitCoverage), as a request and as
	// a result. Each must take the one-pass path and round-trip.
	cover := digitCoverage()
	for shift := range 8 {
		id := pow10[shift] // one more id digit moves every number one byte
		req := WireRequest{ID: id, Op: "mul", Data: cover}
		line, _ := appendWireRequest(nil, req)
		got, ok := decodeWireRequest(line)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("request line %s: one-pass decode ok=%v, got %v", line, ok, got.Data)
		}
		releaseData(got.Data)
		resp := WireResponse{ID: id, Result: cover}
		line, _ = appendWireResponse(nil, resp)
		back, ok := decodeWireResponse(line)
		if !ok || !reflect.DeepEqual(back, resp) {
			t.Fatalf("result line %s: one-pass decode ok=%v, got %v", line, ok, back.Result)
		}
		releaseData(back.Result)
	}
	coverLine, _ := appendWireResponse(nil, WireResponse{ID: 1, Result: cover})
	cases = append(cases, struct {
		name string
		run  func() bool
	}{"decode-coverage", func() bool {
		got, ok := decodeWireResponse(coverLine)
		releaseData(got.Result)
		return ok && len(got.Result) == len(cover)
	}})
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

// digitCoverage is a vector with every decimal length of both signs,
// 1 to 19 digits (the shortest, the longest and a mixed number of each
// length), plus 0, MinInt64 and MaxInt64. Its numbers start at every
// offset mod 8 within it, and in a line with an id one digit longer
// each moves one byte, so across eight ids every length meets every
// alignment against an 8-byte load, the last number ending in the
// line's last 8 bytes.
func digitCoverage() []int64 {
	v := []int64{0, math.MinInt64, math.MaxInt64}
	for d := 1; d <= 19; d++ {
		lo := int64(pow10[d-1])
		hi := int64(min(pow10[d]-1, math.MaxInt64))
		mid := lo + (hi-lo)/3
		v = append(v, lo, -lo, hi, -hi, mid, -mid)
	}
	return v
}

// edgeCodecMix is a fixed edge-small-like request mix: 64 vectors of
// 16 to 1024 values (log-uniform) in ±1000.
func edgeCodecMix() [][]int64 {
	rng := rand.New(rand.NewSource(22))
	mix := make([][]int64, 64)
	for i := range mix {
		n := int(16 * math.Pow(64, rng.Float64()))
		mix[i] = make([]int64, n)
		for j := range mix[i] {
			mix[i][j] = rng.Int63n(2001) - 1000
		}
	}
	return mix
}

// BenchmarkJSONEdgeCodec times the four JSON edge codec calls per
// element on an edge-small-like mix: encoding and decoding the
// requests, and encoding and decoding the inclusive scan results of
// each builtin op (sum results grow digits, mul results wrap to
// 19-digit words).
func BenchmarkJSONEdgeCodec(b *testing.B) {
	mix := edgeCodecMix()
	elems := 0
	for _, v := range mix {
		elems += len(v)
	}
	bench := func(name string, lines [][]byte, msgs []WireResponse, reqs []WireRequest) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := range mix {
					switch {
					case reqs != nil && lines == nil:
						buf := arena.GetBytes(fastReqSize(reqs[k]))[:0]
						out, _ := appendWireRequest(buf, reqs[k])
						arena.PutBytes(out)
					case reqs != nil:
						got, _ := decodeWireRequest(lines[k])
						releaseData(got.Data)
					case lines == nil:
						buf := arena.GetBytes(fastRespSize(msgs[k]))[:0]
						out, _ := appendWireResponse(buf, msgs[k])
						arena.PutBytes(out)
					default:
						got, _ := decodeWireResponse(lines[k])
						releaseData(got.Result)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
		})
	}
	reqs := make([]WireRequest, len(mix))
	reqLines := make([][]byte, len(mix))
	for k, v := range mix {
		reqs[k] = WireRequest{ID: uint64(k + 1), Op: "sum", Kind: "inclusive", Data: v}
		reqLines[k], _ = appendWireRequest(nil, reqs[k])
	}
	bench("encode-request", nil, nil, reqs)
	bench("decode-request", reqLines, nil, reqs)
	ops := []struct {
		name string
		f    func(a, b int64) int64
	}{
		{"sum", func(a, b int64) int64 { return a + b }},
		{"max", func(a, b int64) int64 { return max(a, b) }},
		{"min", func(a, b int64) int64 { return min(a, b) }},
		{"mul", func(a, b int64) int64 { return a * b }},
	}
	for _, op := range ops {
		resps := make([]WireResponse, len(mix))
		respLines := make([][]byte, len(mix))
		for k, v := range mix {
			res := slices.Clone(v)
			for j := 1; j < len(res); j++ {
				res[j] = op.f(res[j-1], res[j])
			}
			resps[k] = WireResponse{ID: uint64(k + 1), Result: res}
			respLines[k], _ = appendWireResponse(nil, resps[k])
		}
		bench("encode-result/"+op.name, nil, resps, nil)
		bench("decode-result/"+op.name, respLines, resps, nil)
	}
}
