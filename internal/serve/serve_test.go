package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"scans/internal/scan"
)

// directScan computes the expected result of a request with the serial
// kernels from internal/scan — the reference the fused service must
// agree with exactly.
func directScan(spec Spec, data []int64) []int64 {
	dst := make([]int64, len(data))
	var op scan.Op[int64]
	switch spec.Op {
	case OpSum:
		op = scan.Add[int64]{}
	case OpMul:
		op = scan.Mul[int64]{}
	case OpMax:
		op = scan.Max[int64]{Id: math.MinInt64}
	case OpMin:
		op = scan.Min[int64]{Id: math.MaxInt64}
	}
	o := scan.Func[int64]{Id: op.Identity(), F: op.Combine}
	switch {
	case spec.Dir == Forward && spec.Kind == Exclusive:
		scan.Exclusive(o, dst, data)
	case spec.Dir == Forward && spec.Kind == Inclusive:
		scan.Inclusive(o, dst, data)
	case spec.Dir == Backward && spec.Kind == Exclusive:
		scan.ExclusiveBackward(o, dst, data)
	default:
		scan.InclusiveBackward(o, dst, data)
	}
	return dst
}

// allSpecs enumerates every valid (op, kind, dir) combination.
func allSpecs() []Spec {
	var specs []Spec
	for op := Op(0); op < opCount; op++ {
		for k := Kind(0); k < kindCount; k++ {
			for d := Dir(0); d < dirCount; d++ {
				specs = append(specs, Spec{Op: op, Kind: k, Dir: d})
			}
		}
	}
	return specs
}

func randomData(rng *rand.Rand, n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		d[i] = int64(rng.Intn(41) - 20)
	}
	return d
}

func TestSubmitAllSpecsMatchDirect(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for _, spec := range allSpecs() {
		for _, n := range []int{1, 2, 7, 256} {
			data := randomData(rng, n)
			if spec.Op == OpMul {
				// Keep products small: ±1 only.
				for i := range data {
					data[i] = 2*(data[i]&1) - 1
				}
			}
			got, err := s.SubmitCtx(context.Background(), spec, data)
			if err != nil {
				t.Fatalf("%v n=%d: SubmitCtx: %v", spec, n, err)
			}
			if want := directScan(spec, data); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v n=%d: served scan = %v, want %v", spec, n, got, want)
			}
		}
	}
}

func TestConcurrentSubmittersFuseCorrectly(t *testing.T) {
	// Many goroutines × many requests of mixed flavors: every result
	// must still match the serial reference even though requests fuse
	// into shared batches. Run under -race this also checks the whole
	// submit/batch/execute/deliver pipeline for data races.
	s := New(Config{MaxWait: 200 * time.Microsecond, QueueLimit: 1 << 14})
	defer s.Close()
	specs := allSpecs()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				spec := specs[rng.Intn(len(specs))]
				data := randomData(rng, 1+rng.Intn(64))
				if spec.Op == OpMul {
					for j := range data {
						data[j] = 2*(data[j]&1) - 1
					}
				}
				got, err := s.SubmitCtx(context.Background(), spec, data)
				if errors.Is(err, ErrOverloaded) {
					// Legal under load; retry.
					i--
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if want := directScan(spec, data); !reflect.DeepEqual(got, want) {
					errs <- errors.New("fused result differs from direct kernel for " + spec.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests == 0 || st.Batches == 0 {
		t.Fatalf("no traffic recorded: %v", st)
	}
}

func TestBatchingFusesConcurrentRequests(t *testing.T) {
	// Submit K requests asynchronously before waiting on any future:
	// with a fill target of K and a generous window they must fuse
	// into exactly one batch.
	const K = 100
	s := New(Config{MinBatchRequests: K, MaxWait: time.Second, QueueLimit: 1024})
	defer s.Close()
	data := []int64{1, 2, 3, 4}
	futures := make([]*future, K)
	for i := range futures {
		f, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: data})
		if err != nil {
			t.Fatalf("submitReq %d: %v", i, err)
		}
		futures[i] = f
	}
	want := directScan(Spec{Op: OpSum}, data)
	for i, f := range futures {
		got, err := f.wait()
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: got %v, want %v", i, got, want)
		}
	}
	st := s.Stats()
	if st.Requests != K {
		t.Fatalf("Requests = %d, want %d", st.Requests, K)
	}
	if st.Batches != 1 {
		t.Fatalf("Batches = %d for %d concurrent requests below the fill target, want 1", st.Batches, K)
	}
	if st.FusedElements != K*uint64(len(data)) {
		t.Fatalf("FusedElements = %d, want %d", st.FusedElements, K*len(data))
	}
	if st.MaxOccupancy != K {
		t.Fatalf("MaxOccupancy = %d, want %d", st.MaxOccupancy, K)
	}
	if st.P50Occupancy < K/2 {
		t.Fatalf("P50Occupancy = %d, want the %d-occupancy bucket", st.P50Occupancy, K)
	}
}

func TestFusedElementsStreamedCountsPayloadOnly(t *testing.T) {
	// A stream chunk's carry is folded in by the view kernels and takes
	// no slot, so K chunks must add exactly their payload total to
	// FusedElements (and to the MaxBatchElems budget) — not one extra
	// element per chunk.
	const K, n = 16, 37
	s := New(Config{})
	st, err := s.OpenStream(Spec{Op: OpSum}, "")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < K; i++ {
		if _, err := st.Push(ctx, make([]int64, n)); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	if _, err := st.Close(); err != nil {
		t.Fatalf("stream Close: %v", err)
	}
	s.Close() // every batch's stats are recorded once the executors exit
	if got := s.Stats().FusedElements; got != K*n {
		t.Fatalf("FusedElements = %d for %d streamed chunks of %d, want %d", got, K, n, K*n)
	}
}

func TestLoneRequestFlushesAfterWindow(t *testing.T) {
	// A single request below the fill target must still be served once
	// MaxWait expires — the window bounds latency, it never strands.
	s := New(Config{MinBatchRequests: 8, MaxWait: 2 * time.Millisecond})
	defer s.Close()
	start := time.Now()
	got, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum, Kind: Inclusive}, []int64{4, 5})
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	if want := []int64{4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lone request = %v, want %v", got, want)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone request took %v, window is not bounding latency", waited)
	}
}

func TestBatchElemCapFlushes(t *testing.T) {
	// With MaxBatchElems tiny, a burst must split into multiple batches
	// rather than one oversized batch, even with a huge fill target.
	s := New(Config{MaxBatchElems: 8, MinBatchRequests: 64, MaxWait: 10 * time.Millisecond, QueueLimit: 1024})
	defer s.Close()
	const K = 64
	futures := make([]*future, K)
	for i := range futures {
		f, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: []int64{1, 1, 1, 1}})
		if err != nil {
			t.Fatalf("submitReq: %v", err)
		}
		futures[i] = f
	}
	for _, f := range futures {
		if _, err := f.wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches < K/4 {
		t.Fatalf("Batches = %d; MaxBatchElems=8 with 4-element requests should force ~%d batches", st.Batches, K/2)
	}
}

func TestBackpressureOverloaded(t *testing.T) {
	// A stopped server drains nothing, so the queue fills after exactly
	// QueueLimit submissions and further ones reject with ErrOverloaded.
	s := newStopped(Config{QueueLimit: 4})
	data := []int64{1}
	for i := 0; i < 4; i++ {
		if _, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: data}); err != nil {
			t.Fatalf("submitReq %d within queue limit: %v", i, err)
		}
	}
	if _, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: data}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit submitReq error = %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	// Start the loops: the queued futures must all drain and resolve.
	s.start()
	s.Close()
	if got, want := s.Stats().Requests, uint64(4); got != want {
		t.Fatalf("Requests = %d, want %d", got, want)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{MaxWait: 20 * time.Millisecond})
	futures := make([]*future, 50)
	for i := range futures {
		f, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum, Kind: Inclusive}, data: []int64{int64(i), 1}})
		if err != nil {
			t.Fatalf("submitReq: %v", err)
		}
		futures[i] = f
	}
	// Close before waiting on anything: every accepted future must
	// still resolve (drain), and new submissions must be refused.
	s.Close()
	for i, f := range futures {
		got, err := f.wait()
		if err != nil {
			t.Fatalf("future %d after Close: %v", i, err)
		}
		if want := []int64{int64(i), int64(i) + 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("future %d = %v, want %v", i, got, want)
		}
	}
	if _, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum}, []int64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitCtx after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	s.Close()
}

func TestCloseRacesWithSubmitters(t *testing.T) {
	// Submitters hammering a server while it closes must each see
	// either a served result or ErrClosed/ErrOverloaded — never a hang
	// or a race (-race covers the latter).
	s := New(Config{QueueLimit: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum}, []int64{1, 2, 3})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					panic(err)
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
}

func TestEmptyAndInvalidRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	got, err := s.SubmitCtx(context.Background(), Spec{Op: OpMax}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty request = (%v, %v), want ([], nil)", got, err)
	}
	if _, err := s.SubmitCtx(context.Background(), Spec{Op: opCount}, []int64{1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid op error = %v, want ErrBadRequest", err)
	}
}

func TestUnfusedConfigServesEveryRequestAlone(t *testing.T) {
	// MaxBatchRequests=1 is the unfused baseline: batches == requests.
	s := New(Config{MaxBatchRequests: 1, QueueLimit: 256})
	const K = 32
	futures := make([]*future, K)
	for i := range futures {
		f, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: []int64{1, 2}})
		if err != nil {
			t.Fatalf("submitReq: %v", err)
		}
		futures[i] = f
	}
	for _, f := range futures {
		if _, err := f.wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Batches != K {
		t.Fatalf("unfused Batches = %d, want %d", st.Batches, K)
	}
	if st.P99Occupancy != 1 || st.MaxOccupancy != 1 {
		t.Fatalf("unfused occupancy p99=%d max=%d, want 1/1", st.P99Occupancy, st.MaxOccupancy)
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := &Server{}
	// 99 singleton batches and one 100-request batch: p50 stays in the
	// singleton bucket, p99 reaches the big one.
	for i := 0; i < 99; i++ {
		s.stats.record(1, 1, 1)
	}
	s.stats.record(100, 1, 100)
	snap := s.Stats()
	if snap.P50Occupancy != 1 {
		t.Errorf("P50Occupancy = %d, want 1", snap.P50Occupancy)
	}
	if snap.P99Occupancy < 64 {
		t.Errorf("P99Occupancy = %d, want the 100-occupancy bucket (>= 64)", snap.P99Occupancy)
	}
	if snap.MaxOccupancy != 100 {
		t.Errorf("MaxOccupancy = %d, want 100", snap.MaxOccupancy)
	}
	if snap.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestSpecStrings(t *testing.T) {
	s := Spec{Op: OpMax, Kind: Inclusive, Dir: Backward}
	if got, want := s.String(), "max/inclusive/backward"; got != want {
		t.Errorf("Spec.String = %q, want %q", got, want)
	}
	for _, spec := range allSpecs() {
		parsed, err := ParseSpec(spec.Op.String(), spec.Kind.String(), spec.Dir.String())
		if err != nil || parsed != spec {
			t.Errorf("ParseSpec round trip failed for %v: %v %v", spec, parsed, err)
		}
	}
	if _, err := ParseSpec("xor", "", ""); !errors.Is(err, ErrBadRequest) {
		t.Errorf("ParseSpec unknown op error = %v, want ErrBadRequest", err)
	}
	if _, err := ParseSpec("sum", "sideways", ""); !errors.Is(err, ErrBadRequest) {
		t.Errorf("ParseSpec unknown kind error = %v, want ErrBadRequest", err)
	}
	if _, err := ParseSpec("sum", "", "up"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("ParseSpec unknown dir error = %v, want ErrBadRequest", err)
	}
}
