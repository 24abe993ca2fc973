package serve

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scans/internal/combine"
)

// Vectorized user-op dispatch through the serving layer: promotion to
// native kernels, the lane-blocked engine on large requests, scalar
// fallback on small ones and loopy programs, and bit-identity between
// every dispatch class and the forced-scalar baseline.

// dispatchPair builds a default (vector-dispatch) server and a
// forced-scalar twin, with the same op registered on both.
func dispatchPair(t *testing.T, name, source string) (vec, scal *Server) {
	t.Helper()
	vec = New(Config{MaxWait: 50 * time.Microsecond})
	t.Cleanup(func() { vec.Close() })
	scal = New(Config{MaxWait: 50 * time.Microsecond, scalarVM: true})
	t.Cleanup(func() { scal.Close() })
	for _, s := range []*Server{vec, scal} {
		if _, err := s.RegisterScanOp("t", name, source); err != nil {
			t.Fatalf("RegisterScanOp(%s): %v", name, err)
		}
	}
	return vec, scal
}

func scanBoth(t *testing.T, vec, scal *Server, op, kind, dir string, data []int64) {
	t.Helper()
	spec, err := ParseSpec(op, kind, dir)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	ctx := context.Background()
	got, err := vec.Scan(ctx, spec, data, "t")
	if err != nil {
		t.Fatalf("%s/%s/%s vector-dispatch scan: %v", op, kind, dir, err)
	}
	want, err := scal.Scan(ctx, spec, data, "t")
	if err != nil {
		t.Fatalf("%s/%s/%s scalar-dispatch scan: %v", op, kind, dir, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s/%s: vector dispatch diverged from scalar (n=%d)", op, kind, dir, len(data))
	}
}

func TestUserOpPromotionServesNative(t *testing.T) {
	// The add twin is structurally the builtin sum kernel; the default
	// config must serve it through the native path (VMPromotedReqs) and
	// agree bit-for-bit with the forced-scalar interpreter.
	vec, scal := dispatchPair(t, "add", combine.ExampleAdd)
	rng := rand.New(rand.NewSource(11))
	data := make([]int64, 4096)
	for i := range data {
		data[i] = rng.Int63() - rng.Int63()
	}
	for _, kind := range []string{"inclusive", "exclusive"} {
		for _, dir := range []string{"", "backward"} {
			scanBoth(t, vec, scal, "user:add", kind, dir, data)
		}
	}
	vs, ss := vec.Stats(), scal.Stats()
	if vs.VMPromotedReqs == 0 {
		t.Errorf("vector-dispatch server: VMPromotedReqs = 0, want > 0 (promotion not engaged)")
	}
	if vs.VMVectorReqs != 0 || vs.VMScalarReqs != 0 {
		t.Errorf("vector-dispatch server: promoted op leaked into other classes: vector=%d scalar=%d",
			vs.VMVectorReqs, vs.VMScalarReqs)
	}
	if ss.VMPromotedReqs != 0 || ss.VMVectorReqs != 0 {
		t.Errorf("scalar-dispatch server ran non-scalar classes: promoted=%d vector=%d",
			ss.VMPromotedReqs, ss.VMVectorReqs)
	}
	if ss.VMScalarReqs == 0 {
		t.Errorf("scalar-dispatch server: VMScalarReqs = 0, want > 0")
	}
}

func TestUserOpVectorServesLargeRequests(t *testing.T) {
	// satadd vectorizes (its saturation diamond lowers to a select) but
	// does not promote; large requests must take the lane-blocked
	// engine, sub-MinVecTuples ones the scalar walk — both matching
	// the forced-scalar baseline bit for bit.
	vec, scal := dispatchPair(t, "satadd", combine.ExampleSatAdd)
	rng := rand.New(rand.NewSource(12))
	big := make([]int64, 4096)
	for i := range big {
		// Mix huge uint64 magnitudes (saturation territory) with small
		// increments.
		if i%3 == 0 {
			big[i] = rng.Int63() - rng.Int63()
		} else {
			big[i] = rng.Int63n(1000)
		}
	}
	small := big[:combine.MinVecTuples-1]
	for _, kind := range []string{"inclusive", "exclusive"} {
		for _, dir := range []string{"", "backward"} {
			scanBoth(t, vec, scal, "user:satadd", kind, dir, big)
			scanBoth(t, vec, scal, "user:satadd", kind, dir, small)
		}
	}
	vs := vec.Stats()
	if vs.VMVectorReqs == 0 {
		t.Errorf("VMVectorReqs = 0, want > 0 (large requests should vector-dispatch)")
	}
	if vs.VMScalarReqs == 0 {
		t.Errorf("VMScalarReqs = 0, want > 0 (sub-MinVecTuples requests should fall back)")
	}
	if vs.VMPromotedReqs != 0 {
		t.Errorf("VMPromotedReqs = %d, want 0 (satadd is not a builtin shape)", vs.VMPromotedReqs)
	}
}

func TestUserOpLoopyProgramStaysScalar(t *testing.T) {
	// gcd's Euclid loop is irreducible control flow: every request —
	// large or not — must take the scalar interpreter, and still agree
	// with the forced-scalar server.
	vec, scal := dispatchPair(t, "gcd", combine.ExampleGCD)
	rng := rand.New(rand.NewSource(13))
	data := make([]int64, 1024)
	for i := range data {
		data[i] = rng.Int63n(1 << 30)
	}
	scanBoth(t, vec, scal, "user:gcd", "inclusive", "", data)
	vs := vec.Stats()
	if vs.VMVectorReqs != 0 || vs.VMPromotedReqs != 0 {
		t.Errorf("loopy op dispatched off-scalar: promoted=%d vector=%d", vs.VMPromotedReqs, vs.VMVectorReqs)
	}
	if vs.VMScalarReqs == 0 {
		t.Errorf("VMScalarReqs = 0, want > 0")
	}
}

func TestUserOpVectorStreamedMatchesOneShot(t *testing.T) {
	// Streamed chunks large enough to vector-dispatch: the seeded
	// ScanBlocked path (carry folded into lane 0's seed) must equal the
	// one-shot scan of the concatenation.
	ns := startNet(t, Config{MaxWait: 100 * time.Microsecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.RegisterOp(context.Background(), "", "satadd", combine.ExampleSatAdd); err != nil {
		t.Fatalf("RegisterOp: %v", err)
	}
	rng := rand.New(rand.NewSource(14))
	data := make([]int64, 2048)
	for i := range data {
		data[i] = rng.Int63() - rng.Int63()
	}
	for _, kind := range []string{"inclusive", "exclusive"} {
		oneShot, err := c.ScanCtx(context.Background(), "user:satadd", kind, "", data)
		if err != nil {
			t.Fatalf("one-shot: %v", err)
		}
		// 256-element chunks: every chunk clears MinVecTuples, so each
		// runs the blocked engine with a live stream carry.
		streamed, err := c.StreamScan(context.Background(), "user:satadd", kind, "", data, 256)
		if err != nil {
			t.Fatalf("StreamScan: %v", err)
		}
		if !reflect.DeepEqual(oneShot, streamed) {
			t.Fatalf("%s: streamed vector-dispatch scan diverged from one-shot", kind)
		}
	}
}

func TestUserOpWidth2ArgmaxVectorized(t *testing.T) {
	// A width-2 tuple op through the blocked engine: argmax compiles
	// (straight-line selects), so a large request vector-dispatches at
	// tuple stride and must match the forced-scalar baseline.
	vec, scal := dispatchPair(t, "argmax", combine.ExampleArgmax)
	rng := rand.New(rand.NewSource(15))
	data := make([]int64, 2*1024) // 1024 [value, index] pairs
	for i := 0; i < len(data); i += 2 {
		data[i] = rng.Int63n(1 << 40)
		data[i+1] = int64(i / 2)
	}
	for _, kind := range []string{"inclusive", "exclusive"} {
		for _, dir := range []string{"", "backward"} {
			scanBoth(t, vec, scal, "user:argmax", kind, dir, data)
		}
	}
	if vs := vec.Stats(); vs.VMVectorReqs == 0 {
		t.Errorf("VMVectorReqs = 0, want > 0 (width-2 requests should vector-dispatch)")
	}
}
