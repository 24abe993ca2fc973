package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"scans/internal/combine"
	"scans/internal/scan"
	"scans/internal/serve"
)

// User combine ops through the coordinator: registration propagates to
// the fleet, scans run bit-identically across every path (single-node,
// cluster one-shot and streamed), and hash skew degrades to the push
// repair machinery instead of a wrong answer.

// gcdScanRef computes the reference gcd scan (ExampleGCD's monoid:
// gcd on magnitudes, abs(MinInt64)=1, identity 0).
func gcdScanRef(data []int64, kind serve.Kind, dir serve.Dir) []int64 {
	gcd := func(a, b int64) int64 {
		abs := func(x int64) int64 {
			if x == -1<<63 {
				return 1
			}
			if x < 0 {
				return -x
			}
			return x
		}
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
		x, y := abs(a), abs(b)
		for y != 0 {
			x, y = y, x%y
		}
		return x
	}
	out := make([]int64, len(data))
	var acc int64
	if dir == serve.Forward {
		for i, v := range data {
			if kind == serve.Exclusive {
				out[i] = acc
				acc = gcd(acc, v)
			} else {
				acc = gcd(acc, v)
				out[i] = acc
			}
		}
	} else {
		for i := len(data) - 1; i >= 0; i-- {
			if kind == serve.Exclusive {
				out[i] = acc
				acc = gcd(data[i], acc)
			} else {
				acc = gcd(data[i], acc)
				out[i] = acc
			}
		}
	}
	return out
}

func gcdTestData(n int) []int64 {
	data := make([]int64, n)
	for i := range data {
		// Products of small primes so running gcds stay interesting
		// instead of collapsing to 1 immediately.
		data[i] = int64((i%7+1)*30) * int64(i%11+1)
		if i%13 == 0 {
			data[i] = -data[i]
		}
	}
	return data
}

// satAddScanRef computes the reference scan of ExampleSatAdd's monoid
// (saturating add over uint64 words, identity 0).
func satAddScanRef(data []int64, spec serve.Spec) []int64 {
	return directSegFunc(scan.Func[int64]{F: func(a, b int64) int64 {
		if s := uint64(a) + uint64(b); s >= uint64(a) {
			return int64(s)
		}
		return -1
	}}, spec, data, nil)
}

func TestClusterUserOpCrossPathBitIdentical(t *testing.T) {
	// The acceptance matrix: registered monoids, one input vector each,
	// every serving path — single-node, cluster, and streamed through
	// the coordinator — answers the same bits. gcd never compiles, so
	// every carry walks Exec; satadd compiles, so 500-element shards
	// take their carries on the vector engine.
	workers := startWorkers(t, 3, serve.Config{MaxWait: 100 * time.Microsecond})
	star := newCoord(t, Config{Workers: workers, MinShardElems: 64, DataPlane: DataPlaneStar})

	single := serve.New(serve.Config{MaxWait: 100 * time.Microsecond})
	defer single.Close()
	satData := make([]int64, 1500)
	for i := range satData {
		satData[i] = int64(i%97) << 20
	}
	ops := []struct {
		name, source string
		data         []int64
		ref          func(data []int64, spec serve.Spec) []int64
	}{
		{"gcd", combine.ExampleGCD, gcdTestData(1500), func(data []int64, spec serve.Spec) []int64 {
			return gcdScanRef(data, spec.Kind, spec.Dir)
		}},
		{"satadd", combine.ExampleSatAdd, satData, satAddScanRef},
	}
	for _, op := range ops {
		if _, err := single.RegisterScanOp("t", op.name, op.source); err != nil {
			t.Fatalf("single-node register %s: %v", op.name, err)
		}
		if _, err := star.RegisterScanOp("t", op.name, op.source); err != nil {
			t.Fatalf("coordinator register %s: %v", op.name, err)
		}
	}

	ctx := context.Background()
	for _, op := range ops {
		data := op.data
		for _, kind := range []serve.Kind{serve.Inclusive, serve.Exclusive} {
			for _, dir := range []serve.Dir{serve.Forward, serve.Backward} {
				spec, err := serve.ParseSpec("user:"+op.name, kind.String(), dir.String())
				if err != nil {
					t.Fatalf("ParseSpec: %v", err)
				}
				want := op.ref(data, spec)

				got, err := single.Scan(ctx, spec, data, "t")
				if err != nil {
					t.Fatalf("%s single-node %s %s: %v", op.name, kind, dir, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s single-node %s %s diverged from reference", op.name, kind, dir)
				}
				got, err = star.Scan(ctx, spec, data, "t")
				if err != nil {
					t.Fatalf("%s cluster %s %s: %v", op.name, kind, dir, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cluster %s %s diverged from single-node", op.name, kind, dir)
				}

				if dir == serve.Forward {
					// Streamed: same vector in 7 chunks through the
					// coordinator's session carry.
					st, err := star.OpenScanStream(spec, "t")
					if err != nil {
						t.Fatalf("OpenScanStream: %v", err)
					}
					var streamed []int64
					chunk := 229
					for off := 0; off < len(data); off += chunk {
						end := off + chunk
						if end > len(data) {
							end = len(data)
						}
						res, err := st.Push(ctx, data[off:end])
						if err != nil {
							t.Fatalf("Push: %v", err)
						}
						streamed = append(streamed, res...)
					}
					if _, err := st.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					if !reflect.DeepEqual(streamed, want) {
						t.Fatalf("%s streamed %s diverged from one-shot", op.name, kind)
					}
				}
			}
		}
	}

	// The coordinator pushed the op.
	st := star.Stats()
	if st.OpRegisters != uint64(len(ops)) || st.OpPushes == 0 {
		t.Fatalf("op ledger: registers=%d pushes=%d, want %d and >0", st.OpRegisters, st.OpPushes, len(ops))
	}
}

func TestClusterUserOpHashSkewRepairs(t *testing.T) {
	// A worker whose registration drifts (re-registered behind the
	// coordinator's back) answers op_hash to pinned pieces. The piece's
	// push-and-retry must repair the worker — the scan still answers the
	// right bits, after one more push than registration made.
	workers := startWorkers(t, 2, serve.Config{MaxWait: 100 * time.Microsecond})
	c := newCoord(t, Config{Workers: workers, MinShardElems: 64})
	if _, err := c.RegisterScanOp("t", "gcd", combine.ExampleGCD); err != nil {
		t.Fatalf("register: %v", err)
	}
	pushed := c.Stats().OpPushes

	// Corrupt worker 0: same tenant, same name, different program.
	wcli, err := serve.Dial(workers[0])
	if err != nil {
		t.Fatalf("dial worker: %v", err)
	}
	defer wcli.Close()
	if _, err := wcli.RegisterOp(context.Background(), "t", "gcd", combine.ExampleBitOr); err != nil {
		t.Fatalf("corrupting register: %v", err)
	}

	data := gcdTestData(1200)
	spec, err := serve.ParseSpec("user:gcd", "", "")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	got, err := c.Scan(context.Background(), spec, data, "t")
	if err != nil {
		t.Fatalf("Scan across hash skew: %v", err)
	}
	if want := gcdScanRef(data, serve.Exclusive, serve.Forward); !reflect.DeepEqual(got, want) {
		t.Fatal("scan across hash skew returned wrong bits")
	}
	if st := c.Stats(); st.OpPushes <= pushed {
		t.Fatalf("expected a repair push beyond registration's %d, stats: %s", pushed, st)
	}
}

func TestClusterUserOpUnknownAndWidthLimits(t *testing.T) {
	workers := startWorkers(t, 2, serve.Config{MaxWait: 100 * time.Microsecond})
	c := newCoord(t, Config{Workers: workers, MinShardElems: 64, MaxPieceElems: 4096})
	ctx := context.Background()

	// Unknown user op: typed bad_request at admission, nothing dispatched.
	spec, err := serve.ParseSpec("user:nosuch", "", "")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := c.Scan(ctx, spec, []int64{1, 2}, "t"); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("unknown user op = %v, want ErrBadRequest", err)
	}

	if _, err := c.RegisterScanOp("t", "argmax", combine.ExampleArgmax); err != nil {
		t.Fatalf("register argmax: %v", err)
	}
	am, err := serve.ParseSpec("user:argmax", "inclusive", "")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}

	// A wide op dispatches as one piece and answers correctly.
	data := []int64{3, 0, 9, 1, 9, 2, 4, 3}
	got, err := c.Scan(ctx, am, data, "t")
	if err != nil {
		t.Fatalf("argmax via cluster: %v", err)
	}
	if want := []int64{3, 0, 9, 1, 9, 1, 9, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("argmax via cluster = %v, want %v", got, want)
	}

	// The three wide-op admission limits, each a typed bad_request.
	if _, err := c.Scan(ctx, am, []int64{1, 2, 3}, "t"); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("ragged tuple count = %v, want ErrBadRequest", err)
	}
	if _, err := c.ScanSegmented(ctx, am, data, make([]bool, len(data)), "t"); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("segmented wide op = %v, want ErrBadRequest", err)
	}
	big := make([]int64, 4098)
	if _, err := c.Scan(ctx, am, big, "t"); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("oversized wide op = %v, want ErrBadRequest", err)
	}

	// Wide ops cannot stream (the carry is one scalar).
	if _, err := c.OpenScanStream(am, "t"); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("wide stream open = %v, want ErrBadRequest", err)
	}

	// Non-associative registration is rejected at the coordinator with
	// the counterexample; nothing reaches the workers.
	if _, err := c.RegisterScanOp("t", "bad", combine.ExampleNonAssociative); !errors.Is(err, serve.ErrBadOp) {
		t.Fatalf("non-associative register = %v, want ErrBadOp", err)
	}
	if st := c.Stats(); st.OpRejects != 1 {
		t.Fatalf("OpRejects = %d, want 1", st.OpRejects)
	}
}

func TestClusterUserOpSegmentedMatchesReference(t *testing.T) {
	// Scalar user ops keep full segmented-scan generality on the
	// cluster: flags cut pieces and reset carries exactly like builtins.
	workers := startWorkers(t, 3, serve.Config{MaxWait: 100 * time.Microsecond})
	c := newCoord(t, Config{Workers: workers, MinShardElems: 32})
	if _, err := c.RegisterScanOp("t", "gcd", combine.ExampleGCD); err != nil {
		t.Fatalf("register: %v", err)
	}
	data := gcdTestData(900)
	flags := make([]bool, len(data))
	for i := range flags {
		flags[i] = i%97 == 13
	}
	spec, err := serve.ParseSpec("user:gcd", "inclusive", "")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	got, err := c.ScanSegmented(context.Background(), spec, data, flags, "t")
	if err != nil {
		t.Fatalf("ScanSegmented: %v", err)
	}
	// Reference: restart the gcd scan at every flag.
	want := make([]int64, len(data))
	seg := 0
	for i := seg; i < len(data); i++ {
		if flags[i] {
			copy(want[seg:i], gcdScanRef(data[seg:i], serve.Inclusive, serve.Forward))
			seg = i
		}
	}
	copy(want[seg:], gcdScanRef(data[seg:], serve.Inclusive, serve.Forward))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("segmented cluster gcd diverged from reference")
	}
}

// TestClusterCarrySideNonCommutative pins which side each piece's carry
// is combined on. Last non-zero (b != 0 ? b : a, identity 0) does not
// commute, so a carry combined on the wrong side changes the answer
// wherever a piece's own prefix is non-zero. The op is registered in a
// form the vector engine runs and in a branchy form that walks Exec.
// Two workers and 40-element pieces give every 200-element scan at
// least five pieces; sparse non-zeros leave runs of zeros across piece
// boundaries, so carries matter. Every kind × dir runs unsegmented and
// segmented (heads inside pieces and on piece and shard boundaries),
// and the forward specs also run streamed in 130-element chunks.
func TestClusterCarrySideNonCommutative(t *testing.T) {
	workers := startWorkers(t, 2, serve.Config{MaxWait: 100 * time.Microsecond})
	c := newCoord(t, Config{Workers: workers, MinShardElems: 8, MaxPieceElems: 40})
	ops := map[string]string{
		"lastnz": `
.width 1
.identity 0
	argb 0
	arga 0
	argb 0
	select
`,
		"lastnz_br": `
.width 1
.identity 0
	argb 0
	jnz useb
	arga 0
	ret
useb:
	argb 0
`,
	}
	ref := scan.Func[int64]{F: func(a, b int64) int64 {
		if b != 0 {
			return b
		}
		return a
	}}
	data := make([]int64, 200)
	for i := range data {
		if i%37 == 5 || i%23 == 11 {
			data[i] = int64(i + 1)
		}
	}
	flags := make([]bool, len(data))
	for _, h := range []int{40, 57, 100, 163} {
		flags[h] = true
	}
	ctx := context.Background()
	for name, src := range ops {
		if _, err := c.RegisterScanOp("t", name, src); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		for _, kind := range []serve.Kind{serve.Inclusive, serve.Exclusive} {
			for _, dir := range []serve.Dir{serve.Forward, serve.Backward} {
				spec, err := serve.ParseSpec("user:"+name, kind.String(), dir.String())
				if err != nil {
					t.Fatalf("ParseSpec: %v", err)
				}
				for _, fl := range [][]bool{nil, flags} {
					got, err := c.ScanSegmented(ctx, spec, data, fl, "t")
					if err != nil {
						t.Fatalf("%s %s %s segmented=%v: %v", name, kind, dir, fl != nil, err)
					}
					if want := directSegFunc(ref, spec, data, fl); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s %s segmented=%v:\n got %v\nwant %v", name, kind, dir, fl != nil, got, want)
					}
				}
				if dir == serve.Backward {
					continue
				}
				st, err := c.OpenScanStream(spec, "t")
				if err != nil {
					t.Fatalf("OpenScanStream: %v", err)
				}
				var streamed []int64
				for off := 0; off < len(data); off += 130 {
					res, err := st.Push(ctx, data[off:min(off+130, len(data))])
					if err != nil {
						t.Fatalf("%s %s Push: %v", name, kind, err)
					}
					streamed = append(streamed, res...)
				}
				if _, err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if want := directSegFunc(ref, spec, data, nil); !reflect.DeepEqual(streamed, want) {
					t.Fatalf("%s %s streamed:\n got %v\nwant %v", name, kind, streamed, want)
				}
			}
		}
	}
	if st := c.Stats(); st.Pieces < 3*st.Requests {
		t.Fatalf("%d pieces for %d requests: fewer than three per scan", st.Pieces, st.Requests)
	}
}
