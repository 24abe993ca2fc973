package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scans/internal/combine"
)

// User combine ops end-to-end through the serving layer: registration
// over both codecs, scans addressed as "user:<name>", the typed failure
// vocabulary (bad_op, op_budget, op_hash, bad_request), and the
// VM-vs-native equivalence fuzz.

// gcdRef is the reference implementation of ExampleGCD's monoid:
// binary gcd on magnitudes, abs(MinInt64) taken as 1 (the program's
// documented wrap), identity 0 exact.
func gcdRef(a, b int64) int64 {
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

// scanRef computes the expected scan of data under an arbitrary scalar
// monoid, forward or backward, inclusive or exclusive.
func scanRef(data []int64, ident int64, f func(a, b int64) int64, kind Kind, dir Dir) []int64 {
	out := make([]int64, len(data))
	acc := ident
	if dir == Forward {
		for i, v := range data {
			if kind == Exclusive {
				out[i] = acc
				acc = f(acc, v)
			} else {
				acc = f(acc, v)
				out[i] = acc
			}
		}
	} else {
		for i := len(data) - 1; i >= 0; i-- {
			if kind == Exclusive {
				out[i] = acc
				acc = f(data[i], acc)
			} else {
				acc = f(data[i], acc)
				out[i] = acc
			}
		}
	}
	return out
}

func TestUserOpRegisterAndScanBothCodecs(t *testing.T) {
	ns := startNet(t, Config{MaxWait: 100 * time.Microsecond})
	data := []int64{60, 90, 42, -12, 600, 7, 30030, 0, 18}

	for _, proto := range []string{ProtoJSON, ProtoBin} {
		t.Run(proto, func(t *testing.T) {
			c, err := DialMaxLineProto(ns.Addr(), DefaultMaxLineBytes, proto)
			if err != nil {
				t.Fatalf("DialMaxLineProto(%s): %v", proto, err)
			}
			defer c.Close()
			tenant := "codec-" + proto

			hash, err := c.RegisterOp(context.Background(), tenant, "gcd", combine.ExampleGCD)
			if err != nil {
				t.Fatalf("RegisterOp: %v", err)
			}
			if hash == 0 {
				t.Fatal("RegisterOp returned zero hash")
			}

			for _, tc := range []struct {
				kind Kind
				dir  Dir
			}{{Inclusive, Forward}, {Exclusive, Forward}, {Inclusive, Backward}, {Exclusive, Backward}} {
				got, err := c.ScanPinned(context.Background(), "user:gcd", tc.kind.String(), tc.dir.String(), tenant, 0, data)
				if err != nil {
					t.Fatalf("user:gcd %s %s: %v", tc.kind, tc.dir, err)
				}
				want := scanRef(data, 0, gcdRef, tc.kind, tc.dir)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("user:gcd %s %s = %v, want %v", tc.kind, tc.dir, got, want)
				}
			}

			// The pinned form must accept the true hash and refuse a stale one.
			if _, err := c.ScanPinned(context.Background(), "user:gcd", "", "", tenant, hash, data); err != nil {
				t.Fatalf("ScanPinned with live hash: %v", err)
			}
			if _, err := c.ScanPinned(context.Background(), "user:gcd", "", "", tenant, hash+1, data); !errors.Is(err, ErrOpHash) {
				t.Fatalf("ScanPinned with stale hash = %v, want ErrOpHash", err)
			}
		})
	}
}

func TestUserOpStreamedMatchesOneShot(t *testing.T) {
	// A streamed user-op scan must equal the one-shot scan of the
	// concatenation: the stream carry is folded with the VM.
	ns := startNet(t, Config{MaxWait: 100 * time.Microsecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Streams run under the connection's default tenant; registering
	// with tenant "" on the same connection lands in the same bucket.
	if _, err := c.RegisterOp(context.Background(), "", "gcd", combine.ExampleGCD); err != nil {
		t.Fatalf("RegisterOp: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]int64, 257)
	for i := range data {
		data[i] = rng.Int63n(1 << 20)
	}
	for _, kind := range []string{"inclusive", "exclusive"} {
		oneShot, err := c.ScanCtx(context.Background(), "user:gcd", kind, "", data)
		if err != nil {
			t.Fatalf("one-shot: %v", err)
		}
		streamed, err := c.StreamScan(context.Background(), "user:gcd", kind, "", data, 31)
		if err != nil {
			t.Fatalf("StreamScan: %v", err)
		}
		if !reflect.DeepEqual(oneShot, streamed) {
			t.Fatalf("%s: streamed user-op scan diverged from one-shot", kind)
		}
	}
}

func TestUserOpNonAssociativeRejectedWithCounterexample(t *testing.T) {
	ns := startNet(t, Config{})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.RegisterOp(context.Background(), "t", "satadd-signed", combine.ExampleNonAssociative)
	if !errors.Is(err, ErrBadOp) {
		t.Fatalf("registering a non-associative op = %v, want ErrBadOp", err)
	}
	// The rejection must carry the concrete counterexample, not just a
	// verdict — the tenant needs the failing triple to debug the op.
	if msg := err.Error(); !strings.Contains(msg, "not associative") || !strings.Contains(msg, "x=") {
		t.Fatalf("rejection message lacks the counterexample: %q", msg)
	}
	// The connection survives a rejected registration.
	if _, err := c.Scan("sum", "", "", []int64{1, 2}); err != nil {
		t.Fatalf("scan after rejected register: %v", err)
	}
}

func TestUserOpTenantCapAndReRegistration(t *testing.T) {
	ns := startNet(t, Config{OpCap: 2})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	h1, err := c.RegisterOp(ctx, "capped", "gcd", combine.ExampleGCD)
	if err != nil {
		t.Fatalf("register gcd: %v", err)
	}
	if _, err := c.RegisterOp(ctx, "capped", "bor", combine.ExampleBitOr); err != nil {
		t.Fatalf("register bor: %v", err)
	}
	if _, err := c.RegisterOp(ctx, "capped", "band", combine.ExampleBitAnd); !errors.Is(err, ErrBadOp) {
		t.Fatalf("third op under cap 2 = %v, want ErrBadOp", err)
	}
	// Another tenant's budget is its own.
	if _, err := c.RegisterOp(ctx, "other", "band", combine.ExampleBitAnd); err != nil {
		t.Fatalf("register band for other tenant: %v", err)
	}

	// Re-registering an existing name replaces it (no cap slot consumed)
	// and changes the content hash; scans pinned to the old hash get the
	// typed op_hash answer.
	h2, err := c.RegisterOp(ctx, "capped", "gcd", combine.ExampleBitOr)
	if err != nil {
		t.Fatalf("re-register gcd: %v", err)
	}
	if h2 == h1 {
		t.Fatal("re-registration with different source kept the same hash")
	}
	if _, err := c.ScanPinned(ctx, "user:gcd", "", "", "capped", h1, []int64{1, 2}); !errors.Is(err, ErrOpHash) {
		t.Fatalf("scan pinned to pre-re-registration hash = %v, want ErrOpHash", err)
	}
	if _, err := c.ScanPinned(ctx, "user:gcd", "", "", "capped", h2, []int64{1, 2}); err != nil {
		t.Fatalf("scan pinned to live hash: %v", err)
	}
}

func TestUserOpUnknownIsBadRequestNotBadFrame(t *testing.T) {
	// An unknown "user:<name>" must be a REQUEST-level rejection on both
	// codecs: typed bad_request, connection intact. bad_frame would tear
	// the connection down (and on the binary codec close it).
	ns := startNet(t, Config{})
	for _, tc := range []struct {
		proto string
		op    string
	}{
		{ProtoJSON, "user:nosuch"},
		{ProtoJSON, "user:"},
		{ProtoBin, "user:nosuch"},
		{ProtoBin, "user:"},
	} {
		t.Run(tc.proto+"/"+tc.op, func(t *testing.T) {
			c, err := DialMaxLineProto(ns.Addr(), DefaultMaxLineBytes, tc.proto)
			if err != nil {
				t.Fatalf("DialMaxLineProto: %v", err)
			}
			defer c.Close()
			_, err = c.ScanPinned(context.Background(), tc.op, "", "", "t", 0, []int64{1, 2, 3})
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s scan of %q = %v, want ErrBadRequest", tc.proto, tc.op, err)
			}
			// The proof it was not framed as bad_frame: the same
			// connection still serves.
			if _, err := c.Scan("sum", "", "", []int64{1, 1}); err != nil {
				t.Fatalf("scan after unknown user op: %v", err)
			}
		})
	}
}

// spinOpSource loops forever when the left argument is 424242 —
// unreachable by the registration property tests (adversarial probes
// are 0/±1/min/max plus full-range randoms) but trivially reachable by
// a scan, so op_budget fires mid-batch on real data.
const spinOpSource = `
.width 1
.identity 0
	arga 0
	const 424242
	eq
	jnz spin
	arga 0
	argb 0
	add
	ret
spin:
	const 1
	jnz spin
`

func TestUserOpBudgetMidBatchIsolation(t *testing.T) {
	// One request whose data trips the op's step budget fails with the
	// typed op_budget error; concurrent requests fused into the same
	// batch group are served normally — per-request isolation, exactly
	// like a kernel panic.
	ns := startNet(t, Config{MaxWait: 2 * time.Millisecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.RegisterOp(ctx, "t", "spin", spinOpSource); err != nil {
		t.Fatalf("RegisterOp(spin): %v", err)
	}

	const good = 8
	var wg sync.WaitGroup
	errs := make([]error, good+1)
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := []int64{int64(i), 1, 2, 3}
			got, err := c.ScanPinned(ctx, "user:spin", "inclusive", "", "t", 0, data)
			if err != nil {
				errs[i] = err
				return
			}
			want := scanRef(data, 0, func(a, b int64) int64 { return a + b }, Inclusive, Forward)
			if !reflect.DeepEqual(got, want) {
				errs[i] = fmt.Errorf("got %v, want %v", got, want)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The budget trips when the accumulator (left argument) hits
		// 424242: 424242 then one more element to combine with.
		_, err := c.ScanPinned(ctx, "user:spin", "inclusive", "", "t", 0, []int64{424242, 1})
		if !errors.Is(err, ErrOpBudget) {
			errs[good] = fmt.Errorf("poisoned request = %v, want ErrOpBudget", err)
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The server survives and keeps serving the same op.
	if _, err := c.ScanPinned(ctx, "user:spin", "", "", "t", 0, []int64{5, 6}); err != nil {
		t.Fatalf("scan after budget trip: %v", err)
	}
}

func TestUserOpWidth2Argmax(t *testing.T) {
	// A 2-tuple monoid through the whole serving path: data is
	// [value, index] pairs, the scan's running tuple is the argmax so
	// far. Inclusive forward over pairs.
	ns := startNet(t, Config{MaxWait: 100 * time.Microsecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.RegisterOp(ctx, "t", "argmax", combine.ExampleArgmax); err != nil {
		t.Fatalf("RegisterOp(argmax): %v", err)
	}
	// pairs: (3,0) (9,1) (9,2) (4,3)  — 9 first seen at index 1 wins ties.
	data := []int64{3, 0, 9, 1, 9, 2, 4, 3}
	got, err := c.ScanPinned(ctx, "user:argmax", "inclusive", "", "t", 0, data)
	if err != nil {
		t.Fatalf("argmax scan: %v", err)
	}
	want := []int64{3, 0, 9, 1, 9, 1, 9, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("argmax scan = %v, want %v", got, want)
	}
	// An odd element count is not a whole number of tuples.
	if _, err := c.ScanPinned(ctx, "user:argmax", "", "", "t", 0, []int64{1, 2, 3}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ragged tuple scan = %v, want ErrBadRequest", err)
	}
}

// Bytecode twins of the builtin kernels, for the equivalence fuzz.
const (
	vmAddSource = ".width 1\n.identity 0\n\targa 0\n\targb 0\n\tadd\n"
	vmMaxSource = ".width 1\n.identity -9223372036854775808\n\targa 0\n\targb 0\n\tmax\n"
	vmMinSource = ".width 1\n.identity 9223372036854775807\n\targa 0\n\targb 0\n\tmin\n"
)

// FuzzVMMatchesNative pins the VM combine path to the native kernels:
// for every fuzzed vector, op, kind, and direction, a scan through the
// bytecode twin must be bit-identical to the builtin — including the
// carry algebra (the streamed half runs each input in chunks, which
// exercises seeded VM execution).
func FuzzVMMatchesNative(f *testing.F) {
	s := New(Config{MaxWait: 50 * time.Microsecond})
	defer s.Close()
	twins := map[Op]string{OpSum: "vmadd", OpMax: "vmmax", OpMin: "vmmin"}
	for op, name := range map[string]string{vmAddSource: "vmadd", vmMaxSource: "vmmax", vmMinSource: "vmmin"} {
		if _, err := s.RegisterScanOp("fuzz", name, op); err != nil {
			f.Fatalf("register %s: %v", name, err)
		}
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), uint8(0))
	f.Add([]byte{255, 0, 127, 128, 1}, uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, opSel, mode uint8) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		data := make([]int64, len(raw))
		for i, b := range raw {
			// Spread the bytes across the full range so max/min see
			// sign crossings and sum sees wraparound.
			data[i] = (int64(b) - 128) << (8 * (i % 8))
		}
		ops := []Op{OpSum, OpMax, OpMin}
		op := ops[int(opSel)%len(ops)]
		kind := Inclusive
		if mode&1 != 0 {
			kind = Exclusive
		}
		dir := Forward
		if mode&2 != 0 {
			dir = Backward
		}
		ctx := context.Background()
		native, err := s.Scan(ctx, Spec{Op: op, Kind: kind, Dir: dir}, data, "fuzz")
		if err != nil {
			t.Fatalf("native scan: %v", err)
		}
		userSpec, err := ParseSpec("user:"+twins[op], kind.String(), dir.String())
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		vm, err := s.Scan(ctx, userSpec, data, "fuzz")
		if err != nil {
			t.Fatalf("vm scan: %v", err)
		}
		if !reflect.DeepEqual(native, vm) {
			t.Fatalf("%s %s %s: VM diverged from native\n data=%v\n native=%v\n vm=%v",
				op, kind, dir, data, native, vm)
		}
	})
}
