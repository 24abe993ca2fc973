package combine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// mustExec runs combine(a, b) for width-1 programs, failing the test
// on any VM fault.
func mustExec(t *testing.T, p *Program, a, b int64) int64 {
	t.Helper()
	var fr Frame
	r, err := p.ExecScalar(&fr, a, b)
	if err != nil {
		t.Fatalf("exec(%d, %d): %v", a, b, err)
	}
	return r
}

func TestExamplesValidate(t *testing.T) {
	for name, src := range Examples {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := Validate(p); err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
	}
}

func refGCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestGCDMatchesReference(t *testing.T) {
	p := MustParse(ExampleGCD)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := rng.Int63n(1 << 40)
		b := rng.Int63n(1 << 40)
		if got, want := mustExec(t, p, a, b), int64(refGCD(uint64(a), uint64(b))); got != want {
			t.Fatalf("gcd(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	// Exact identity, sign preserved.
	for _, v := range []int64{-7, 7, 0, -1 << 62, minInt64} {
		if got := mustExec(t, p, v, 0); got != v {
			t.Fatalf("gcd(%d, 0) = %d, want %d", v, got, v)
		}
		if got := mustExec(t, p, 0, v); got != v {
			t.Fatalf("gcd(0, %d) = %d, want %d", v, got, v)
		}
	}
	// Negative magnitudes.
	if got := mustExec(t, p, -6, 4); got != 2 {
		t.Fatalf("gcd(-6, 4) = %d, want 2", got)
	}
}

func TestSatAddMatchesReference(t *testing.T) {
	p := MustParse(ExampleSatAdd)
	rng := rand.New(rand.NewSource(2))
	sat := func(a, b uint64) uint64 {
		if s := a + b; s >= a {
			return s
		}
		return ^uint64(0)
	}
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := uint64(mustExec(t, p, int64(a), int64(b))), sat(a, b); got != want {
			t.Fatalf("satadd(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestArgmaxCombine(t *testing.T) {
	p := MustParse(ExampleArgmax)
	var fr Frame
	combine := func(a, b [2]int64) [2]int64 {
		var out [2]int64
		if err := p.Exec(&fr, out[:], a[:], b[:]); err != nil {
			t.Fatalf("exec: %v", err)
		}
		return out
	}
	if got := combine([2]int64{5, 0}, [2]int64{9, 1}); got != [2]int64{9, 1} {
		t.Fatalf("argmax picked %v", got)
	}
	if got := combine([2]int64{9, 3}, [2]int64{9, 1}); got != [2]int64{9, 1} {
		t.Fatalf("tie should pick the smaller index, got %v", got)
	}
	if got := combine([2]int64{9, 1}, [2]int64{9, 3}); got != [2]int64{9, 1} {
		t.Fatalf("tie should pick the smaller index, got %v", got)
	}
}

func TestNonAssociativeRejectedWithCounterexample(t *testing.T) {
	p, err := Parse(ExampleNonAssociative)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	err = Validate(p)
	if err == nil {
		t.Fatal("signed saturating add validated; it is not associative")
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("rejection not typed ErrRejected: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "not associative") || !strings.Contains(msg, "x=") {
		t.Fatalf("rejection lacks a counterexample: %v", err)
	}
}

func TestBadIdentityRejected(t *testing.T) {
	// max with identity 0: f(0, -5) = 0 != -5.
	err := Validate(MustParse(".width 1\n.identity 0\narga 0\nargb 0\nmax\n"))
	if err == nil || !strings.Contains(err.Error(), "identity fails") {
		t.Fatalf("want identity rejection, got %v", err)
	}
}

func TestRunawayLoopRejectedByBudget(t *testing.T) {
	err := Validate(MustParse(".width 1\n.identity 0\nspin:\njmp spin\n"))
	if err == nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("want budget rejection, got %v", err)
	}
}

func TestStackFaultsRejected(t *testing.T) {
	for _, src := range []string{
		".width 1\n.identity 0\nadd\n",                        // underflow
		".width 1\n.identity 0\narga 0\n\targa 0\nadd\ndup\n", // leaves 2 values
	} {
		p, err := Parse(src)
		if err != nil {
			continue // static rejection is fine too
		}
		if err := Validate(p); err == nil {
			t.Fatalf("program %q validated", src)
		}
	}
}

func TestParseErrorsCarryLine(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"bogus\n", "line 1"},
		{".width 9\n", "line 1"},
		{"arga 0\njmp nowhere\n", "line 2"},
		{"arga 0\narga 5\n", "field 5 out of range"},
	} {
		if _, err := Parse(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Parse(%q) = %v, want mention of %q", tc.src, err, tc.want)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for name, src := range Examples {
		p := MustParse(src)
		p2, err := Parse(p.Format())
		if err != nil {
			t.Fatalf("%s: reparse of Format: %v", name, err)
		}
		if HashProgram(p) != HashProgram(p2) {
			t.Fatalf("%s: Format round-trip changed the content hash", name)
		}
	}
}

func TestHashIgnoresFormatting(t *testing.T) {
	a := MustParse(".width 1\n.identity 0\narga 0\nargb 0\nor\n")
	b := MustParse("; comment\n.width 1\n.identity 0\n  arga 0 ; x\n  argb 0\n  or\n")
	c := MustParse(".width 1\n.identity 0\narga 0\nargb 0\nand\n")
	if HashProgram(a) != HashProgram(b) {
		t.Fatal("formatting changed the hash")
	}
	if HashProgram(a) == HashProgram(c) {
		t.Fatal("different programs share a hash")
	}
}

func TestExecAllocFree(t *testing.T) {
	p := MustParse(ExampleGCD)
	var fr Frame
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.ExecScalar(&fr, 123456, 7890); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecScalar allocates %.1f times per call, want 0", allocs)
	}
}

func TestRegistryCapAndReRegistration(t *testing.T) {
	rg := NewRegistry(2)
	if _, err := rg.Register("t1", "a", ExampleBitOr); err != nil {
		t.Fatal(err)
	}
	r1, err := rg.Register("t1", "b", ExampleBitOr)
	if err != nil {
		t.Fatal(err)
	}
	// Cap reached: a third NAME is rejected...
	if _, err := rg.Register("t1", "c", ExampleBitOr); err == nil || !errors.Is(err, ErrRejected) {
		t.Fatalf("want cap rejection, got %v", err)
	}
	// ...but re-registering an existing name is not counted against it.
	r2, err := rg.Register("t1", "b", ExampleBitOr)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("idempotent re-registration should return the installed op")
	}
	// A different program under the same name replaces it (new hash).
	r3, err := rg.Register("t1", "b", ExampleBitAnd)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 || r3.Hash == r1.Hash {
		t.Fatal("replacement should install a new Registered with a new hash")
	}
	if got := rg.Lookup("t1", "b"); got != r3 {
		t.Fatalf("lookup returned %v", got)
	}
	// Other tenants have their own namespace and cap.
	if _, err := rg.Register("t2", "a", ExampleBitAnd); err != nil {
		t.Fatal(err)
	}
	if rg.Lookup("t2", "a").Hash == rg.Lookup("t1", "a").Hash {
		t.Fatal("t2's op should be its own registration")
	}
	if rg.Lookup("t2", "b") != nil {
		t.Fatal("tenant namespaces leaked")
	}
}

func TestRegistryBadNames(t *testing.T) {
	rg := NewRegistry(0)
	for _, name := range []string{"", "UPPER", "sp ace", "x/y", strings.Repeat("a", 65)} {
		if _, err := rg.Register("t", name, ExampleBitOr); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}
