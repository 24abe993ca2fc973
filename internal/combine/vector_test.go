package combine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// vectorizable lists the golden examples CompileVec must handle and
// what dispatch class each lands in; gcd's loop is the deliberate
// scalar-fallback representative.
var exampleClasses = map[string]string{
	"add":    "native",
	"bor":    "vector",
	"band":   "vector",
	"satadd": "vector",
	"argmax": "vector",
	"gcd":    "scalar",
}

func mustProg(t testing.TB, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestExampleDispatchClasses(t *testing.T) {
	for name, want := range exampleClasses {
		p := mustProg(t, Examples[name])
		if got := DispatchClass(p); got != want {
			t.Errorf("%s: dispatch class = %q, want %q", name, got, want)
		}
	}
}

// edgeVals are the inputs where overflow/division/saturation bugs live.
var edgeVals = []int64{0, 1, -1, 2, -2, 7, minInt64, minInt64 + 1, maxInt64, maxInt64 - 1}

// fillTuples writes nt random-ish tuples of width w, biased toward
// edge values.
func fillTuples(rng *rand.Rand, buf []int64) {
	for i := range buf {
		switch rng.Intn(3) {
		case 0:
			buf[i] = edgeVals[rng.Intn(len(edgeVals))]
		case 1:
			buf[i] = int64(rng.Intn(201)) - 100
		default:
			buf[i] = rng.Int63() - rng.Int63()
		}
	}
}

// checkRunMatchesExec drives the plan across a block of lanes and
// demands bit-identity with per-pair scalar Exec — and that scalar Exec
// cannot fail on a compiled program (the safety property the budget
// semantics rest on).
func checkRunMatchesExec(t *testing.T, name string, p *Program, vp *VecPlan, rng *rand.Rand, nl int) {
	t.Helper()
	w := p.Width
	a := make([]int64, nl*w)
	b := make([]int64, nl*w)
	got := make([]int64, nl*w)
	want := make([]int64, nl*w)
	fillTuples(rng, a)
	fillTuples(rng, b)
	sc := NewVecScratch()
	vp.Run(sc, nl, got, w, a, w, b, w)
	var fr Frame
	for l := 0; l < nl; l++ {
		if err := p.Exec(&fr, want[l*w:(l+1)*w], a[l*w:(l+1)*w], b[l*w:(l+1)*w]); err != nil {
			t.Fatalf("%s: scalar Exec failed on a COMPILED program (lane %d): %v", name, l, err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			l := i / w
			t.Fatalf("%s: lane %d field %d: vector %d != scalar %d (a=%v b=%v)",
				name, l, i%w, got[i], want[i], a[l*w:(l+1)*w], b[l*w:(l+1)*w])
		}
	}
}

func TestVectorExamplesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, class := range exampleClasses {
		p := mustProg(t, Examples[name])
		vp := CompileVec(p)
		if class == "scalar" {
			if vp != nil {
				t.Errorf("%s: expected scalar fallback, got a plan", name)
			}
			continue
		}
		if vp == nil {
			t.Fatalf("%s: CompileVec returned nil", name)
		}
		for _, nl := range []int{1, 2, 7, LaneBlock} {
			for trial := 0; trial < 20; trial++ {
				checkRunMatchesExec(t, name, p, vp, rng, nl)
			}
		}
	}
}

// scanSerialRef is the reference walk, one Exec per tuple with the
// driver's semantics (forward folds combine(acc, el); backward folds
// combine(el, acc) from the tail; exclusive emits before the fold,
// inclusive after).
func scanSerialRef(t testing.TB, p *Program, dst, src []int64, inclusive, backward bool, carry int64, seeded bool) {
	t.Helper()
	w := p.Width
	var fr Frame
	var acc [MaxWidth]int64
	copy(acc[:w], p.Identity)
	if seeded {
		acc[0] = carry
	}
	nt := len(src) / w
	step := func(k int) {
		el := src[k*w : (k+1)*w]
		emit := func() { copy(dst[k*w:(k+1)*w], acc[:w]) }
		fold := func() {
			var err error
			if backward {
				err = p.Exec(&fr, acc[:w], el, acc[:w])
			} else {
				err = p.Exec(&fr, acc[:w], acc[:w], el)
			}
			if err != nil {
				t.Fatalf("reference Exec failed: %v", err)
			}
		}
		if inclusive {
			fold()
			emit()
		} else {
			emit()
			fold()
		}
	}
	if backward {
		for k := nt - 1; k >= 0; k-- {
			step(k)
		}
	} else {
		for k := 0; k < nt; k++ {
			step(k)
		}
	}
}

// TestScanBlockedMatchesSerial pins every entry point of the driver —
// ScanBlocked, Registered.Scan with and without the forced one-lane
// walk, and Registered.Carry on both sides — to the serial reference,
// for every example op (gcd included: it only ever walks one lane), at
// sizes on both sides of MinVecTuples, LaneBlock, and the lane-length
// floor; and a budget-tripping op to ErrBudget through Scan and Carry.
func TestScanBlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int{0, 1, 3, MinVecTuples - 1, MinVecTuples, MinVecTuples + 1, 100,
		LaneBlock - 1, LaneBlock, LaneBlock + 1, 1000, 4096, 4097,
		minVecChunk * LaneBlock, minVecChunk*LaneBlock + 1}
	for name := range exampleClasses {
		p := mustProg(t, Examples[name])
		vp := CompileVec(p)
		reg := &Registered{Name: name, Prog: p}
		w := p.Width
		sc := NewVecScratch()
		for _, nt := range sizes {
			src := make([]int64, nt*w)
			fillTuples(rng, src)
			same := func(what string, got, want []int64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s nt=%d %s: tuple %d field %d: got %d, serial %d",
							name, nt, what, i/w, i%w, got[i], want[i])
					}
				}
			}

			if w == 1 {
				// Carry on either side: carry ⊗ src[k], src[k] ⊗ carry.
				carry := rng.Int63() - rng.Int63()
				var fr Frame
				for _, right := range []bool{false, true} {
					want := make([]int64, nt)
					for k := range want {
						a, b := []int64{carry}, src[k:k+1]
						if right {
							a, b = b, a
						}
						if err := p.Exec(&fr, want[k:k+1], a, b); err != nil {
							t.Fatalf("%s: reference carry: %v", name, err)
						}
					}
					got := append([]int64(nil), src...)
					if err := reg.Carry(sc, got, carry, right); err != nil {
						t.Fatalf("%s nt=%d: Carry(right=%v): %v", name, nt, right, err)
					}
					same(fmt.Sprintf("Carry(right=%v)", right), got, want)
				}
			}

			for _, inclusive := range []bool{false, true} {
				for _, backward := range []bool{false, true} {
					for _, seeded := range []bool{false, true} {
						if seeded && w != 1 {
							continue // seeding is width-1 only (admission-enforced)
						}
						carry := int64(0)
						if seeded {
							carry = rng.Int63() - rng.Int63()
						}
						what := fmt.Sprintf("incl=%v back=%v seeded=%v", inclusive, backward, seeded)
						want := make([]int64, nt*w)
						scanSerialRef(t, p, want, src, inclusive, backward, carry, seeded)
						got := make([]int64, nt*w)
						if vp != nil {
							if err := vp.ScanBlocked(sc, p, got, src, inclusive, backward, carry, seeded); err != nil {
								t.Fatalf("%s nt=%d: ScanBlocked: %v", name, nt, err)
							}
							same(what+" ScanBlocked", got, want)
						}
						for _, scalar := range []bool{false, true} {
							clear(got)
							vec, err := reg.Scan(sc, got, src, inclusive, backward, carry, seeded, scalar)
							if err != nil {
								t.Fatalf("%s nt=%d: Scan(scalar=%v): %v", name, nt, scalar, err)
							}
							if wantVec := vp != nil && !scalar && nt >= MinVecTuples; vec != wantVec {
								t.Fatalf("%s nt=%d scalar=%v: vectorized=%v, want %v", name, nt, scalar, vec, wantVec)
							}
							same(fmt.Sprintf("%s Scan(scalar=%v)", what, scalar), got, want)
						}
					}
				}
			}
		}
	}

	// An op whose loop runs away on one input (serve's spin op, out of
	// the registration probes' reach) never compiles, so the one-lane
	// walk meets that input: Scan and Carry both return ErrBudget,
	// either direction, at vector-eligible sizes too.
	spin := &Registered{Name: "spin", Prog: mustProg(t, `
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
`)}
	sc := NewVecScratch()
	for _, nt := range []int{2, MinVecTuples, LaneBlock + 1} {
		src := make([]int64, nt)
		for i := range src {
			src[i] = 1
		}
		// 424242 becomes a left argument either way: walking from the
		// head it is the accumulator after one step (acc ⊗ el); walking
		// from the tail it is the last element (el ⊗ acc).
		src[0] = 424242
		dst := make([]int64, nt)
		for _, backward := range []bool{false, true} {
			if _, err := spin.Scan(sc, dst, src, false, backward, 0, false, false); !errors.Is(err, ErrBudget) {
				t.Errorf("spin nt=%d backward=%v: Scan err = %v, want ErrBudget", nt, backward, err)
			}
		}
		// Carry meets 424242 as its left argument: the carry itself on
		// the left, src[0] when the carry goes on the right.
		for _, right := range []bool{false, true} {
			copy(dst, src)
			carry := int64(1)
			if !right {
				carry = 424242
			}
			if err := spin.Carry(sc, dst, carry, right); !errors.Is(err, ErrBudget) {
				t.Errorf("spin nt=%d right=%v: Carry err = %v, want ErrBudget", nt, right, err)
			}
		}
	}
}

func TestSuperinstructionFusion(t *testing.T) {
	// The canonical push/push/arith shape must fuse to exactly ONE
	// vector instruction reading both args from the strided inputs.
	for _, name := range []string{"add", "bor", "band"} {
		vp := CompileVec(mustProg(t, Examples[name]))
		if vp == nil {
			t.Fatalf("%s: nil plan", name)
		}
		if vp.NumInstr() != 1 {
			t.Errorf("%s: %d instructions after fusion, want 1", name, vp.NumInstr())
		}
	}
	// Operand-order and stack shuffles canonicalize away entirely.
	shuffled := mustProg(t, ".width 1\n.identity 0\n\targb 0\n\targa 0\n\tswap\n\tadd\n\tret\n")
	vp := CompileVec(shuffled)
	if vp == nil || vp.NumInstr() != 1 {
		t.Fatalf("shuffled add: plan %+v, want single fused instruction", vp)
	}
	if vp.Promotion() != PromoteAdd {
		t.Errorf("shuffled add: promotion %v, want add", vp.Promotion())
	}
	// A multi-use argument load stays materialized (one strided read),
	// so fusion must not duplicate it into both consumers: a²+b² keeps
	// its two movs (each feeds a dup'd square) plus three fused ops.
	multi := mustProg(t, ".width 1\n.identity 0\n\targa 0\n\tdup\n\tmul\n\targb 0\n\tdup\n\tmul\n\tadd\n")
	mp := CompileVec(multi)
	if mp == nil {
		t.Fatal("multi-use program: nil plan")
	}
	if mp.NumInstr() != 5 {
		t.Errorf("multi-use program: %d instructions, want 5 (2 materialized movs + 3 ops)", mp.NumInstr())
	}
}

func TestPromotionDetection(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want Promotion
	}{
		{"add", ExampleAdd, PromoteAdd},
		{"add-swapped", ".width 1\n.identity 0\n\targb 0\n\targa 0\n\tadd\n", PromoteAdd},
		{"mul", ".width 1\n.identity 1\n\targa 0\n\targb 0\n\tmul\n", PromoteMul},
		{"max", ".width 1\n.identity -9223372036854775808\n\targa 0\n\targb 0\n\tmax\n", PromoteMax},
		{"min", ".width 1\n.identity 9223372036854775807\n\targa 0\n\targb 0\n\tmin\n", PromoteMin},
		{"or-not-native", ExampleBitOr, PromoteNone},
		{"add-wrong-identity", ".width 1\n.identity 1\n\targa 0\n\targb 0\n\tadd\n", PromoteNone},
		{"sub-not-monoid-shape", ".width 1\n.identity 0\n\targa 0\n\targb 0\n\tsub\n", PromoteNone},
		{"max-wrong-identity", ".width 1\n.identity 0\n\targa 0\n\targb 0\n\tmax\n", PromoteNone},
	}
	for _, tc := range cases {
		vp := CompileVec(mustProg(t, tc.src))
		if vp == nil {
			t.Fatalf("%s: nil plan", tc.name)
		}
		if vp.Promotion() != tc.want {
			t.Errorf("%s: promotion %v, want %v", tc.name, vp.Promotion(), tc.want)
		}
	}
}

// fuzzBuildProgram derives a structurally-valid random program from
// fuzz bytes: clamped immediates, jump targets folded into range.
// Backward jumps survive (they exercise the scalar-fallback decision);
// stack discipline is NOT enforced — CompileVec must reject the bad
// ones itself by returning nil.
func fuzzBuildProgram(data []byte) *Program {
	if len(data) < 8 {
		return nil
	}
	w := int(data[0])%MaxWidth + 1
	nins := int(data[1])%48 + 1
	p := &Program{Width: w, Identity: make([]int64, w)}
	pos := 2
	next := func() byte {
		if pos >= len(data) {
			pos = 2 // wrap: short inputs still yield full programs
		}
		b := data[pos]
		pos++
		return b
	}
	for i := 0; i < w; i++ {
		p.Identity[i] = edgeVals[int(next())%len(edgeVals)]
	}
	for i := 0; i < nins; i++ {
		op := OpCode(next()) % opCodeCount
		in := Instr{Op: op}
		if op.hasImm() {
			raw := int64(next())
			switch op {
			case OpArgA, OpArgB:
				in.Imm = raw % int64(w)
			case OpLoad, OpStore:
				in.Imm = raw % LocalCap
			case OpPick:
				in.Imm = raw % StackCap
			case OpJmp, OpJz, OpJnz:
				in.Imm = raw % int64(nins+1)
			default: // OpConst
				in.Imm = edgeVals[int(raw)%len(edgeVals)]
			}
		}
		p.Code = append(p.Code, in)
	}
	if p.checkStatic() != nil {
		return nil
	}
	return p
}

// FuzzVectorizedMatchesScalar is the engine's differential oracle:
// every program CompileVec accepts must match scalar Exec bit-for-bit
// on every lane — including MinInt64/÷0 edge inputs — and scalar Exec
// must be infallible on it (no stack fault, no budget trip on any
// input). Programs it rejects must still run (or fail typed, never
// panic) on the scalar engine. Note the oracle is PER-PAIR: it holds
// for arbitrary programs, associative or not, because Run never
// reassociates — only ScanBlocked does, and only for validated ops.
func FuzzVectorizedMatchesScalar(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 12, 0, 0, 1, 9, 2, 9, 5, 25, 200, 17, 3, 31})
	f.Add([]byte{3, 40, 250, 14, 88, 9, 26, 27, 28, 120, 7, 19, 64, 64, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))

		check := func(name string, p *Program) {
			vp := CompileVec(p)
			var fr Frame
			if vp == nil {
				// Scalar fallback: must terminate with a value or a
				// typed error, never panic.
				a := make([]int64, p.Width)
				b := make([]int64, p.Width)
				dst := make([]int64, p.Width)
				fillTuples(rng, a)
				fillTuples(rng, b)
				_ = p.Exec(&fr, dst, a, b)
				return
			}
			nl := rng.Intn(LaneBlock) + 1
			checkRunMatchesExec(t, name, p, vp, rng, nl)
		}

		if p := fuzzBuildProgram(data); p != nil {
			check("fuzz", p)
		}
		for name, src := range Examples {
			p, err := Parse(src)
			if err != nil {
				t.Fatalf("example %s: %v", name, err)
			}
			check(name, p)
		}
	})
}

func BenchmarkScanBlockedAdd(b *testing.B) {
	p := mustProg(b, ExampleSatAdd)
	vp := CompileVec(p)
	sc := NewVecScratch()
	const nt = 4096
	src := make([]int64, nt)
	dst := make([]int64, nt)
	rng := rand.New(rand.NewSource(3))
	fillTuples(rng, src)
	b.SetBytes(nt * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vp.ScanBlocked(sc, p, dst, src, true, false, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanScalarAdd(b *testing.B) {
	p := mustProg(b, ExampleSatAdd)
	const nt = 4096
	src := make([]int64, nt)
	dst := make([]int64, nt)
	rng := rand.New(rand.NewSource(3))
	fillTuples(rng, src)
	b.SetBytes(nt * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSerialRef(b, p, dst, src, true, false, 0, false)
	}
}

// TestCarrySides pins which side Registered.Carry puts the carry on,
// with the non-commutative last-non-zero monoid (b != 0 ? b : a) in a
// compiled form and one that walks Exec: on the left a non-zero
// element survives, on the right a non-zero carry wins.
func TestCarrySides(t *testing.T) {
	for class, src := range map[string]string{
		"vector": `
.width 1
.identity 0
	argb 0
	arga 0
	argb 0
	select
`,
		"scalar": `
.width 1
.identity 0
	argb 0
	jnz useb
	arga 0
	ret
useb:
	argb 0
`,
	} {
		p := mustProg(t, src)
		if got := DispatchClass(p); got != class {
			t.Fatalf("%s: dispatch class %q", class, got)
		}
		reg := &Registered{Name: "lastnz", Prog: p}
		sc := NewVecScratch()
		for _, nt := range []int{1, 7, LaneBlock + 3} {
			src := make([]int64, nt)
			for i := range src {
				if i%3 != 0 {
					src[i] = int64(i)
				}
			}
			for _, carry := range []int64{0, -5} {
				for _, right := range []bool{false, true} {
					got := append([]int64(nil), src...)
					if err := reg.Carry(sc, got, carry, right); err != nil {
						t.Fatalf("%s nt=%d: %v", class, nt, err)
					}
					for i, v := range src {
						want := v
						if (right && carry != 0) || (!right && v == 0) {
							want = carry
						}
						if got[i] != want {
							t.Fatalf("%s nt=%d carry=%d right=%v: [%d] = %d, want %d", class, nt, carry, right, i, got[i], want)
						}
					}
				}
			}
		}
	}
}
