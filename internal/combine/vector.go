// Lane-blocked vectorized dispatch for combine programs.
//
// Program.Exec pays the interpreter's decode/dispatch tax once PER
// ELEMENT PAIR: a 3-instruction add program costs ~5 dispatched steps
// for every tuple of a 4096-tuple scan. This file flips the loop
// nesting. CompileVec lowers a bytecode program to a short straight-line
// sequence of REGISTER-STYLE vector instructions; VecPlan.Run then
// executes each vector instruction across a block of up to LaneBlock
// independent lanes, so the dispatch cost amortizes ~LaneBlock×.
//
// The lowering is a symbolic execution of the stack machine:
//   - stack slots and locals become compile-time operand names (a
//     register, an argument field, or a constant), so OpDup / OpSwap /
//     OpPick / OpLoad / OpStore / OpDrop cost NOTHING at run time —
//     they are renames;
//   - arithmetic on two constants folds at compile time;
//   - short forward branch-diamonds (if-then and if-then-else with
//     straight-line arms) are if-converted: both arms execute
//     speculatively on every lane and a per-lane select merges every
//     stack slot and local the arms disagree on. This is sound because
//     all VM arithmetic is totally defined — no arm can fault, so
//     executing the untaken arm is unobservable;
//   - anything else (backward jumps — gcd's loop — computed control
//     flow, ret inside an arm) makes CompileVec return nil and the
//     scan driver walks one lane through scalar Exec.
//
// Budget semantics: a compiled plan's scalar twin executes at most one
// step per instruction (control flow is forward-only on every path), so
// it can never exceed StepBudget (MaxProgram = 256 < StepBudget = 4096)
// and — because symbolic execution verified operand depths on every
// path — it can never hit ErrStack either. Vectorized execution is
// therefore infallible: ErrBudget stays reachable only for programs
// that fall back to scalar Exec, where PR 9's per-request isolation
// already handles it. StepBudget accounting per lane is preserved
// exactly because the compiled forms provably cannot trip it.
package combine

const (
	// LaneBlock is the number of element pairs one vector instruction
	// dispatch covers; it sizes the per-register scratch rows.
	LaneBlock = 256

	// MinVecTuples is the request size, in tuples, below which
	// Registered.Scan keeps the one-lane walk: the blocked scan
	// does ~2× the combine work (block sums + re-scan), which only pays
	// once enough lanes amortize the dispatch.
	MinVecTuples = 64

	// minVecChunk keeps lanes from being shorter than the per-step
	// dispatch they amortize. 32 won an empirical sweep (16/32/64/128)
	// of BenchmarkScanBlockedAdd: longer chunks shrink the serial
	// pass-2 lane-sum scan faster than they grow per-step dispatch.
	minVecChunk = 32

	// maxVecCode bounds compiled plan growth (select merges can emit
	// more vector instructions than source instructions).
	maxVecCode = 1024
)

// srcKind says where a vector operand's value comes from.
type srcKind uint8

const (
	srcReg srcKind = iota // scratch register row
	srcA                  // field idx of the left argument tuple
	srcB                  // field idx of the right argument tuple
	srcImm                // compile-time constant
)

// operand names one input of a vector instruction. After fusion most
// arithmetic reads its arguments straight from the strided input
// tuples (srcA/srcB) — the "superinstruction" shape push/push/arith
// collapses to.
type operand struct {
	kind srcKind
	idx  uint16
	imm  int64
}

func (o operand) same(p operand) bool {
	return o.kind == p.kind && o.idx == p.idx && (o.kind != srcImm || o.imm == p.imm)
}

// vOp is the vector instruction set: move, binary, unary, select.
type vOp uint8

const (
	vMov vOp = iota // dst = x
	vBin            // dst = x <sub> y
	vUn             // dst = <sub> x
	vSel            // dst = z != 0 ? x : y
)

// vinstr is one vector instruction; sub carries the source OpCode for
// vBin/vUn.
type vinstr struct {
	op      vOp
	sub     OpCode
	dst     uint16
	x, y, z operand
}

// VecPlan is a compiled program: straight-line vector code plus the
// operands that form the output tuple (bottom-of-stack first, exactly
// the order Exec copies to dst).
type VecPlan struct {
	width int
	nreg  int
	code  []vinstr
	out   []operand
	promo Promotion
}

// NumInstr reports the compiled instruction count (after fusion).
func (vp *VecPlan) NumInstr() int { return len(vp.code) }

// Width returns the plan's tuple width.
func (vp *VecPlan) Width() int { return vp.width }

// vecCompiler is the symbolic interpreter state: the operand stack and
// locals hold NAMES (operands), not values.
type vecCompiler struct {
	p      *Program
	code   []vinstr
	nreg   int
	stack  []operand
	locals [LocalCap]operand
}

func (c *vecCompiler) newReg() uint16 {
	r := c.nreg
	c.nreg++
	return uint16(r)
}

func (c *vecCompiler) emit(in vinstr) bool {
	if len(c.code) >= maxVecCode {
		return false
	}
	c.code = append(c.code, in)
	return true
}

// CompileVec lowers p to a vector plan, or returns nil when p needs
// scalar execution (irreducible control flow, stack faults along some
// path, or plan-size blowup). A nil return is not an error — it is the
// fallback signal.
func CompileVec(p *Program) *VecPlan {
	if p.checkStatic() != nil {
		return nil
	}
	c := &vecCompiler{p: p}
	for i := range c.locals {
		c.locals[i] = operand{kind: srcImm}
	}
	code := p.Code
	pc := 0
	for pc < len(code) {
		in := code[pc]
		switch in.Op {
		case OpRet:
			pc = len(code)
		case OpJmp:
			// A top-level unconditional jump is either a loop (backward)
			// or an unusual skip; neither is worth if-converting.
			return nil
		case OpJz, OpJnz:
			next, ok := c.diamond(pc)
			if !ok {
				return nil
			}
			pc = next
		default:
			if !c.step(in) {
				return nil
			}
			pc++
		}
	}
	if len(c.stack) != p.Width {
		return nil // scalar Exec would fault on the result check
	}
	vp := &VecPlan{
		width: p.Width,
		nreg:  c.nreg,
		code:  c.code,
		out:   append([]operand(nil), c.stack...),
	}
	fusePlan(vp)
	vp.promo = detectPromotion(vp, p)
	return vp
}

// step symbolically executes one non-branch instruction. Returns false
// when the program would fault (stack over/underflow) or the plan
// outgrows maxVecCode — both mean "stay scalar".
func (c *vecCompiler) step(in Instr) bool {
	st := &c.stack
	push := func(o operand) bool {
		if len(*st) >= StackCap {
			return false
		}
		*st = append(*st, o)
		return true
	}
	pop := func() (operand, bool) {
		if len(*st) == 0 {
			return operand{}, false
		}
		o := (*st)[len(*st)-1]
		*st = (*st)[:len(*st)-1]
		return o, true
	}
	switch in.Op {
	case OpConst:
		return push(operand{kind: srcImm, imm: in.Imm})
	case OpArgA, OpArgB:
		k := srcA
		if in.Op == OpArgB {
			k = srcB
		}
		// Emit a mov so the value has a register name; fusePlan inlines
		// single-use movs into their consumers afterward.
		r := c.newReg()
		if !c.emit(vinstr{op: vMov, dst: r, x: operand{kind: k, idx: uint16(in.Imm)}}) {
			return false
		}
		return push(operand{kind: srcReg, idx: r})
	case OpLoad:
		return push(c.locals[in.Imm])
	case OpStore:
		o, ok := pop()
		if !ok {
			return false
		}
		c.locals[in.Imm] = o
		return true
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax, OpAnd, OpOr, OpXor, OpLt, OpLe, OpEq:
		y, ok := pop()
		if !ok {
			return false
		}
		x, ok := pop()
		if !ok {
			return false
		}
		if x.kind == srcImm && y.kind == srcImm {
			return push(operand{kind: srcImm, imm: binEval(in.Op, x.imm, y.imm)})
		}
		r := c.newReg()
		if !c.emit(vinstr{op: vBin, sub: in.Op, dst: r, x: x, y: y}) {
			return false
		}
		return push(operand{kind: srcReg, idx: r})
	case OpNeg, OpAbs:
		x, ok := pop()
		if !ok {
			return false
		}
		if x.kind == srcImm {
			return push(operand{kind: srcImm, imm: unEval(in.Op, x.imm)})
		}
		r := c.newReg()
		if !c.emit(vinstr{op: vUn, sub: in.Op, dst: r, x: x}) {
			return false
		}
		return push(operand{kind: srcReg, idx: r})
	case OpSelect:
		cnd, ok := pop()
		if !ok {
			return false
		}
		f, ok := pop()
		if !ok {
			return false
		}
		t, ok := pop()
		if !ok {
			return false
		}
		if cnd.kind == srcImm {
			if cnd.imm != 0 {
				return push(t)
			}
			return push(f)
		}
		r := c.newReg()
		if !c.emit(vinstr{op: vSel, dst: r, x: t, y: f, z: cnd}) {
			return false
		}
		return push(operand{kind: srcReg, idx: r})
	case OpDup:
		if len(*st) == 0 {
			return false
		}
		return push((*st)[len(*st)-1])
	case OpDrop:
		_, ok := pop()
		return ok
	case OpSwap:
		if len(*st) < 2 {
			return false
		}
		(*st)[len(*st)-1], (*st)[len(*st)-2] = (*st)[len(*st)-2], (*st)[len(*st)-1]
		return true
	case OpPick:
		d := int(in.Imm)
		if d >= len(*st) {
			return false
		}
		return push((*st)[len(*st)-1-d])
	}
	return false
}

// diamond if-converts the conditional branch at pc. Recognized shapes
// (T = branch target, both forward):
//
//	if-then:       jcc T ; fall-arm ; T:
//	if-then-else:  jcc T ; fall-arm ; jmp J ; T: taken-arm ; J:
//
// Both arms must be straight-line (no branches, no ret). The arms run
// symbolically on cloned states; every stack slot and local they
// disagree on gets a per-lane select keyed on the popped condition.
// Returns the join pc and ok=false for any shape it cannot convert.
func (c *vecCompiler) diamond(pc int) (int, bool) {
	code := c.p.Code
	in := code[pc]
	t := int(in.Imm)
	if t <= pc {
		return 0, false // backward branch: a loop
	}
	cnd, okPop := popOp(&c.stack)
	if !okPop {
		return 0, false
	}

	// Resolve a statically-known condition: just keep compiling the
	// live side.
	if cnd.kind == srcImm {
		taken := (cnd.imm == 0) == (in.Op == OpJz)
		if taken {
			return t, true
		}
		return pc + 1, true
	}

	fallLo, fallHi := pc+1, t // fall-through arm
	takenLo, takenHi := t, t  // empty unless if-then-else
	join := t
	if t > pc+1 && t-1 > fallLo-1 && code[t-1].Op == OpJmp {
		j := int(code[t-1].Imm)
		if j < t {
			return 0, false // else-jump going backward: loop shape
		}
		fallHi = t - 1
		takenLo, takenHi = t, j
		join = j
	}
	if !straightLine(code, fallLo, fallHi) || !straightLine(code, takenLo, takenHi) {
		return 0, false
	}

	// Speculatively execute both arms from the shared entry state.
	baseStack := append([]operand(nil), c.stack...)
	baseLocals := c.locals

	run := func(lo, hi int) ([]operand, [LocalCap]operand, bool) {
		c.stack = append(c.stack[:0], baseStack...)
		c.locals = baseLocals
		for i := lo; i < hi; i++ {
			if !c.step(code[i]) {
				return nil, baseLocals, false
			}
		}
		return append([]operand(nil), c.stack...), c.locals, true
	}
	fallStack, fallLocals, ok := run(fallLo, fallHi)
	if !ok {
		return 0, false
	}
	takenStack, takenLocals, ok := run(takenLo, takenHi)
	if !ok {
		return 0, false
	}
	if len(fallStack) != len(takenStack) {
		return 0, false // divergent depths: can't merge
	}

	// For OpJz the branch is TAKEN when cond == 0, so the fall arm is
	// the cond != 0 side; select(cond, t, f) picks t when cond != 0.
	// OpJnz is the mirror image.
	tStack, fStack := fallStack, takenStack
	tLocals, fLocals := fallLocals, takenLocals
	if in.Op == OpJnz {
		tStack, fStack = takenStack, fallStack
		tLocals, fLocals = takenLocals, fallLocals
	}
	merge := func(t, f operand) (operand, bool) {
		if t.same(f) {
			return t, true
		}
		r := c.newReg()
		if !c.emit(vinstr{op: vSel, dst: r, x: t, y: f, z: cnd}) {
			return operand{}, false
		}
		return operand{kind: srcReg, idx: r}, true
	}
	merged := make([]operand, len(tStack))
	for i := range tStack {
		m, ok := merge(tStack[i], fStack[i])
		if !ok {
			return 0, false
		}
		merged[i] = m
	}
	var mLocals [LocalCap]operand
	for i := range tLocals {
		m, ok := merge(tLocals[i], fLocals[i])
		if !ok {
			return 0, false
		}
		mLocals[i] = m
	}
	c.stack = append(c.stack[:0], merged...)
	c.locals = mLocals
	return join, true
}

func popOp(st *[]operand) (operand, bool) {
	if len(*st) == 0 {
		return operand{}, false
	}
	o := (*st)[len(*st)-1]
	*st = (*st)[:len(*st)-1]
	return o, true
}

// straightLine reports whether code[lo:hi] contains no control flow.
func straightLine(code []Instr, lo, hi int) bool {
	if lo > hi || hi > len(code) {
		return false
	}
	for i := lo; i < hi; i++ {
		switch code[i].Op {
		case OpJmp, OpJz, OpJnz, OpRet:
			return false
		}
	}
	return true
}

// binEval is the scalar twin of the vector binary loops — the same
// totally-defined semantics as Program.Exec's switch, factored so the
// compiler's constant folder and the vector runtime cannot drift from
// each other.
func binEval(op OpCode, x, y int64) int64 {
	switch op {
	case OpAdd:
		return x + y
	case OpSub:
		return x - y
	case OpMul:
		return x * y
	case OpDiv:
		return divTotal(x, y)
	case OpMod:
		return modTotal(x, y)
	case OpMin:
		if y < x {
			return y
		}
		return x
	case OpMax:
		if y > x {
			return y
		}
		return x
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpLt:
		if x < y {
			return 1
		}
		return 0
	case OpLe:
		if x <= y {
			return 1
		}
		return 0
	case OpEq:
		if x == y {
			return 1
		}
		return 0
	}
	panic("combine: binEval: not a binary opcode")
}

func unEval(op OpCode, x int64) int64 {
	switch op {
	case OpNeg:
		return -x
	case OpAbs:
		if x < 0 {
			return -x
		}
		return x
	}
	panic("combine: unEval: not a unary opcode")
}

func divTotal(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	if x == minInt64 && y == -1 {
		return minInt64
	}
	return x / y
}

func modTotal(x, y int64) int64 {
	if y == 0 || (x == minInt64 && y == -1) {
		return 0
	}
	return x % y
}

// VecScratch is one executor's working set for the user-op driver: the
// register slab, output-staging rows, the lane accumulators, and a
// Frame for every Exec step. Like Frame, it is reused call after call
// and is not safe for concurrent use.
type VecScratch struct {
	slab []int64
	rows [][]int64
	outT [MaxWidth][]int64
	// acc and seed are the driver's lane-major accumulator buffers:
	// lane l's tuple lives at [l*width : (l+1)*width].
	acc  []int64
	seed []int64
	// immCell backs stride-0 views of constant operands.
	immCell [4]int64
	fr      Frame
}

// NewVecScratch returns an empty scratch; rows grow on first use and
// are reused afterward.
func NewVecScratch() *VecScratch { return &VecScratch{} }

// ensure sizes the scratch for a plan with nreg registers. Re-ensuring
// the same register count (every Run of a blocked scan) is a no-op.
func (sc *VecScratch) ensure(nreg int) {
	if len(sc.rows) == nreg && sc.slab != nil {
		return
	}
	need := (nreg + MaxWidth) * LaneBlock
	if cap(sc.slab) < need {
		sc.slab = make([]int64, need)
	}
	sc.slab = sc.slab[:need]
	if cap(sc.rows) < nreg {
		sc.rows = make([][]int64, 0, nreg)
	}
	sc.rows = sc.rows[:0]
	for i := 0; i < nreg; i++ {
		sc.rows = append(sc.rows, sc.slab[i*LaneBlock:(i+1)*LaneBlock])
	}
	for i := 0; i < MaxWidth; i++ {
		off := (nreg + i) * LaneBlock
		sc.outT[i] = sc.slab[off : off+LaneBlock]
	}
}

// view resolves an operand to a (base, stride) pair for lane indexing:
// value of lane l is base[l*stride]. Register rows are unit stride;
// argument fields are strided into the caller's tuple layout; constants
// are a stride-0 single cell.
func (sc *VecScratch) view(o operand, a []int64, as int, b []int64, bs int, cell int) ([]int64, int) {
	switch o.kind {
	case srcReg:
		return sc.rows[o.idx], 1
	case srcA:
		return a[o.idx:], as
	case srcB:
		return b[o.idx:], bs
	default:
		sc.immCell[cell] = o.imm
		return sc.immCell[cell : cell+1], 0
	}
}

// Run executes the plan across nl lanes (nl <= LaneBlock): for each
// lane l, dst tuple l = combine(a tuple l, b tuple l), where tuple l of
// a strided array p with stride s occupies p[l*s : l*s+width]. dst may
// alias a or b (output operands that read the argument arrays are
// staged through scratch rows before any dst write). Run cannot fail:
// CompileVec only accepts programs whose every path is fault-free.
func (vp *VecPlan) Run(sc *VecScratch, nl int, dst []int64, ds int, a []int64, as int, b []int64, bs int) {
	sc.ensure(vp.nreg)
	for _, in := range vp.code {
		d := sc.rows[in.dst][:nl]
		xs, xst := sc.view(in.x, a, as, b, bs, 0)
		switch in.op {
		case vMov:
			for l := 0; l < nl; l++ {
				d[l] = xs[l*xst]
			}
		case vUn:
			switch in.sub {
			case OpNeg:
				for l := 0; l < nl; l++ {
					d[l] = -xs[l*xst]
				}
			default: // OpAbs
				for l := 0; l < nl; l++ {
					if v := xs[l*xst]; v < 0 {
						d[l] = -v
					} else {
						d[l] = v
					}
				}
			}
		case vBin:
			ys, yst := sc.view(in.y, a, as, b, bs, 1)
			binRow(in.sub, d, xs, xst, ys, yst, nl)
		case vSel:
			ys, yst := sc.view(in.y, a, as, b, bs, 1)
			zs, zst := sc.view(in.z, a, as, b, bs, 2)
			for l := 0; l < nl; l++ {
				if zs[l*zst] != 0 {
					d[l] = xs[l*xst]
				} else {
					d[l] = ys[l*yst]
				}
			}
		}
	}
	// Scatter the output tuple. Operands that read the argument arrays
	// are staged into scratch rows first so dst aliasing a or b cannot
	// corrupt fields not yet read.
	for i, o := range vp.out {
		if o.kind == srcReg {
			continue
		}
		xs, xst := sc.view(o, a, as, b, bs, 0)
		t := sc.outT[i][:nl]
		for l := 0; l < nl; l++ {
			t[l] = xs[l*xst]
		}
	}
	for i, o := range vp.out {
		var row []int64
		if o.kind == srcReg {
			row = sc.rows[o.idx]
		} else {
			row = sc.outT[i]
		}
		for l := 0; l < nl; l++ {
			dst[l*ds+i] = row[l]
		}
	}
}

// binRow is one vector binary dispatch: the opcode switch runs ONCE,
// the operation runs nl times — the inversion this whole file exists
// for.
func binRow(op OpCode, d []int64, xs []int64, xst int, ys []int64, yst int, nl int) {
	switch op {
	case OpAdd:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] + ys[l*yst]
		}
	case OpSub:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] - ys[l*yst]
		}
	case OpMul:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] * ys[l*yst]
		}
	case OpDiv:
		for l := 0; l < nl; l++ {
			d[l] = divTotal(xs[l*xst], ys[l*yst])
		}
	case OpMod:
		for l := 0; l < nl; l++ {
			d[l] = modTotal(xs[l*xst], ys[l*yst])
		}
	case OpMin:
		for l := 0; l < nl; l++ {
			x, y := xs[l*xst], ys[l*yst]
			if y < x {
				x = y
			}
			d[l] = x
		}
	case OpMax:
		for l := 0; l < nl; l++ {
			x, y := xs[l*xst], ys[l*yst]
			if y > x {
				x = y
			}
			d[l] = x
		}
	case OpAnd:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] & ys[l*yst]
		}
	case OpOr:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] | ys[l*yst]
		}
	case OpXor:
		for l := 0; l < nl; l++ {
			d[l] = xs[l*xst] ^ ys[l*yst]
		}
	case OpLt:
		for l := 0; l < nl; l++ {
			v := int64(0)
			if xs[l*xst] < ys[l*yst] {
				v = 1
			}
			d[l] = v
		}
	case OpLe:
		for l := 0; l < nl; l++ {
			v := int64(0)
			if xs[l*xst] <= ys[l*yst] {
				v = 1
			}
			d[l] = v
		}
	case OpEq:
		for l := 0; l < nl; l++ {
			v := int64(0)
			if xs[l*xst] == ys[l*yst] {
				v = 1
			}
			d[l] = v
		}
	}
}

// The user-op scan driver: the paper's block-sum decomposition (Figure
// 10) WITHIN one request. Split the nt tuples into contiguous lanes,
// reduce each lane (pass 1), serially scan the lane sums into per-lane
// seeds (pass 2 — #lanes steps, not nt), then re-scan each lane from its
// seed (pass 3). Passes 1 and 3 advance every lane one tuple per step:
// one vector Run across the lanes when the op compiled, else one Exec.
//
// Lanes only pay when the step is vectorized (the blocked scan does ~2n
// combines instead of n), so without a plan the driver runs ONE lane:
// passes 1–2 vanish and pass 3 is the serial walk with the view
// kernels' semantics (scan/views.go) at tuple stride. Forward folds
// combine(acc, el); backward walks from the tail and folds
// combine(el, acc) — user monoids need not commute; exclusive writes
// the accumulator before the fold, inclusive after; when seeded, acc[0]
// starts at the carry (width 1, enforced at admission), else at the
// identity. More than one lane reassociates the fold, which is sound
// because registration validated the op as associative. Only the Exec
// walk can fail (ErrBudget): a compiled plan cannot (file comment).

// lanes is one call's split of nt tuples into n lanes of chunk tuples,
// the last holding lastLen; vp nil means one lane stepped by Exec.
type lanes struct {
	sc                   *VecScratch
	vp                   *VecPlan
	p                    *Program
	w, chunk, n, lastLen int
}

func splitLanes(sc *VecScratch, vp *VecPlan, p *Program, nt int) lanes {
	ln := lanes{sc: sc, vp: vp, p: p, w: p.Width, chunk: nt, n: 1, lastLen: nt}
	if vp != nil {
		if chunk := max((nt+LaneBlock-1)/LaneBlock, minVecChunk); chunk < nt {
			ln.chunk, ln.n = chunk, (nt+chunk-1)/chunk
			ln.lastLen = nt - (ln.n-1)*chunk
		}
	}
	// A one-lane walk needs one accumulator tuple; the vector engine's
	// first use grows the rows to their LaneBlock maximum for good.
	if need := ln.n * ln.w; len(sc.acc) < need {
		if vp != nil {
			need = LaneBlock * MaxWidth
		}
		sc.acc, sc.seed = make([]int64, need), make([]int64, need)
	}
	return ln
}

// walk advances every lane through its tuples, folding each into the
// lane's accumulator in sc.acc (passes 1 and 3). Unless dst is nil it
// writes each running value out, before the fold when exclusive.
func (ln *lanes) walk(dst, src []int64, inclusive, backward bool) error {
	w, stride, acc := ln.w, ln.chunk*ln.w, ln.sc.acc
	for i := 0; i < ln.chunk; i++ {
		k := i
		if backward {
			k = ln.chunk - 1 - i
		}
		nl := ln.n
		if k >= ln.lastLen {
			nl--
		}
		if dst != nil && !inclusive {
			emitAcc(dst[k*w:], stride, acc, w, nl)
		}
		a, as, b, bs := acc, w, src[k*w:], stride
		if backward {
			a, as, b, bs = b, bs, a, as
		}
		if ln.vp != nil {
			ln.vp.Run(ln.sc, nl, acc, w, a, as, b, bs)
		} else if err := ln.p.Exec(&ln.sc.fr, acc[:w], a[:w], b[:w]); err != nil {
			return err
		}
		if dst != nil && inclusive {
			emitAcc(dst[k*w:], stride, acc, w, nl)
		}
	}
	return nil
}

// seeds is pass 2: an exclusive scan of the lane sums in sc.acc, from
// init, into sc.seed — right to left when backward.
func (ln *lanes) seeds(init []int64, backward bool) error {
	w, prev := ln.w, 0
	for i := 0; i < ln.n; i++ {
		l := i
		if backward {
			l = ln.n - 1 - i
		}
		if i == 0 {
			copy(ln.sc.seed[l*w:(l+1)*w], init)
		} else {
			a, b := ln.sc.seed[prev*w:(prev+1)*w], ln.sc.acc[prev*w:(prev+1)*w]
			if backward {
				a, b = b, a
			}
			if err := ln.p.Exec(&ln.sc.fr, ln.sc.seed[l*w:(l+1)*w], a, b); err != nil {
				return err
			}
		}
		prev = l
	}
	return nil
}

// ScanBlocked scans src into dst through the driver, stepping every
// lane with vp's vector Run whatever the request's size. A nil vp walks
// one lane through p's Exec.
func (vp *VecPlan) ScanBlocked(sc *VecScratch, p *Program, dst, src []int64, inclusive, backward bool, carry int64, seeded bool) error {
	w := p.Width
	if len(src) < w {
		return nil
	}
	ln := splitLanes(sc, vp, p, len(src)/w)
	if ln.n > 1 { // pass 1: sc.acc holds each lane's fold
		for l := 0; l < ln.n; l++ {
			copy(sc.acc[l*w:], p.Identity)
		}
		if err := ln.walk(nil, src, false, false); err != nil {
			return err
		}
	}
	var init [MaxWidth]int64
	copy(init[:w], p.Identity)
	if seeded {
		init[0] = carry
	}
	if err := ln.seeds(init[:w], backward); err != nil {
		return err
	}
	copy(sc.acc, sc.seed[:ln.n*w])
	return ln.walk(dst, src, inclusive, backward)
}

// Scan scans src into dst with the op through the driver, stepping
// with the plan unless the op did not compile, the request is under
// MinVecTuples, or scalar forces the one-lane walk; vectorized reports
// whether the vector engine ran.
func (r *Registered) Scan(sc *VecScratch, dst, src []int64, inclusive, backward bool, carry int64, seeded, scalar bool) (vectorized bool, err error) {
	var vp *VecPlan
	if !scalar && len(src)/r.Width() >= MinVecTuples {
		vp = r.Plan()
	}
	return vp != nil, vp.ScanBlocked(sc, r.Prog, dst, src, inclusive, backward, carry, seeded)
}

// Carry combines carry into every element of the width-1 dst in
// place: carry ⊗ dst[i], or dst[i] ⊗ carry when right — the last step
// of the block-sum decomposition, for one seeded block. A compiled op
// runs one vector Run per LaneBlock elements with the carry as a
// stride-0 operand; an op that did not compile steps Exec per element,
// which can fail (ErrBudget).
func (r *Registered) Carry(sc *VecScratch, dst []int64, carry int64, right bool) error {
	c, vp := [1]int64{carry}, r.Plan()
	for lo, nl := 0, 1; lo < len(dst); lo += nl {
		if vp != nil {
			nl = min(LaneBlock, len(dst)-lo)
		}
		blk := dst[lo : lo+nl]
		a, as, b, bs := c[:], 0, blk, 1
		if right {
			a, as, b, bs = b, bs, a, as
		}
		if vp != nil {
			vp.Run(sc, nl, blk, 1, a, as, b, bs)
		} else if err := r.Prog.Exec(&sc.fr, blk, a, b); err != nil {
			return err
		}
	}
	return nil
}

// emitAcc copies each active lane's accumulator tuple to its output
// slot: dst[l*ds : l*ds+w] = acc[l*as : l*as+w].
func emitAcc(dst []int64, ds int, acc []int64, as, nl int) {
	for l := 0; l < nl; l++ {
		copy(dst[l*ds:l*ds+as], acc[l*as:(l+1)*as])
	}
}
