package serve

import (
	"errors"
	"math"

	"scans/internal/arena"
	"scans/internal/combine"
	"scans/internal/scan"
)

// runBatch executes one fused batch: group the requests by Spec and run
// ONE segmented kernel pass per group, handing each request its own
// arena-backed output buffer. This is the §3 argument operationalized:
// K small scans of the same flavor cost one primitive pass over their
// concatenation.
//
// The zero-copy path never materializes that concatenation. Each
// request's payload becomes a scan.View — {Dst, Src, Carry, Seeded} —
// and the view kernels run the blocked parallel pass directly over the
// request-owned buffers, stitching per-view carries exactly as Figure
// 10's block sums stitch blocks. There are no fused src/flags staging
// copies; the only per-request buffer is the result the caller
// receives, and that comes from the arena.
//
// Each group's kernel pass runs behind a recover barrier: a panicking
// kernel (or an armed fault.KernelPanic point) fails that group's
// futures with ErrInternal and the other groups — and the server —
// carry on.
func (s *Server) runBatch(sc *execScratch, batch []*future) {
	// Group while preserving arrival order within each group. The
	// scratch map and order slice are owned by this executor and reused
	// batch to batch; per-spec slices keep their capacity across resets.
	sc.order = sc.order[:0]
	elems := 0
	for _, f := range batch {
		g := sc.groups[f.spec]
		if len(g) == 0 {
			sc.order = append(sc.order, f.spec)
		}
		sc.groups[f.spec] = append(g, f)
		elems += len(f.data)
	}
	// Account the batch before any of its futures resolves, so a caller
	// holding every answer sees every batch that produced one.
	s.stats.record(len(batch), len(sc.order), elems)
	for _, spec := range sc.order {
		reqs := sc.groups[spec]
		s.runGroupSafe(sc, spec, reqs)
		clear(reqs) // drop future pointers so recycled futures aren't pinned
		sc.groups[spec] = reqs[:0]
	}
}

// execScratch is one executor's reusable batch-assembly state: the
// spec-grouping map, the group order, and the view list handed to the
// kernels. Hoisting these out of runBatch keeps steady-state batches
// allocation-free.
type execScratch struct {
	groups map[Spec][]*future
	order  []Spec
	views  []scan.View[int64]
	// vec is the user-op driver's scratch, created on the first
	// non-promoted user-op group this executor serves and reused
	// forever after — lane blocks never touch the GC.
	vec *combine.VecScratch
}

func newExecScratch() *execScratch {
	return &execScratch{groups: make(map[Spec][]*future, 8)}
}

// runGroupSafe wraps one group's kernel pass in a recover barrier so a
// panic is confined to that group's futures. Output buffers already
// staged in the scratch views go back to the arena — none were
// delivered, because the scatter loop only runs after the whole kernel
// pass succeeds.
func (s *Server) runGroupSafe(sc *execScratch, spec Spec, reqs []*future) {
	defer func() {
		if r := recover(); r != nil {
			for i := range sc.views {
				arena.PutInt64s(sc.views[i].Dst)
			}
			clear(sc.views)
			sc.views = sc.views[:0]
			s.failBatch(reqs, r)
		}
	}()
	s.runGroup(sc, spec, reqs)
}

// runGroup fuses one Spec's requests into a single view-kernel pass and
// scatters the results.
//
// Carry-seeded requests (stream chunks, future.seeded) set the view's
// Carry/Seeded fields; the view kernels fold the carry in algebraically
// at the segment head (or tail, for backward scans), so a seeded
// request occupies no slot beyond its own payload. Streams are
// forward-only (OpenStream rejects Backward), so a seeded future never
// reaches a backward kernel.
func (s *Server) runGroup(sc *execScratch, spec Spec, reqs []*future) {
	// Chaos hooks: a slow kernel stalls here (inside the executor, so
	// queue-age shedding and deadline drops see realistic pressure); a
	// kernel panic fires past this point and is caught by runGroupSafe.
	s.fpSlow.Sleep()
	if s.fpPanic.Fire() {
		panic("fault: injected kernel panic")
	}
	if spec.Op == OpUser {
		s.runUserGroup(sc, spec, reqs)
		return
	}
	s.runViewsGroup(sc, spec, reqs)
}

// runViewsGroup stages one group's requests as views, runs a single
// native kernel pass under kspec, and scatters the results. kspec may
// differ from the futures' own Spec: promoted user ops run here under
// the builtin kernel their program is structurally equal to. It returns
// how many futures it served.
func (s *Server) runViewsGroup(sc *execScratch, kspec Spec, reqs []*future) (served int) {
	sc.views = sc.views[:0]
	for _, f := range reqs {
		sc.views = append(sc.views, scan.View[int64]{
			Dst:    arena.GetInt64s(len(f.data)),
			Src:    f.data,
			Carry:  f.carry,
			Seeded: f.seeded,
		})
	}
	// One kernel pass for the whole group, straight over the request
	// payloads (Src) into per-request arena buffers (Dst): no fused
	// vector, no flags, no copies. The pass runs on this executor's
	// goroutine; parallelism comes from the executor pool running other
	// groups and batches, not from splitting one pass.
	runSegmentedViews(kspec, sc.views)
	for i, f := range reqs {
		if f.complete(sc.views[i].Dst, nil, &s.stats.served) {
			served++
		} else {
			// Already resolved (shed/failed elsewhere): nobody will read
			// this buffer, so it goes straight back.
			arena.PutInt64s(sc.views[i].Dst)
		}
	}
	clear(sc.views) // release Dst/Src references; buffers now owned by waiters
	sc.views = sc.views[:0]
	return served
}

// promotedOp maps a registration's plan promotion to the builtin Op it
// is structurally equal to.
func promotedOp(reg *combine.Registered) (Op, bool) {
	vp := reg.Plan()
	if vp == nil {
		return 0, false
	}
	switch vp.Promotion() {
	case combine.PromoteAdd:
		return OpSum, true
	case combine.PromoteMul:
		return OpMul, true
	case combine.PromoteMax:
		return OpMax, true
	case combine.PromoteMin:
		return OpMin, true
	}
	return 0, false
}

// runUserGroup serves one user-op group. A promoted registration (its
// fused plan is structurally a builtin monoid) runs ONE native
// segmented kernel pass under that builtin's Spec, with the VM out of
// the loop. Any other op runs each request through combine's user-op
// driver, Registered.Scan, which picks the vector engine or the
// one-lane Exec walk (combine/vector.go); Config.scalarVM forces the
// walk. All classes are bit-identical (FuzzVMMatchesNative and
// FuzzVectorizedMatchesScalar pin this).
//
// Failure isolation is per REQUEST: a request whose op blows its step
// budget (ErrOpBudget — data-dependent, and only the Exec walk can trip
// it) fails only its own future; the rest of the group is served. VM
// errors never panic, so a budget blowout never poisons the batch.
func (s *Server) runUserGroup(sc *execScratch, spec Spec, reqs []*future) {
	reg := spec.reg
	if reg == nil {
		panic("serve: runUserGroup: user op " + spec.User + " reached the executor unbound")
	}
	if op, ok := promotedOp(reg); ok && !s.cfg.scalarVM {
		kspec := Spec{Op: op, Kind: spec.Kind, Dir: spec.Dir}
		served := s.runViewsGroup(sc, kspec, reqs)
		s.stats.vmPromoted.Add(uint64(len(reqs)))
		if served > 0 {
			s.stats.recordUserServed(reg.Tenant, reg.Name, uint64(served))
		}
		return
	}
	if sc.vec == nil {
		sc.vec = combine.NewVecScratch()
	}
	served := 0
	for _, f := range reqs {
		dst := arena.GetInt64s(len(f.data))
		vec, err := reg.Scan(sc.vec, dst, f.data, spec.Kind == Inclusive, spec.Dir == Backward,
			f.carry, f.seeded, s.cfg.scalarVM)
		if vec {
			s.stats.vmVector.Add(1)
		} else {
			s.stats.vmScalar.Add(1)
		}
		if err != nil {
			arena.PutInt64s(dst)
			if errors.Is(err, combine.ErrBudget) {
				s.stats.opBudgetFails.Add(1)
			}
			f.complete(nil, vmErr(spec, err), nil)
			continue
		}
		if f.complete(dst, nil, &s.stats.served) {
			served++
		} else {
			arena.PutInt64s(dst)
		}
	}
	if served > 0 {
		s.stats.recordUserServed(reg.Tenant, reg.Name, uint64(served))
	}
}

// runSegmentedViews dispatches one fused (op, kind, direction) pass to
// the matching view kernel from internal/scan, run serially on the
// calling goroutine.
func runSegmentedViews(spec Spec, views []scan.View[int64]) {
	switch spec.Op {
	case OpSum:
		runMonoidViews(scan.Add[int64]{}, spec, views)
	case OpMul:
		runMonoidViews(scan.Mul[int64]{}, spec, views)
	case OpMax:
		runMonoidViews(scan.Max[int64]{Id: math.MinInt64}, spec, views)
	case OpMin:
		runMonoidViews(scan.Min[int64]{Id: math.MaxInt64}, spec, views)
	default:
		panic("serve: runSegmentedViews: invalid op " + spec.Op.String())
	}
}

// runMonoidViews selects the view kernel for the spec's kind and
// direction.
func runMonoidViews[O scan.Op[int64]](op O, spec Spec, views []scan.View[int64]) {
	switch {
	case spec.Dir == Forward && spec.Kind == Exclusive:
		scan.SegScanViewsExclusive(op, views, 1)
	case spec.Dir == Forward && spec.Kind == Inclusive:
		scan.SegScanViewsInclusive(op, views, 1)
	case spec.Dir == Backward && spec.Kind == Exclusive:
		scan.SegScanViewsExclusiveBackward(op, views, 1)
	default:
		scan.SegScanViewsInclusiveBackward(op, views, 1)
	}
}
