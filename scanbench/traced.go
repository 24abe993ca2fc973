package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/combine"
	"scans/internal/scan"
	"scans/internal/serve"
)

// snapshot is every public counter the traced run reads before and
// after a phase.
type snapshot struct {
	c        counters
	arena    arena.Counters
	mem      runtime.MemStats
	gcCPU    float64 // seconds
	totalCPU float64
}

func snap(sys system) snapshot {
	s := snapshot{c: sys.counters(), arena: arena.Stats()}
	runtime.ReadMemStats(&s.mem)
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	s.gcCPU, s.totalCPU = m[0].Value.Float64(), m[1].Value.Float64()
	return s
}

// traced is the per-layer run. It sets the system up once, runs the
// closed loop untraced and then traced (their throughput ratio is the
// tracing overhead), reads every layer's counters around the traced
// loop, runs the open loop traced for the generator's lag, and then
// prices each layer from outside on a seeded sample of the workload's
// requests: the kernel and memcpy rows, the combine engine, the two
// codecs, and the layer ladder.
func traced(w *workload, seed int64, dur time.Duration, out io.Writer) (*result, error) {
	res := newResult()
	g, sys, warm, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	closeSys := sync.OnceFunc(sys.close)
	defer closeSys()
	res.count(warm)

	plain := closedLoop(sys, g, w.window, dur/4)
	res.count(plain)
	tr := newTracer(1 << 15)
	g.tr = tr
	before := snap(sys)
	loop := closedLoop(sys, g, w.window, dur/4)
	after := snap(sys)
	res.count(loop)
	open := timedOpenLoop(sys, g, w, rand.New(rand.NewSource(seed^0x7ace)), dur/4, res, out)
	g.tr = nil
	closeSys()
	sent, failed, wrong := res.Attempted, res.Failed-res.wrong, res.wrong

	tr.summarize(out)
	if err := tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, seed)); err != nil {
		fmt.Fprintln(out, "spans not written:", err)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x1a7e))
	sample := make([]*template, 0, w.sample)
	for _, i := range rng.Perm(len(g.ts))[:min(w.sample, len(g.ts))] {
		sample = append(sample, g.ts[i])
	}

	if err := kernelRows(res, rng, out); err != nil {
		return nil, err
	}
	if err := combineRows(res, rng); err != nil {
		return nil, err
	}
	bin, js, err := codecRows(res, sample)
	if err != nil {
		return nil, err
	}
	rigCl, err := ladderRows(res, sample, bin, js, out)
	if err != nil {
		return nil, err
	}

	loopN := float64(loop.sent)
	sv, sv0 := after.c.serve, before.c.serve
	batches := float64(sv.Batches - sv0.Batches)
	res.set("serve.reqs_per_batch", ratio(float64(sv.Served-sv0.Served), batches), "req")
	res.set("serve.occupancy_p99", float64(sv.P99Occupancy), "req")
	res.set("serve.groups_per_batch", ratio(float64(sv.Groups-sv0.Groups), batches), "group")
	res.set("serve.rejected", float64(sv.Rejected-sv0.Rejected), "count")
	res.set("serve.shed", float64(sv.Shed-sv0.Shed), "count")
	res.set("serve.deadline_drops", float64(sv.DeadlineDrops-sv0.DeadlineDrops), "count")
	prom := float64(sv.VMPromotedReqs - sv0.VMPromotedReqs)
	vec := float64(sv.VMVectorReqs - sv0.VMVectorReqs)
	scal := float64(sv.VMScalarReqs - sv0.VMScalarReqs)
	res.set("combine.promoted_share", ratio(prom, prom+vec+scal), "ratio")
	res.set("combine.vector_share", ratio(vec, prom+vec+scal), "ratio")
	res.set("combine.scalar_share", ratio(scal, prom+vec+scal), "ratio")

	// A workload without a coordinator reports the ladder's: the same
	// sample's requests sent through Coordinator.Scan unloaded.
	if after.c.hasCluster {
		clusterRows(res, before.c, after.c)
	} else {
		clusterRows(res, rigCl[0], rigCl[1])
	}

	a, a0 := after.arena, before.arena
	res.set("arena.gets_per_req", float64(a.Gets-a0.Gets)/loopN, "count")
	res.set("arena.miss_ratio", ratio(float64(a.Misses-a0.Misses), float64(a.Gets-a0.Gets)), "ratio")
	res.set("arena.pooled_bytes_per_req", float64(a.BytesPooled-a0.BytesPooled)/loopN, "B")
	res.set("go.allocs_per_req", float64(after.mem.Mallocs-before.mem.Mallocs)/loopN, "count")
	res.set("go.alloc_bytes_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/loopN, "B")
	res.set("go.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")

	lag := blockP99(open.lag)
	res.set("loadgen.sent", float64(sent), "count")
	res.set("loadgen.failed", float64(failed), "count")
	res.set("loadgen.wrong", float64(wrong), "count")
	res.set("loadgen.lag_p99_ms", lag, "ms")
	res.set("loadgen.latency_p99_ms", blockP99(open.lat), "ms")
	res.set("loadgen.error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.set("trace.overhead_ratio", plain.rps()/loop.rps(), "ratio")
	fmt.Fprintf(out, "traced closed loop: %d requests, untraced %.1f req/s, traced %.1f req/s\n", loop.sent, plain.rps(), loop.rps())
	return res, nil
}

// clusterRows reports the coordinator counters moved between two snapshots.
func clusterRows(res *result, c0, c1 counters) {
	d, d0 := c1.cluster, c0.cluster
	n := float64(d.Requests - d0.Requests)
	res.set("cluster.pieces_per_req", ratio(float64(d.Pieces-d0.Pieces), n), "count")
	res.set("cluster.shards_per_req", ratio(float64(d.Shards-d0.Shards), n), "count")
	res.set("cluster.carry_prescan_elems_per_req", ratio(float64(d.CarryPrescanElems-d0.CarryPrescanElems), n), "elem")
	res.set("cluster.retries", float64(d.Retries-d0.Retries), "count")
	res.set("cluster.hedges", float64(d.Hedges-d0.Hedges), "count")
	res.set("cluster.hedge_wins", float64(d.HedgeWins-d0.HedgeWins), "count")
	var planned []float64
	for i := range c1.planned {
		if i < len(c0.planned) {
			planned = append(planned, float64(c1.planned[i]-c0.planned[i]))
		}
	}
	imbalance := 0.0
	if len(planned) > 0 {
		imbalance = ratio(slices.Max(planned), mean(planned))
	}
	res.set("cluster.worker_imbalance", imbalance, "ratio")
}

// timeMedian runs f reps times after two untimed runs and returns the
// median duration in seconds.
func timeMedian(reps int, f func()) float64 {
	f()
	f()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// kernelRows prices the view kernel at bulk-kernel's request size on
// one and two workers, against a memcpy of the same array: 16 B per
// element moved (8 read, 8 written) in both, so their ratio says how
// close the kernel runs to memory bandwidth.
func kernelRows(res *result, rng *rand.Rand, out io.Writer) error {
	src := small(rng, bulkN)
	dst := make([]int64, bulkN)
	views := []scan.View[int64]{{Dst: dst, Src: src}}
	p1 := timeMedian(15, func() { scan.SegScanViewsExclusive(scan.Add[int64]{}, views, 1) }) / bulkN * 1e9
	p2 := timeMedian(15, func() { scan.SegScanViewsExclusive(scan.Add[int64]{}, views, 2) }) / bulkN * 1e9
	want := make([]int64, bulkN)
	scan.Exclusive(scan.Add[int64]{}, want, src)
	if !slices.Equal(dst, want) {
		return fmt.Errorf("view kernel disagrees with the serial reference")
	}
	cp := timeMedian(15, func() { copy(dst, src) })
	copyGBps := 16 * bulkN / cp / 1e9
	res.set("scan.ns_per_elem_p1", p1, "ns")
	res.set("scan.ns_per_elem_p2", p2, "ns")
	res.set("scan.speedup_p2", p1/p2, "ratio")
	res.set("scan.gbps_computed", 16/p2, "GB/s")
	res.set("mem.copy_gbps", copyGBps, "GB/s")
	res.set("scan.roofline_ratio", 16/p2/copyGBps, "ratio")
	fmt.Fprintf(out, "kernel rows: %d elements, %d MiB in + %d MiB out; L2 per core %d MiB, shared L3 %d MiB (as the processor reports them)\n",
		bulkN, bulkN*8>>20, bulkN*8>>20, cacheBytes(2)>>20, cacheBytes(3)>>20)
	return nil
}

// combineRows prices the combine engine on satadd, which runs on the
// vector engine, against the per-element interpreter.
func combineRows(res *result, rng *rand.Rand) error {
	const n = 1 << 16
	prog := combine.MustParse(combine.ExampleSatAdd)
	plan := combine.CompileVec(prog)
	sc := combine.NewVecScratch()
	src := make([]int64, n)
	for i := range src {
		src[i] = rng.Int63() >> 20
	}
	vdst, sdst := make([]int64, n), make([]int64, n)
	var verr, serr error
	vec := timeMedian(15, func() { verr = plan.ScanBlocked(sc, prog, vdst, src, false, false, 0, false) })
	scal := timeMedian(5, func() { serr = foldUser(prog, sdst, src, false, false) })
	if verr != nil || serr != nil {
		return fmt.Errorf("combine rows: %v, %v", verr, serr)
	}
	if !slices.Equal(vdst, sdst) {
		return fmt.Errorf("vector engine disagrees with the per-element fold")
	}
	res.set("combine.vector_ns_per_elem", vec/n*1e9, "ns")
	res.set("combine.scalar_ns_per_elem", scal/n*1e9, "ns")
	return nil
}

// codecCost is one codec's mean cost per request round trip: the
// request and its response, each encoded and decoded once.
type codecCost struct{ encUS, decUS, bytes float64 }

// codecRows prices binwire and the JSON wire types on the sample.
func codecRows(res *result, sample []*template) (bin, js codecCost, err error) {
	const passes = 5
	var encB, decB, encJ, decJ []float64
	var fr, rf []byte
	for pass := 0; pass < passes; pass++ {
		var eb, db, ej, dj time.Duration
		bin.bytes, js.bytes = 0, 0
		for i, t := range sample {
			id := uint64(i + 1)
			t0 := time.Now()
			if t.spec.Op == serve.OpUser {
				fr = binwire.AppendScanUser(fr[:0], id, byte(t.spec.Kind), byte(t.spec.Dir), t.spec.User, 0, 0, "", t.data)
			} else {
				fr = binwire.AppendScan(fr[:0], id, byte(t.spec.Op), byte(t.spec.Kind), byte(t.spec.Dir), binwire.ElemInt64, 0, "", t.data, nil)
			}
			rf = binwire.AppendResult(rf[:0], id, t.want)
			t1 := time.Now()
			q, qerr := binwire.ParseRequest(fr[4:])
			p, perr := binwire.ParseResponse(rf[4:])
			t2 := time.Now()
			eb += t1.Sub(t0)
			db += t2.Sub(t1)
			bin.bytes += float64(len(fr) + len(rf))
			if qerr != nil || perr != nil || !slices.Equal(q.Data, t.data) || !slices.Equal(p.Result, t.want) {
				return bin, js, fmt.Errorf("binwire round trip of %s lost data (%v, %v)", t.op, qerr, perr)
			}
			release(q.Data, p.Result)

			t0 = time.Now()
			jq, qerr := json.Marshal(serve.WireRequest{ID: id, Op: t.op, Kind: t.kind, Dir: t.dir, Data: t.data})
			jr, perr := json.Marshal(serve.WireResponse{ID: id, Result: t.want})
			t1 = time.Now()
			var wq serve.WireRequest
			var wr serve.WireResponse
			if qerr == nil && perr == nil {
				qerr, perr = json.Unmarshal(jq, &wq), json.Unmarshal(jr, &wr)
			}
			t2 = time.Now()
			ej += t1.Sub(t0)
			dj += t2.Sub(t1)
			js.bytes += float64(len(jq) + len(jr))
			if qerr != nil || perr != nil || !slices.Equal(wq.Data, t.data) || !slices.Equal(wr.Result, t.want) {
				return bin, js, fmt.Errorf("JSON round trip of %s lost data (%v, %v)", t.op, qerr, perr)
			}
			release(wq.Data, wr.Result)
		}
		n := float64(len(sample))
		encB = append(encB, us(eb)/n)
		decB = append(decB, us(db)/n)
		encJ = append(encJ, us(ej)/n)
		decJ = append(decJ, us(dj)/n)
	}
	n := float64(len(sample))
	bin = codecCost{encUS: median(encB), decUS: median(decB), bytes: bin.bytes / n}
	js = codecCost{encUS: median(encJ), decUS: median(decJ), bytes: js.bytes / n}
	res.set("binwire.encode_ns_per_req", bin.encUS*1e3, "ns")
	res.set("binwire.decode_ns_per_req", bin.decUS*1e3, "ns")
	res.set("binwire.bytes_per_req", bin.bytes, "B")
	res.set("json.encode_ns_per_req", js.encUS*1e3, "ns")
	res.set("json.decode_ns_per_req", js.decUS*1e3, "ns")
	res.set("json.bytes_per_req", js.bytes, "B")
	return bin, js, nil
}

// release returns decoded, arena-backed vectors to the arena.
func release(vs ...[]int64) {
	for _, v := range vs {
		if len(v) > 0 {
			arena.PutInt64s(v)
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rigMaxLine is the ladder's line budget: large enough for a JSON
// answer to a 2^20-element scan.
const rigMaxLine = 64 << 20

// rig is the layer ladder's stack: an in-process server, two loopback
// workers behind a coordinator, and a binwire and a JSON client on the
// first worker. It carries no load but the ladder's own requests.
type rig struct {
	srv     *serve.Server
	cl      *clusterSystem
	bin, js *serve.Client
}

func startRig() (*rig, error) {
	r := &rig{srv: serve.New(serve.Config{})}
	var err error
	if r.cl, err = startCluster(rigMaxLine); err != nil {
		r.srv.Close()
		return nil, err
	}
	addr := r.cl.workers[0].Addr()
	if r.bin, err = serve.DialMaxLineProto(addr, rigMaxLine, serve.ProtoBin); err == nil {
		r.js, err = serve.DialMaxLineProto(addr, rigMaxLine, serve.ProtoJSON)
	}
	for _, name := range userOps {
		if err != nil {
			break
		}
		src := combine.Examples[name]
		if _, err = r.srv.RegisterScanOp("", name, src); err == nil {
			if _, err = r.bin.RegisterOp(context.Background(), "", name, src); err == nil {
				_, err = r.js.RegisterOp(context.Background(), "", name, src)
			}
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	for _, c := range []*serve.Client{r.bin, r.js} {
		if c != nil {
			c.Close()
		}
	}
	r.cl.close()
	r.srv.Close()
}

// kernel runs t's scan the way the batch executor would for a lone
// request: the view kernel for builtins and promoted user ops, the
// vector engine or the per-element fold for the rest.
func kernel(t *template, dst []int64, sc *combine.VecScratch) error {
	spec := t.spec
	if t.prog != nil {
		inclusive, backward := spec.Kind == serve.Inclusive, spec.Dir == serve.Backward
		switch t.class {
		case "vector":
			return t.plan.ScanBlocked(sc, t.prog, dst, t.data, inclusive, backward, 0, false)
		case "scalar":
			return foldUser(t.prog, dst, t.data, inclusive, backward)
		}
		switch t.plan.Promotion() {
		case combine.PromoteAdd:
			spec.Op = serve.OpSum
		case combine.PromoteMul:
			spec.Op = serve.OpMul
		case combine.PromoteMax:
			spec.Op = serve.OpMax
		case combine.PromoteMin:
			spec.Op = serve.OpMin
		}
	}
	views := []scan.View[int64]{{Dst: dst, Src: t.data}}
	switch spec.Op {
	case serve.OpSum:
		viewScan(scan.Add[int64]{}, spec, views)
	case serve.OpMax:
		viewScan(scan.Max[int64]{Id: serve.Identity(serve.OpMax)}, spec, views)
	case serve.OpMin:
		viewScan(scan.Min[int64]{Id: serve.Identity(serve.OpMin)}, spec, views)
	case serve.OpMul:
		viewScan(scan.Mul[int64]{}, spec, views)
	default:
		return fmt.Errorf("no kernel for %s", t.op)
	}
	return nil
}

func viewScan[O scan.Op[int64]](op O, spec serve.Spec, views []scan.View[int64]) {
	switch {
	case spec.Kind == serve.Exclusive && spec.Dir == serve.Forward:
		scan.SegScanViewsExclusive(op, views, 0)
	case spec.Kind == serve.Inclusive && spec.Dir == serve.Forward:
		scan.SegScanViewsInclusive(op, views, 0)
	case spec.Kind == serve.Exclusive:
		scan.SegScanViewsExclusiveBackward(op, views, 0)
	default:
		scan.SegScanViewsInclusiveBackward(op, views, 0)
	}
}

// Rungs of the layer ladder, innermost first.
const (
	rungKernel = iota
	rungSubmit
	rungBin
	rungJSON
	rungCoord
	nRungs
)

// ladderRows sends each sampled request, unloaded, through every rung
// in turn and derives each layer's self time from the differences
// between rungs (means over the sample of each request's median):
//
//	serve.self = SubmitCtx - kernel
//	net.self   = bin client - SubmitCtx - binwire codec
//	cluster.self = Coordinator.Scan - bin client
//
// The JSON rung is not used in any difference, so it checks them:
// kernel + serve.self + net.self + JSON codec should add up to it, and
// ladder.residual_ratio is the share of it they leave unexplained. It
// returns the coordinator's counters before and after its rung.
func ladderRows(res *result, sample []*template, bin, js codecCost, out io.Writer) ([2]counters, error) {
	var cl [2]counters
	r, err := startRig()
	if err != nil {
		return cl, fmt.Errorf("start ladder: %w", err)
	}
	defer r.close()
	sc := combine.NewVecScratch()
	ctx := context.Background()
	call := func(k int, t *template, dst []int64) ([]int64, error) {
		switch k {
		case rungKernel:
			return dst, kernel(t, dst, sc)
		case rungSubmit:
			return r.srv.SubmitCtx(ctx, t.spec, t.data)
		case rungBin:
			return r.bin.ScanCtx(ctx, t.op, t.kind, t.dir, t.data)
		case rungJSON:
			return r.js.ScanCtx(ctx, t.op, t.kind, t.dir, t.data)
		}
		return r.cl.coord.Scan(ctx, t.spec, t.data, clusterTenant)
	}
	reps := 3
	if len(sample) > 0 && len(sample[0].data) < 1<<12 {
		reps = 9
	}
	per := make([][][]float64, nRungs) // rung, request, rep: µs
	for k := range per {
		per[k] = make([][]float64, len(sample))
	}
	dsts := make([][]int64, len(sample))
	for i, t := range sample {
		dsts[i] = make([]int64, len(t.data))
	}
	for rep := -1; rep < reps; rep++ { // rep -1 warms every path up
		for i, t := range sample {
			for k := 0; k < nRungs; k++ {
				if k == rungCoord && rep == 0 && i == 0 {
					cl[0] = r.cl.counters()
				}
				t0 := time.Now()
				got, err := call(k, t, dsts[i])
				el := us(time.Since(t0))
				if err != nil {
					return cl, fmt.Errorf("ladder rung %d, %s: %w", k, t.op, err)
				}
				if !slices.Equal(got, t.want) {
					res.Correct = false
					res.Failed++
					res.wrong++
				}
				res.Attempted++
				if k != rungKernel {
					release(got)
				}
				if rep >= 0 {
					per[k][i] = append(per[k][i], el)
				}
			}
		}
	}
	cl[1] = r.cl.counters()

	var m, p50 [nRungs]float64
	for k := range per {
		var meds, all []float64
		for _, xs := range per[k] {
			meds = append(meds, median(xs))
			all = append(all, xs...)
		}
		m[k], p50[k] = mean(meds), median(all)
	}
	binCodec, jsCodec := bin.encUS+bin.decUS, js.encUS+js.decUS
	serveSelf := m[rungSubmit] - m[rungKernel]
	netSelf := m[rungBin] - m[rungSubmit] - binCodec
	predicted := m[rungKernel] + serveSelf + netSelf + jsCodec
	res.set("ladder.kernel_us", m[rungKernel], "us")
	res.set("serve.submit_us_p50", p50[rungSubmit], "us")
	res.set("serve.self_us", serveSelf, "us")
	res.set("net.bin.rtt_us_p50", p50[rungBin], "us")
	res.set("net.json.rtt_us_p50", p50[rungJSON], "us")
	res.set("net.self_us", netSelf, "us")
	res.set("cluster.scan_us_p50", p50[rungCoord], "us")
	res.set("cluster.self_us", m[rungCoord]-m[rungBin], "us")
	res.set("ladder.residual_ratio", (m[rungJSON]-predicted)/m[rungJSON], "ratio")
	fmt.Fprintf(out, "ladder: %d requests x %d reps, mean us: kernel %.1f, SubmitCtx %.1f, bin client %.1f, JSON client %.1f, Coordinator.Scan %.1f; codec us: bin %.1f, JSON %.1f\n",
		len(sample), reps, m[rungKernel], m[rungSubmit], m[rungBin], m[rungJSON], m[rungCoord], binCodec, jsCodec)
	return cl, nil
}
