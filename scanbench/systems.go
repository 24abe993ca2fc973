package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"scans/internal/arena"
	"scans/internal/cluster"
	"scans/internal/combine"
	"scans/internal/serve"
)

// counters is one snapshot of the public counters of a system's layers.
type counters struct {
	serve      serve.Stats // summed over the system's batch servers
	cluster    cluster.Stats
	planned    []uint64 // per worker: elements the coordinator planned onto it
	hasCluster bool
}

// addServe folds b's counters into a; occupancy takes the larger.
func addServe(a *serve.Stats, b serve.Stats) {
	a.Requests += b.Requests
	a.Rejected += b.Rejected
	a.Served += b.Served
	a.DeadlineDrops += b.DeadlineDrops
	a.Shed += b.Shed
	a.Batches += b.Batches
	a.Groups += b.Groups
	a.FusedElements += b.FusedElements
	a.VMPromotedReqs += b.VMPromotedReqs
	a.VMVectorReqs += b.VMVectorReqs
	a.VMScalarReqs += b.VMScalarReqs
	a.P99Occupancy = max(a.P99Occupancy, b.P99Occupancy)
}

// finish checks a result against r's expected answer, returns it to the
// arena and classifies the outcome.
func finish(res []int64, err error, r req) outcome {
	if err != nil {
		return failed
	}
	t0 := r.tr.now()
	ok := matches(res, r.t.want, r.full, r.h)
	r.tr.record(r.id, "oracle.check", "request", t0)
	if len(res) > 0 {
		arena.PutInt64s(res)
	}
	if !ok {
		return wrong
	}
	return served
}

// edgeSystem is edge-small's: one NetServer on loopback, driven through
// one binwire and one JSON client connection.
type edgeSystem struct {
	ns      *serve.NetServer
	bin, js *serve.Client
}

func startEdge() (*edgeSystem, error) {
	ns, err := serve.ListenNet("127.0.0.1:0", serve.Config{}, serve.NetConfig{})
	if err != nil {
		return nil, err
	}
	s := &edgeSystem{ns: ns}
	if s.bin, err = serve.DialBin(ns.Addr()); err == nil {
		s.js, err = serve.Dial(ns.Addr())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *edgeSystem) do(ctx context.Context, r req) outcome {
	c := s.js
	if r.t.bin {
		c = s.bin
	}
	t0 := r.tr.now()
	res, err := c.ScanCtx(ctx, r.t.op, r.t.kind, r.t.dir, r.t.data)
	r.tr.record(r.id, "serve.Client.ScanCtx", "request", t0)
	return finish(res, err, r)
}

func (s *edgeSystem) counters() counters {
	return counters{serve: s.ns.Stats()}
}

func (s *edgeSystem) close() {
	for _, c := range []*serve.Client{s.bin, s.js} {
		if c != nil {
			c.Close()
		}
	}
	s.ns.Close()
}

// bulkSystem is bulk-kernel's: an in-process batch server, no wire.
type bulkSystem struct{ srv *serve.Server }

func (s *bulkSystem) do(ctx context.Context, r req) outcome {
	t0 := r.tr.now()
	res, err := s.srv.SubmitCtx(ctx, r.t.spec, r.t.data)
	r.tr.record(r.id, "serve.Server.SubmitCtx", "request", t0)
	return finish(res, err, r)
}

func (s *bulkSystem) counters() counters { return counters{serve: s.srv.Stats()} }
func (s *bulkSystem) close()             { s.srv.Close() }

// clusterTenant is the tenant the cluster workload registers its user
// ops under and scans as.
const clusterTenant = "bench"

// streamChunk is the chunk size of streamed cluster requests.
const streamChunk = 64 << 10

// clusterSystem is cluster-mixed's: two NetServer workers on loopback
// behind a star-plane binwire coordinator, called in process.
type clusterSystem struct {
	workers []*serve.NetServer
	coord   *cluster.Coordinator
}

func startCluster(maxLine int) (*clusterSystem, error) {
	s := &clusterSystem{}
	var addrs []string
	for i := 0; i < 2; i++ {
		ns, err := serve.ListenNet("127.0.0.1:0", serve.Config{}, serve.NetConfig{MaxLineBytes: maxLine})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, ns)
		addrs = append(addrs, ns.Addr())
	}
	coord, err := cluster.New(cluster.Config{
		Workers:      addrs,
		Proto:        serve.ProtoBin,
		DataPlane:    cluster.DataPlaneStar,
		MaxLineBytes: maxLine,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	for _, name := range userOps {
		if _, err := coord.RegisterScanOp(clusterTenant, name, combine.Examples[name]); err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	return s, nil
}

func (s *clusterSystem) do(ctx context.Context, r req) outcome {
	t0 := r.tr.now()
	if !r.stream {
		res, err := s.coord.Scan(ctx, r.t.spec, r.t.data, clusterTenant)
		r.tr.record(r.id, "cluster.Coordinator.Scan", "request", t0)
		return finish(res, err, r)
	}
	defer r.tr.record(r.id, "cluster.Coordinator.stream", "request", t0)
	st, err := s.coord.OpenScanStream(r.t.spec, clusterTenant)
	if err != nil {
		return failed
	}
	ok := true
	for off := 0; off < len(r.t.data); off += streamChunk {
		end := min(off+streamChunk, len(r.t.data))
		res, err := st.Push(ctx, r.t.data[off:end])
		if err != nil {
			st.Abort(err)
			return failed
		}
		ok = ok && matches(res, r.t.want[off:end], r.full, r.h)
		if len(res) > 0 {
			arena.PutInt64s(res)
		}
	}
	total, err := st.Close()
	if err != nil {
		return failed
	}
	if !ok || total != streamTotal(r.t) {
		return wrong
	}
	return served
}

// streamTotal is the fold of a forward builtin template's whole input,
// which a stream's close answers with.
func streamTotal(t *template) int64 {
	n := len(t.data)
	if t.spec.Kind == serve.Inclusive {
		return t.want[n-1]
	}
	return serve.Combine(t.spec.Op, t.want[n-1], t.data[n-1])
}

// streamable reports whether a cluster template may be streamed: only
// forward builtin scans stream.
func streamable(t *template) bool {
	return t.spec.Op != serve.OpUser && t.spec.Dir == serve.Forward
}

func (s *clusterSystem) counters() counters {
	c := counters{cluster: s.coord.Stats(), hasCluster: true}
	for _, w := range s.workers {
		addServe(&c.serve, w.Stats())
	}
	ws := s.coord.WorkerStats()
	slices.SortFunc(ws, func(a, b cluster.WorkerStat) int { return strings.Compare(a.Addr, b.Addr) })
	for _, w := range ws {
		c.planned = append(c.planned, w.PlannedElems)
	}
	return c
}

func (s *clusterSystem) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}
