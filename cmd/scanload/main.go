// Command scanload is a closed-loop load generator for the batched
// scan service: N client goroutines each issue small scans back to
// back and the tool reports end-to-end throughput plus the server's
// fusion statistics.
//
// With no -addr it benchmarks the in-process server twice — once with
// batching enabled (fused) and once with MaxBatchRequests=1 (unfused,
// every request is its own kernel pass) — and prints the speedup, the
// number EXPERIMENTS.md tracks. With -addr it drives a running scansd
// over TCP, one connection per client. With -stream each vector is
// pushed through a streaming session in -chunk-element chunks instead
// of a one-shot request, measuring the cross-chunk-carry path.
//
// -op accepts a comma-separated operator list (e.g.
// -op sum,user:add,user:gcd): requests round-robin across the ops, so
// one phase measures a realistic interleave of native kernels and
// combine-VM dispatch. user:<name> ops whose name matches a built-in
// example monoid auto-register that example when -register is absent;
// outcomes are tallied per op as well as in aggregate.
//
// Every request's terminal outcome is counted separately — served,
// rejected-overloaded, shed by queue age, deadline-expired, failed by
// an isolated kernel panic, lost (no terminal outcome after the retry
// budget: connection died and redials failed) — so degradation under
// load or chaos is visible rather than averaged away. Transient
// failures (overload, shed, kernel panic, dropped connections) are
// retried with exponential backoff + jitter via serve.RetryPolicy;
// scanload exits non-zero if any request is LOST, because a fault-
// tolerant server may degrade but must never swallow a request.
//
// -proto selects the wire protocol for remote and cluster modes: json
// (the legacy newline-JSON baseline) or bin (the internal/binwire
// length-prefixed binary protocol — raw little-endian payloads, no
// per-element parsing, multiplexed request ids). The -bench-json
// report records it in a "wire" field, so a sweep over both protocols
// (-bench-append accumulates phases into one file) yields the json-vs-
// bin table EXPERIMENTS.md tracks.
//
// With -workers N (N >= 1) scanload instead stands up a full in-process
// cluster topology — N scansd workers on loopback TCP plus a sharding
// coordinator (internal/cluster) — and drives the coordinator directly.
// Scans split into per-worker shards exactly as in a multi-host
// deployment; EXPERIMENTS.md uses this mode for the 1-vs-2-vs-4-worker
// scaling table. Coordinator failures surface in their own
// shard_failed outcome bucket.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/arena"
	"scans/internal/cluster"
	"scans/internal/combine"
	"scans/internal/serve"
)

// outcomes tallies terminal per-request outcomes plus retry attempts.
// resumed and failedOver are failover-mode extras: streams re-attached
// by resume token, and requests (one-shot or streamed) that completed
// against a non-primary coordinator.
type outcomes struct {
	success     atomic.Uint64
	overloaded  atomic.Uint64
	shed        atomic.Uint64
	deadline    atomic.Uint64
	internal    atomic.Uint64
	badReq      atomic.Uint64
	badOp       atomic.Uint64
	shardFailed atomic.Uint64
	lost        atomic.Uint64
	retries     atomic.Uint64
	redials     atomic.Uint64
	resumed     atomic.Uint64
	failedOver  atomic.Uint64
	// xchgFallback is a cluster-mode extra: scans the exchange data
	// plane abandoned mid-exchange and re-ran on the star plane (taken
	// from the coordinator's ledger after the run, not per-request — the
	// fallback is invisible to the caller by design).
	xchgFallback atomic.Uint64
}

// record classifies one terminal error (nil = success).
func (o *outcomes) record(err error) {
	switch {
	case err == nil:
		o.success.Add(1)
	// User-op failures are checked before shard_failed: a cluster wraps
	// them in ErrShardFailed for its ledger, but the op being wrong
	// (rejected registration, step budget, hash skew) is the story the
	// operator needs, not which shard carried the bad news.
	case errors.Is(err, serve.ErrBadOp), errors.Is(err, serve.ErrOpBudget), errors.Is(err, serve.ErrOpHash):
		o.badOp.Add(1)
	// shard_failed is checked before the generic sentinels: the
	// coordinator's wrapper keeps the last per-worker error in its
	// chain, which may itself match a more generic sentinel below.
	case errors.Is(err, serve.ErrShardFailed):
		o.shardFailed.Add(1)
	case errors.Is(err, serve.ErrOverloaded):
		o.overloaded.Add(1)
	case errors.Is(err, serve.ErrShed):
		o.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		o.deadline.Add(1)
	case errors.Is(err, serve.ErrInternal):
		o.internal.Add(1)
	case errors.Is(err, serve.ErrBadRequest):
		o.badReq.Add(1)
	default:
		// No classified response ever arrived: the request's fate is
		// unknown. This is the one outcome a robust deployment must
		// treat as an incident.
		o.lost.Add(1)
	}
}

func (o *outcomes) String() string {
	s := fmt.Sprintf(
		"outcomes: success=%d overloaded=%d shed=%d deadline=%d internal=%d bad_request=%d bad_op=%d shard_failed=%d lost=%d (retries=%d redials=%d)",
		o.success.Load(), o.overloaded.Load(), o.shed.Load(), o.deadline.Load(),
		o.internal.Load(), o.badReq.Load(), o.badOp.Load(), o.shardFailed.Load(), o.lost.Load(), o.retries.Load(), o.redials.Load())
	if r, f := o.resumed.Load(), o.failedOver.Load(); r > 0 || f > 0 {
		s += fmt.Sprintf(" resumed=%d failed_over=%d", r, f)
	}
	if x := o.xchgFallback.Load(); x > 0 {
		s += fmt.Sprintf(" exchange_fallback=%d", x)
	}
	return s
}

// counts renders the tallies as a map for the -bench-json report.
func (o *outcomes) counts() map[string]uint64 {
	return map[string]uint64{
		"success": o.success.Load(), "overloaded": o.overloaded.Load(),
		"shed": o.shed.Load(), "deadline": o.deadline.Load(),
		"internal": o.internal.Load(), "bad_request": o.badReq.Load(),
		"bad_op":       o.badOp.Load(),
		"shard_failed": o.shardFailed.Load(), "lost": o.lost.Load(),
		"retries": o.retries.Load(), "redials": o.redials.Load(),
		"resumed": o.resumed.Load(), "failed_over": o.failedOver.Load(),
		"exchange_fallback": o.xchgFallback.Load(),
	}
}

// opSpec is one operator in the (possibly mixed) workload: the raw -op
// token, its parsed spec, and — for user:<name> ops — the combine-op
// source to register before the run ("" leaves the op unregistered, so
// requests land in the bad_op bucket by design).
type opSpec struct {
	op   string
	spec serve.Spec
	name string
	src  string
}

// resolveOps parses the comma-separated -op list and resolves each
// user:<name> op's combine source. -register (a file path or
// example:<name>) applies when the list has exactly one user op; in
// mixed-op runs each user:<name> auto-registers the example monoid of
// the same name if one exists.
func resolveOps(opsCSV, register, kind, dir string) ([]opSpec, error) {
	var ops []opSpec
	userOps := 0
	for _, tok := range strings.Split(opsCSV, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		spec, err := serve.ParseSpec(tok, kind, dir)
		if err != nil {
			return nil, err
		}
		o := opSpec{op: tok, spec: spec}
		if name, ok := strings.CutPrefix(tok, "user:"); ok {
			o.name = name
			userOps++
			if src, ok := combine.Examples[name]; ok {
				o.src = src
			}
		}
		ops = append(ops, o)
	}
	if len(ops) == 0 {
		return nil, errors.New("-op: empty operator list")
	}
	if register != "" {
		if userOps != 1 {
			return nil, errors.New("-register needs exactly one user:<name> op; mixed-op runs auto-register example monoids by name")
		}
		src := ""
		if ex, ok := strings.CutPrefix(register, "example:"); ok {
			if src, ok = combine.Examples[ex]; !ok {
				return nil, fmt.Errorf("unknown example monoid %q", ex)
			}
		} else {
			b, err := os.ReadFile(register)
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		for i := range ops {
			if ops[i].name != "" {
				ops[i].src = src
			}
		}
	}
	return ops, nil
}

// newOutcomeSet allocates one outcome bucket per workload op.
func newOutcomeSet(nOps int) []*outcomes {
	outs := make([]*outcomes, nOps)
	for i := range outs {
		outs[i] = &outcomes{}
	}
	return outs
}

// aggregateOutcomes folds per-op buckets into one totals block for the
// top-line report and the lost-request exit check. A single-op set is
// returned as-is.
func aggregateOutcomes(outs []*outcomes) *outcomes {
	if len(outs) == 1 {
		return outs[0]
	}
	agg := &outcomes{}
	for _, o := range outs {
		agg.success.Add(o.success.Load())
		agg.overloaded.Add(o.overloaded.Load())
		agg.shed.Add(o.shed.Load())
		agg.deadline.Add(o.deadline.Load())
		agg.internal.Add(o.internal.Load())
		agg.badReq.Add(o.badReq.Load())
		agg.badOp.Add(o.badOp.Load())
		agg.shardFailed.Add(o.shardFailed.Load())
		agg.lost.Add(o.lost.Load())
		agg.retries.Add(o.retries.Load())
		agg.redials.Add(o.redials.Load())
		agg.resumed.Add(o.resumed.Load())
		agg.failedOver.Add(o.failedOver.Load())
		agg.xchgFallback.Add(o.xchgFallback.Load())
	}
	return agg
}

// perOpCounts renders the per-op buckets for the -bench-json report.
func perOpCounts(ops []opSpec, outs []*outcomes) map[string]map[string]uint64 {
	m := make(map[string]map[string]uint64, len(ops))
	for i, o := range ops {
		m[o.op] = outs[i].counts()
	}
	return m
}

// printPerOp prints one outcome line per op after the aggregate, so a
// mixed workload shows which operator degraded.
func printPerOp(ops []opSpec, outs []*outcomes) {
	if len(ops) <= 1 {
		return
	}
	for i, o := range ops {
		fmt.Printf("   [%-12s] %s\n", o.op, outs[i])
	}
}

// workloadLabel names the workload for the phase banner: the spec for a
// single op, the op list for a round-robin mix.
func workloadLabel(ops []opSpec) string {
	if len(ops) == 1 {
		return ops[0].spec.String()
	}
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.op
	}
	return strings.Join(names, "+") + " round-robin"
}

// latRec collects per-request end-to-end latencies across all client
// goroutines for the -bench-json percentile report.
type latRec struct {
	mu sync.Mutex
	ds []time.Duration
}

var benchLat latRec

func (l *latRec) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// percentiles returns the p-th percentile latencies in milliseconds.
func (l *latRec) percentiles(ps ...int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(ps))
	if len(l.ds) == 0 {
		return out
	}
	sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
	for i, p := range ps {
		idx := len(l.ds) * p / 100
		if idx >= len(l.ds) {
			idx = len(l.ds) - 1
		}
		out[i] = float64(l.ds[idx]) / float64(time.Millisecond)
	}
	return out
}

// benchReport is the BENCH_serve.json schema: one measured load phase —
// throughput, latency percentiles, per-request allocation cost from
// runtime.MemStats deltas (whole process: clients AND server), the
// outcome tallies, and the arena gauges showing what the pools
// absorbed. EXPERIMENTS.md documents the fields.
type benchReport struct {
	Mode string `json:"mode"`
	Wire string `json:"wire"`
	// Op is the scan operator the phase drove ("sum", "user:gcd", or a
	// comma list for mixed-op runs), so a native-vs-VM sweep yields
	// distinguishable rows.
	Op string `json:"op,omitempty"`
	// Gomaxprocs and NumCPU pin the host parallelism the row was
	// measured under; VMDispatch records the combine-VM dispatch mode
	// ("vector" or "scalar") applied to the servers the phase stood up
	// (for -addr it echoes the flag — set it to match the remote scansd).
	Gomaxprocs       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"num_cpu"`
	VMDispatch       string  `json:"vm_dispatch"`
	Requests         int     `json:"requests"`
	Clients          int     `json:"clients"`
	ElemsPerRequest  int     `json:"elems_per_request"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	ElemsPerSec      float64 `json:"elems_per_sec"`
	P50LatencyMs     float64 `json:"p50_latency_ms"`
	P99LatencyMs     float64 `json:"p99_latency_ms"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
	AllocBytesPerReq float64 `json:"alloc_bytes_per_request"`
	ArenaBytesPooled uint64  `json:"arena_bytes_pooled"`
	ArenaMisses      uint64  `json:"arena_misses"`
	FusionSpeedup    float64 `json:"fusion_speedup,omitempty"`
	// FailoverGapMs (failover mode) is the time from killing the primary
	// coordinator to the first request completed via the standby — the
	// client-observed outage window.
	FailoverGapMs float64           `json:"failover_gap_ms,omitempty"`
	Outcomes      map[string]uint64 `json:"outcomes"`
	// PerOpOutcomes splits the tallies by operator for mixed-op runs
	// (-op a,b,c); absent when the phase drove a single op.
	PerOpOutcomes map[string]map[string]uint64 `json:"per_op_outcomes,omitempty"`
}

// memSnap snapshots the allocator after a GC settles the heap, so two
// snapshots bracket a phase's true allocation traffic.
func memSnap() runtime.MemStats {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (r *benchReport) fillMem(m0, m1 runtime.MemStats, requests int) {
	r.AllocsPerRequest = float64(m1.Mallocs-m0.Mallocs) / float64(requests)
	r.AllocBytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(requests)
	ac := arena.Stats()
	r.ArenaBytesPooled = ac.BytesPooled
	r.ArenaMisses = ac.Misses
}

// benchPhase assembles one measured phase's report from the latency
// recorder, the pre-phase allocator snapshot, and the outcome tallies.
// wire names the protocol the phase's scan payloads traveled over:
// "json", "bin", or "none" for in-process phases with no wire at all;
// vm is the combine-VM dispatch mode the phase ran under.
func benchPhase(mode, wire, vm string, clients, requests, n int, elapsed time.Duration, m0 runtime.MemStats, out *outcomes) benchReport {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	ps := benchLat.percentiles(50, 99)
	rps := float64(requests) / elapsed.Seconds()
	r := benchReport{
		Mode:            mode,
		Wire:            wire,
		Gomaxprocs:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		VMDispatch:      vm,
		Requests:        requests,
		Clients:         clients,
		ElemsPerRequest: n,
		ElapsedSeconds:  elapsed.Seconds(),
		RequestsPerSec:  rps,
		ElemsPerSec:     rps * float64(n),
		P50LatencyMs:    ps[0],
		P99LatencyMs:    ps[1],
		Outcomes:        out.counts(),
	}
	r.fillMem(m0, m1, requests)
	return r
}

// writeBenchJSON writes the report file: always a JSON ARRAY of phase
// reports, so one benchmark sweep (e.g. json vs bin × worker counts)
// accumulates into a single machine-readable file. With appendTo set,
// an existing file's reports are kept and the new phase is appended
// (a legacy single-object file is absorbed as a one-element array);
// otherwise the file is started fresh.
func writeBenchJSON(path string, r benchReport, appendTo bool) {
	var reports []json.RawMessage
	if appendTo {
		if prev, err := os.ReadFile(path); err == nil {
			if json.Unmarshal(prev, &reports) != nil {
				var single json.RawMessage
				if json.Unmarshal(prev, &single) == nil && len(single) > 0 && single[0] == '{' {
					reports = []json.RawMessage{single}
				}
			}
		}
	}
	b, err := json.Marshal(r)
	if err == nil {
		reports = append(reports, json.RawMessage(b))
		var out []byte
		out, err = json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(out, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanload: -bench-json:", err)
		os.Exit(1)
	}
	fmt.Println("bench report written to", path)
}

func main() {
	var (
		addr      = flag.String("addr", "", "scansd address; empty = benchmark the in-process server fused vs unfused")
		clients   = flag.Int("clients", 32, "concurrent closed-loop clients")
		requests  = flag.Int("requests", 10000, "total requests across all clients")
		n         = flag.Int("n", 256, "elements per scan request")
		op        = flag.String("op", "sum", "scan operator, or a comma list to round-robin a mixed workload: sum, max, min, mul, user:<name> (see -register; in a mix, user:<name> auto-registers the example monoid of that name)")
		register  = flag.String("register", "", "combine-op source for a single -op user:<name>: a file path, or example:<name> for a built-in example monoid (add, gcd, bor, band, satadd, argmax); registered before the run")
		vmDisp    = flag.String("vm-dispatch", serve.VMDispatchVector, "combine-VM dispatch mode for the servers this tool stands up (in-process and cluster workers): vector or scalar; recorded in -bench-json rows")
		kind      = flag.String("kind", "exclusive", "exclusive or inclusive")
		dir       = flag.String("dir", "forward", "forward or backward")
		maxWait   = flag.Duration("max-wait", 100*time.Microsecond, "batching window (in-process mode)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
		attempts  = flag.Int("retries", 4, "retry budget per request (total attempts)")
		stream    = flag.Bool("stream", false, "use streaming sessions: push each vector through the server in -chunk-element chunks")
		chunk     = flag.Int("chunk", 0, "stream chunk size in elements (0 = serve.DefaultStreamChunk)")
		workersN  = flag.Int("workers", 0, "run an in-process cluster: this many scansd workers behind a sharding coordinator (0 = off)")
		killAfter = flag.Duration("kill-coordinator-after", 0, "cluster mode: kill the primary coordinator's front end after this long; clients fail over to a replicated standby (0 = off)")
		proto     = flag.String("proto", serve.ProtoJSON, "wire protocol for remote and cluster modes: json or bin")
		dataPlane = flag.String("data-plane", cluster.DataPlaneStar, "cluster mode: carry data plane (star or exchange)")
		benchPath = flag.String("bench-json", "", "write a machine-readable bench report (throughput, p50/p99 latency, outcome counts, allocs/request) to this path")
		benchApp  = flag.Bool("bench-append", false, "append this phase to an existing -bench-json file instead of starting it fresh")
	)
	flag.Parse()
	if *chunk <= 0 {
		*chunk = serve.DefaultStreamChunk
	}

	ops, err := resolveOps(*op, *register, *kind, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanload:", err)
		os.Exit(1)
	}
	policy := serve.RetryPolicy{MaxAttempts: *attempts}

	if *killAfter > 0 && *workersN <= 0 {
		fmt.Fprintln(os.Stderr, "scanload: -kill-coordinator-after needs cluster mode (-workers N)")
		os.Exit(1)
	}
	if *killAfter > 0 && (len(ops) > 1 || ops[0].src != "") {
		fmt.Fprintln(os.Stderr, "scanload: mixed ops and user-op registration are not supported in failover mode")
		os.Exit(1)
	}

	if *workersN > 0 {
		if *addr != "" {
			fmt.Fprintln(os.Stderr, "scanload: -workers and -addr are mutually exclusive")
			os.Exit(1)
		}
		if *killAfter > 0 {
			var out outcomes
			fmt.Printf("cluster failover: %d workers (%s wire), primary+standby coordinators, kill primary after %v, %d clients × %d-element %s scans, %d requests total\n",
				*workersN, *proto, *killAfter, *clients, *n, ops[0].spec, *requests)
			m0 := memSnap()
			elapsed, cst, gapMs, err := driveFailover(*workersN, *proto, *vmDisp, ops[0].spec, ops[0].op, *kind, *dir,
				*clients, *requests, *n, *maxWait, *timeout, *killAfter, policy, &out, *stream, *chunk)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scanload:", err)
				os.Exit(1)
			}
			if *benchPath != "" {
				rep := benchPhase(fmt.Sprintf("cluster-%dw-failover", *workersN), *proto, *vmDisp,
					*clients, *requests, *n, elapsed, m0, &out)
				rep.Op = *op
				rep.FailoverGapMs = gapMs
				writeBenchJSON(*benchPath, rep, *benchApp)
			}
			report(fmt.Sprintf("%dw-fo", *workersN), *requests, *n, elapsed)
			fmt.Println("  ", cst)
			fmt.Println("  ", out.String())
			if gapMs > 0 {
				fmt.Printf("   failover gap: %.1fms (primary killed → first standby-served request)\n", gapMs)
			}
			if lost := out.lost.Load(); lost > 0 {
				fmt.Fprintf(os.Stderr, "scanload: %d request(s) LOST (no terminal outcome)\n", lost)
				os.Exit(1)
			}
			return
		}
		fmt.Printf("cluster: %d workers (%s wire, %s data plane), %d clients × %d-element %s scans, %d requests total\n",
			*workersN, *proto, *dataPlane, *clients, *n, workloadLabel(ops), *requests)
		outs := newOutcomeSet(len(ops))
		m0 := memSnap()
		elapsed, cst, err := driveCluster(*workersN, *proto, *dataPlane, *vmDisp, ops, *clients, *requests, *n, *maxWait, *timeout, policy, outs, *stream, *chunk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanload:", err)
			os.Exit(1)
		}
		out := aggregateOutcomes(outs)
		out.xchgFallback.Store(cst.XchgFallbacks)
		if *benchPath != "" {
			phase := fmt.Sprintf("cluster-%dw", *workersN)
			if *dataPlane == cluster.DataPlaneExchange {
				phase += "-exchange"
			}
			rep := benchPhase(phase, *proto, *vmDisp, *clients, *requests, *n, elapsed, m0, out)
			rep.Op = *op
			if len(ops) > 1 {
				rep.PerOpOutcomes = perOpCounts(ops, outs)
			}
			writeBenchJSON(*benchPath, rep, *benchApp)
		}
		report(fmt.Sprintf("%dw", *workersN), *requests, *n, elapsed)
		fmt.Println("  ", cst)
		fmt.Println("  ", out.String())
		printPerOp(ops, outs)
		if lost := out.lost.Load(); lost > 0 {
			fmt.Fprintf(os.Stderr, "scanload: %d request(s) LOST (no terminal outcome)\n", lost)
			os.Exit(1)
		}
		return
	}

	if *addr != "" {
		outs := newOutcomeSet(len(ops))
		m0 := memSnap()
		elapsed, err := driveRemote(*addr, *proto, *clients, *requests, *n, ops, *kind, *dir, *timeout, policy, outs, *stream, *chunk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanload:", err)
			os.Exit(1)
		}
		out := aggregateOutcomes(outs)
		label := "remote " + *addr
		if *stream {
			label += " (streamed)"
		}
		if *benchPath != "" {
			rep := benchPhase(label, *proto, *vmDisp, *clients, *requests, *n, elapsed, m0, out)
			rep.Op = *op
			if len(ops) > 1 {
				rep.PerOpOutcomes = perOpCounts(ops, outs)
			}
			writeBenchJSON(*benchPath, rep, *benchApp)
		}
		report(label, *requests, *n, elapsed)
		fmt.Println("  ", out.String())
		printPerOp(ops, outs)
		if lost := out.lost.Load(); lost > 0 {
			fmt.Fprintf(os.Stderr, "scanload: %d request(s) LOST (no terminal outcome)\n", lost)
			os.Exit(1)
		}
		return
	}

	fused := serve.Config{MaxWait: *maxWait, QueueLimit: 1 << 15, VMDispatch: *vmDisp}
	unfused := fused
	unfused.MaxBatchRequests = 1

	mode := ""
	if *stream {
		mode = fmt.Sprintf(" (streamed, %d-element chunks)", *chunk)
	}
	fmt.Printf("in-process: %d clients × %d-element %s scans, %d requests total%s\n",
		*clients, *n, workloadLabel(ops), *requests, mode)
	outsFused, outsUnfused := newOutcomeSet(len(ops)), newOutcomeSet(len(ops))
	m0 := memSnap()
	tFused, stFused := driveInProcess(fused, ops, *clients, *requests, *n, *timeout, policy, outsFused, *stream, *chunk)
	outFused := aggregateOutcomes(outsFused)
	// The bench report covers the fused phase only (the production
	// config); the unfused phase below exists to price fusion.
	rep := benchPhase("in-process-fused", "none", *vmDisp, *clients, *requests, *n, tFused, m0, outFused)
	rep.Op = *op
	if len(ops) > 1 {
		rep.PerOpOutcomes = perOpCounts(ops, outsFused)
	}
	report("fused", *requests, *n, tFused)
	fmt.Println("  ", stFused)
	fmt.Println("  ", outFused.String())
	printPerOp(ops, outsFused)
	tUnfused, stUnfused := driveInProcess(unfused, ops, *clients, *requests, *n, *timeout, policy, outsUnfused, *stream, *chunk)
	outUnfused := aggregateOutcomes(outsUnfused)
	report("unfused", *requests, *n, tUnfused)
	fmt.Println("  ", stUnfused)
	fmt.Println("  ", outUnfused.String())
	printPerOp(ops, outsUnfused)
	fmt.Printf("fusion speedup: %.2fx\n", float64(tUnfused)/float64(tFused))
	if *benchPath != "" {
		rep.FusionSpeedup = float64(tUnfused) / float64(tFused)
		writeBenchJSON(*benchPath, rep, *benchApp)
	}
	if lost := outFused.lost.Load() + outUnfused.lost.Load(); lost > 0 {
		fmt.Fprintf(os.Stderr, "scanload: %d request(s) LOST (no terminal outcome)\n", lost)
		os.Exit(1)
	}
}

// driveInProcess runs one closed-loop phase against a fresh in-process
// server and returns the elapsed time and the server's final stats.
// Requests round-robin across ops; each terminal outcome lands in its
// op's bucket in outs.
func driveInProcess(cfg serve.Config, ops []opSpec, clients, requests, n int,
	timeout time.Duration, policy serve.RetryPolicy, outs []*outcomes, stream bool, chunk int) (time.Duration, serve.Stats) {
	srv := serve.New(cfg)
	for _, o := range ops {
		if o.src == "" {
			continue
		}
		// In-process requests run under the "" tenant; register there.
		if _, err := srv.RegisterScanOp("", o.name, o.src); err != nil {
			fmt.Fprintln(os.Stderr, "scanload: register:", err)
			os.Exit(1)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := randomData(int64(c), n)
			for i := 0; i < requests/clients; i++ {
				oi := i % len(ops)
				spec := ops[oi].spec
				t0 := time.Now()
				attempts, err := policy.Do(context.Background(), func() error {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, timeout)
					}
					defer cancel()
					if !stream || len(data) <= chunk {
						res, err := srv.SubmitCtx(ctx, spec, data)
						releaseResult(res)
						return err
					}
					st, err := srv.OpenStream(spec, "")
					if err != nil {
						return err
					}
					for off := 0; off < len(data); off += chunk {
						end := min(off+chunk, len(data))
						res, err := st.Push(ctx, data[off:end])
						releaseResult(res)
						if err != nil {
							return err
						}
					}
					_, err = st.Close()
					return err
				})
				benchLat.add(time.Since(t0))
				outs[oi].retries.Add(uint64(attempts - 1))
				outs[oi].record(err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	srv.Close()
	return elapsed, srv.Stats()
}

// driveRemote runs the closed loop over TCP, one connection per
// client. A connection-level failure inside the retry loop triggers a
// redial: scans are pure, so resubmitting on a fresh connection is
// safe, and a request only counts as lost once the retry budget is
// exhausted without any classified response.
func driveRemote(addr, proto string, clients, requests, n int, ops []opSpec, kind, dir string,
	timeout time.Duration, policy serve.RetryPolicy, outs []*outcomes, stream bool, chunk int) (time.Duration, error) {
	conns := make([]*serve.Client, clients)
	for i := range conns {
		c, err := serve.DialMaxLineProto(addr, serve.DefaultMaxLineBytes, proto)
		if err != nil {
			return 0, err
		}
		conns[i] = c
		for _, o := range ops {
			if o.src == "" {
				continue
			}
			// Scans and streams run under each connection's default
			// tenant, so each op is registered once per connection.
			if _, err := c.RegisterOp(context.Background(), "", o.name, o.src); err != nil {
				return 0, fmt.Errorf("register %q: %w", o.name, err)
			}
		}
	}
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := randomData(int64(c), n)
			for i := 0; i < requests/clients; i++ {
				oi := i % len(ops)
				op := ops[oi].op
				t0 := time.Now()
				attempts, err := policy.Do(context.Background(), func() error {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, timeout)
					}
					defer cancel()
					var res []int64
					var err error
					if stream {
						// A retried StreamScan opens a fresh session, so
						// retrying a failed stream is safe end to end.
						res, err = conns[c].StreamScan(ctx, op, kind, dir, data, chunk)
					} else {
						res, err = conns[c].ScanCtx(ctx, op, kind, dir, data)
					}
					releaseResult(res)
					if err != nil && !policy.Retryable(err) {
						return err
					}
					if err != nil && isConnError(err) {
						// Unknown fate: the conn died. Redial so the
						// next attempt has a live connection.
						if fresh, derr := serve.DialMaxLineProto(addr, serve.DefaultMaxLineBytes, proto); derr == nil {
							conns[c].Close()
							conns[c] = fresh
							outs[oi].redials.Add(1)
						}
					}
					return err
				})
				benchLat.add(time.Since(t0))
				outs[oi].retries.Add(uint64(attempts - 1))
				outs[oi].record(err)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), nil
}

// releaseResult returns a scan result to the arena. Every non-empty
// result from serve/cluster — in-process or decoded off the wire — is
// arena-backed and owned by the caller; a load generator that never
// recycled them would starve the pools and overstate allocation cost.
func releaseResult(res []int64) {
	if len(res) > 0 {
		arena.PutInt64s(res)
	}
}

// isConnError reports whether err is a connection-level failure rather
// than a typed, classified server response.
func isConnError(err error) bool {
	return err != nil &&
		!errors.Is(err, serve.ErrOverloaded) &&
		!errors.Is(err, serve.ErrShed) &&
		!errors.Is(err, serve.ErrInternal) &&
		!errors.Is(err, serve.ErrBadRequest) &&
		!errors.Is(err, serve.ErrClosed) &&
		!errors.Is(err, serve.ErrShardFailed) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// driveCluster stands up nWorkers scansd workers on loopback TCP plus a
// sharding coordinator, then runs the closed loop against the
// coordinator. Giant scans split into per-worker shards exactly as they
// would across hosts; the coordinator's own retry/hedge machinery is
// live, and its stats are returned for the report.
func driveCluster(nWorkers int, proto, dataPlane, vmDisp string, ops []opSpec, clients, requests, n int,
	maxWait, timeout time.Duration, policy serve.RetryPolicy, outs []*outcomes, stream bool, chunk int) (time.Duration, cluster.Stats, error) {
	wcfg := serve.Config{MaxWait: maxWait, QueueLimit: 1 << 15, VMDispatch: vmDisp}
	workers := make([]*serve.NetServer, 0, nWorkers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	addrs := make([]string, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ns, err := serve.ListenNet("127.0.0.1:0", wcfg, serve.NetConfig{})
		if err != nil {
			return 0, cluster.Stats{}, fmt.Errorf("worker %d: %w", i, err)
		}
		workers = append(workers, ns)
		addrs = append(addrs, ns.Addr())
	}
	coord, err := cluster.New(cluster.Config{
		Workers:   addrs,
		Proto:     proto,
		DataPlane: dataPlane,
		Retry:     serve.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		return 0, cluster.Stats{}, err
	}
	defer coord.Close()
	for _, o := range ops {
		if o.src == "" {
			continue
		}
		// Each closed-loop client scans under its own fairness tenant,
		// and user-op registries are tenant-scoped.
		for c := 0; c < clients; c++ {
			if _, err := coord.RegisterScanOp(fmt.Sprintf("client-%d", c), o.name, o.src); err != nil {
				return 0, cluster.Stats{}, fmt.Errorf("register %q: %w", o.name, err)
			}
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := randomData(int64(c), n)
			tenant := fmt.Sprintf("client-%d", c)
			for i := 0; i < requests/clients; i++ {
				oi := i % len(ops)
				spec := ops[oi].spec
				t0 := time.Now()
				attempts, err := policy.Do(context.Background(), func() error {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, timeout)
					}
					defer cancel()
					if !stream || len(data) <= chunk {
						res, err := coord.Scan(ctx, spec, data, tenant)
						releaseResult(res)
						return err
					}
					st, err := coord.OpenScanStream(spec, tenant)
					if err != nil {
						return err
					}
					for off := 0; off < len(data); off += chunk {
						end := min(off+chunk, len(data))
						res, err := st.Push(ctx, data[off:end])
						releaseResult(res)
						if err != nil {
							return err
						}
					}
					_, err = st.Close()
					return err
				})
				benchLat.add(time.Since(t0))
				outs[oi].retries.Add(uint64(attempts - 1))
				outs[oi].record(err)
			}
		}(c)
	}
	wg.Wait()
	// The exchange-fallback tally is run-level (taken from the
	// coordinator's ledger), so the caller attaches it to the aggregate.
	return time.Since(start), coord.Stats(), nil
}

// driveFailover is driveCluster with a control-plane murder scheduled:
// the fleet sits behind TWO coordinators — a primary publishing its
// stream-session records and a standby mirroring them — and after
// killAfter the primary's TCP front end is killed mid-load. Clients use
// serve.FailoverClient, so one-shots re-issue on the standby and
// in-flight streams resume by token, bit-identically. Returns the
// standby's stats (the coordinator that finishes the run) and the
// failover gap in ms: primary killed → first standby-served request.
func driveFailover(nWorkers int, proto, vmDisp string, spec serve.Spec, op, kind, dir string,
	clients, requests, n int, maxWait, timeout, killAfter time.Duration,
	policy serve.RetryPolicy, out *outcomes, stream bool, chunk int) (time.Duration, cluster.Stats, float64, error) {
	wcfg := serve.Config{MaxWait: maxWait, QueueLimit: 1 << 15, VMDispatch: vmDisp}
	workers := make([]*serve.NetServer, 0, nWorkers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	addrs := make([]string, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ns, err := serve.ListenNet("127.0.0.1:0", wcfg, serve.NetConfig{})
		if err != nil {
			return 0, cluster.Stats{}, 0, fmt.Errorf("worker %d: %w", i, err)
		}
		workers = append(workers, ns)
		addrs = append(addrs, ns.Addr())
	}
	retry := serve.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	primary, err := cluster.New(cluster.Config{
		Workers: addrs, Proto: proto, Retry: retry, ReplListen: "127.0.0.1:0",
	})
	if err != nil {
		return 0, cluster.Stats{}, 0, err
	}
	defer primary.Close()
	primNS, err := serve.ListenBackend("127.0.0.1:0", primary, serve.NetConfig{})
	if err != nil {
		return 0, cluster.Stats{}, 0, err
	}
	standby, err := cluster.New(cluster.Config{
		Workers: addrs, Proto: proto, Retry: retry, Follow: primary.ReplAddr(),
	})
	if err != nil {
		primNS.Close()
		return 0, cluster.Stats{}, 0, err
	}
	stbyNS, err := serve.ListenBackend("127.0.0.1:0", standby, serve.NetConfig{})
	if err != nil {
		primNS.Close()
		standby.Close()
		return 0, cluster.Stats{}, 0, err
	}

	fcs := make([]*serve.FailoverClient, clients)
	for c := range fcs {
		fc, err := serve.DialFailover(proto, 0, primNS.Addr(), stbyNS.Addr())
		if err != nil {
			primNS.Close()
			stbyNS.Close()
			return 0, cluster.Stats{}, 0, err
		}
		fcs[c] = fc
	}

	var killTime atomic.Int64
	killer := time.AfterFunc(killAfter, func() {
		killTime.Store(time.Now().UnixNano())
		// Kill, not Close: slam the listener and every live connection
		// with no drain — the impolite death failover exists for. The
		// primary's backend (and its replication feed) dies right after.
		primNS.Kill()
		go primary.Close()
	})
	defer killer.Stop()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := randomData(int64(c), n)
			for i := 0; i < requests/clients; i++ {
				t0 := time.Now()
				attempts, err := policy.Do(context.Background(), func() error {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, timeout)
					}
					defer cancel()
					var res []int64
					var err error
					if stream {
						res, err = fcs[c].StreamScan(ctx, op, kind, dir, data, chunk)
					} else {
						res, err = fcs[c].ScanCtx(ctx, op, kind, dir, data)
					}
					releaseResult(res)
					return err
				})
				benchLat.add(time.Since(t0))
				out.retries.Add(uint64(attempts - 1))
				out.record(err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	gapMs := 0.0
	if kt := killTime.Load(); kt > 0 {
		firstAlt := int64(0)
		for _, fc := range fcs {
			if t := fc.FirstFailoverAt(); !t.IsZero() {
				if ns := t.UnixNano(); firstAlt == 0 || ns < firstAlt {
					firstAlt = ns
				}
			}
		}
		if firstAlt > kt {
			gapMs = float64(firstAlt-kt) / float64(time.Millisecond)
		}
	}
	for _, fc := range fcs {
		out.resumed.Add(fc.Resumed())
		out.failedOver.Add(fc.FailedOver())
		fc.Close()
	}
	stbyNS.Close()
	cst := standby.Stats()
	primNS.Close()
	return elapsed, cst, gapMs, nil
}

func randomData(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(rng.Intn(100))
	}
	return data
}

func report(label string, requests, n int, elapsed time.Duration) {
	rps := float64(requests) / elapsed.Seconds()
	fmt.Printf("%-8s %8d req in %10v  →  %10.0f req/s  %12.0f elems/s\n",
		label, requests, elapsed.Round(time.Millisecond), rps, rps*float64(n))
}
