// Command scanload is a closed-loop load generator for a running
// scansd (a worker or a coordinator): N client goroutines, one
// connection each, issue scans back to back and the tool reports
// end-to-end throughput. With -stream each vector is pushed through a
// streaming session in -chunk-element chunks instead of a one-shot
// request, measuring the cross-chunk-carry path.
//
// -op accepts a comma-separated operator list (e.g.
// -op sum,user:add,user:gcd): requests round-robin across the ops, so
// one run measures a realistic interleave of native kernels and
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
// -proto selects the wire protocol: json (newline-JSON) or bin (the
// internal/binwire length-prefixed binary protocol — raw little-endian
// payloads, no per-element parsing, multiplexed request ids).
//
// scanload is a driver, not a benchmark: the repository's benchmark is
// scanbench/ (BENCHMARK.json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
	"scans/internal/serve"
)

// outcomes tallies terminal per-request outcomes plus retry attempts.
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
	return fmt.Sprintf(
		"outcomes: success=%d overloaded=%d shed=%d deadline=%d internal=%d bad_request=%d bad_op=%d shard_failed=%d lost=%d (retries=%d redials=%d)",
		o.success.Load(), o.overloaded.Load(), o.shed.Load(), o.deadline.Load(),
		o.internal.Load(), o.badReq.Load(), o.badOp.Load(), o.shardFailed.Load(), o.lost.Load(), o.retries.Load(), o.redials.Load())
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
	}
	return agg
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

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7187", "scansd address (scansd's default listen address)")
		clients  = flag.Int("clients", 32, "concurrent closed-loop clients, one connection each")
		requests = flag.Int("requests", 10000, "total requests across all clients")
		n        = flag.Int("n", 256, "elements per scan request")
		op       = flag.String("op", "sum", "scan operator, or a comma list to round-robin a mixed workload: sum, max, min, mul, user:<name> (see -register; in a mix, user:<name> auto-registers the example monoid of that name)")
		register = flag.String("register", "", "combine-op source for a single -op user:<name>: a file path, or example:<name> for a built-in example monoid (add, gcd, bor, band, satadd, argmax); registered before the run")
		kind     = flag.String("kind", "exclusive", "exclusive or inclusive")
		dir      = flag.String("dir", "forward", "forward or backward")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
		attempts = flag.Int("retries", 4, "retry budget per request (total attempts)")
		stream   = flag.Bool("stream", false, "use streaming sessions: push each vector through the server in -chunk-element chunks")
		chunk    = flag.Int("chunk", 0, "stream chunk size in elements (0 = serve.DefaultStreamChunk)")
		proto    = flag.String("proto", serve.ProtoJSON, "wire protocol: json or bin")
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

	mode := ""
	if *stream {
		mode = fmt.Sprintf(" (streamed, %d-element chunks)", *chunk)
	}
	fmt.Printf("%s (%s wire): %d clients × %d-element %s scans, %d requests total%s\n",
		*addr, *proto, *clients, *n, workloadLabel(ops), *requests, mode)
	outs := newOutcomeSet(len(ops))
	elapsed, err := driveRemote(*addr, *proto, *clients, *requests, *n, ops, *kind, *dir, *timeout, policy, outs, *stream, *chunk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanload:", err)
		os.Exit(1)
	}
	out := aggregateOutcomes(outs)
	rps := float64(*requests) / elapsed.Seconds()
	fmt.Printf("%d req in %v  →  %.0f req/s  %.0f elems/s\n",
		*requests, elapsed.Round(time.Millisecond), rps, rps*float64(*n))
	fmt.Println("  ", out.String())
	printPerOp(ops, outs)
	if lost := out.lost.Load(); lost > 0 {
		fmt.Fprintf(os.Stderr, "scanload: %d request(s) LOST (no terminal outcome)\n", lost)
		os.Exit(1)
	}
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
			// The first requests%clients clients send one extra, so the
			// clients together send exactly requests.
			mine := requests / clients
			if c < requests%clients {
				mine++
			}
			for i := 0; i < mine; i++ {
				oi := i % len(ops)
				op := ops[oi].op
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
				outs[oi].retries.Add(uint64(attempts - 1))
				outs[oi].record(err)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), nil
}

// releaseResult returns a scan result to the arena. Every non-empty
// result decoded off the wire is arena-backed and owned by the caller;
// a load generator that never recycled them would starve the pools.
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

func randomData(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(rng.Intn(100))
	}
	return data
}
