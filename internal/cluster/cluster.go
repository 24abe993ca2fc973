// Package cluster shards giant scans across scansd workers. It is the
// paper's Figure 10 block-sum decomposition applied across MACHINES:
// split the vector into per-worker shards, scan each shard's pieces
// remotely and unseeded, run the small exclusive scan over the pieces'
// block sums locally — each read off the reply the coordinator copies
// anyway — and combine every piece's carry into its window of the
// result. Workers need no protocol extension and hold no state: a
// coordinator piece is just another wire request, and the whole scan is
// one round trip per piece.
//
// Because int64 +, ×, max, and min are exactly associative (Go defines
// signed wraparound), the decomposition is BIT-IDENTICAL to a
// single-node scan: same results for every input, op, kind, direction,
// and segment layout, regardless of worker count or where the splits
// land. Segment boundaries constrain only the carry math (a segment
// head resets the running prefix), not the plan.
//
// The Coordinator implements serve.Backend, so serve's TCP front end
// (serve.ListenBackend) gives it the whole wire protocol — framing,
// error codes, line budgets, float64 element mapping, streaming session
// tables — for free. cmd/scansd -coordinator is a flag shell around
// exactly that composition.
//
// Failure model: each piece retries under serve.RetryPolicy (scans are
// pure, so re-execution is always safe), optionally hedging a second
// worker after Config.HedgeAfter. Workers that fail at the CONNECTION
// level Config.EjectAfter times in a row are ejected from planning and
// probed back in by a background prober; typed server errors (overload,
// shed, deadline) prove liveness and never eject. A request whose piece
// exhausts its retry budget fails with serve.ErrShardFailed (wire code
// "shard_failed") — that request alone fails, the coordinator and the
// rest of the fleet keep serving.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
	"scans/internal/fault"
	"scans/internal/serve"
)

// ErrShardFailed re-exports serve.ErrShardFailed, the sentinel wrapped
// by every scan that lost a shard to retry exhaustion. It lives in
// package serve because serve owns the wire's code↔error vocabulary.
var ErrShardFailed = serve.ErrShardFailed

// Config tunes a Coordinator. Workers is required; every other field
// has a default applied by New.
type Config struct {
	// Workers is the scansd worker fleet, as dialable "host:port"
	// addresses. Required, at least one.
	Workers []string
	// Weights optionally gives each worker a capacity weight for the
	// proportional shard split (len(Weights) == len(Workers)); a bigger
	// weight draws a proportionally bigger shard. Values <= 0 and a nil
	// slice mean 1 (equal split).
	Weights []float64
	// MinShardElems is the floor under shard size: a scan of n elements
	// uses at most n/MinShardElems workers, so tiny scans are not
	// scattered across the fleet for nothing. Default 4096.
	MinShardElems int
	// MaxPieceElems caps one wire request's element count. Shards larger
	// than this are cut into several pieces (all to the shard's worker,
	// where the batcher fuses them back into one kernel pass); the cap
	// keeps every piece's worst-case RESPONSE inside the wire line
	// budget. Default 1<<19, clamped so a response always fits
	// MaxLineBytes.
	MaxPieceElems int
	// MaxLineBytes is the wire line budget used when dialing workers;
	// must match the workers' own NetConfig.MaxLineBytes. Default
	// serve.DefaultMaxLineBytes.
	MaxLineBytes int
	// Proto selects the coordinator↔worker wire protocol:
	// serve.ProtoBin (the default) or serve.ProtoJSON. Binary moves
	// shard payloads as raw little-endian words — no per-element
	// formatting on the way out, no per-element parsing on the way back
	// — which is where a coordinator spends most of its CPU at large n.
	// A ProtoBin dial to a worker without binwire fails (it never
	// degrades to JSON). The piece-size clamp stays at JSON's
	// 21-bytes-per-element worst case only because ProtoJSON is still
	// selectable here; it is conservative for binary.
	Proto string
	// DataPlane names the carry data plane. There is one, "star" (also
	// the empty default): pieces go out raw and the coordinator combines
	// each carry into the replies. The field stays only for callers that
	// still set it; any other value is refused by New.
	DataPlane string
	// OpCap caps how many user combine ops one tenant may hold in the
	// coordinator's registry (register_op). 0 = internal/combine's
	// default cap.
	OpCap int
	// Retry is the per-piece retry policy (serve.RetryPolicy's zero
	// value: 4 attempts, exponential backoff, jitter). Retries after the
	// first attempt prefer a different healthy worker.
	Retry serve.RetryPolicy
	// HedgeAfter, when positive, launches a duplicate of a piece on a
	// second healthy worker if the first has not answered within this
	// delay; the first success wins. Scans are pure, so duplicate
	// execution is harmless. 0 disables hedging.
	HedgeAfter time.Duration
	// EjectAfter ejects a worker from planning after this many
	// CONSECUTIVE connection-level failures (dial errors, dropped
	// connections, torn lines — not typed server errors, which prove the
	// worker is alive). Default 3.
	EjectAfter int
	// ProbeInterval is how often the background prober re-dials ejected
	// workers; a successful probe scan readmits the worker. Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's round trip. Default 500ms.
	ProbeTimeout time.Duration
	// HeartbeatTTL ejects an ANNOUNCED worker (one that joined via
	// heartbeat rather than the static Workers list) when its last
	// heartbeat is older than this. Static workers are unaffected —
	// their liveness stays connection-failure driven. Default 2s.
	HeartbeatTTL time.Duration
	// WeightFloor bounds how far the adaptive latency scaling can shrink
	// a worker's planned share: effective weight ≥ WeightFloor × base
	// weight, so a slow worker keeps receiving (floor-sized) work and
	// its EWMA can observe the recovery. Default 0.1.
	WeightFloor float64
	// ReplListen, when non-empty, publishes the stream-session
	// replication feed on this TCP address for standby coordinators;
	// ReplAddr reports the bound address ("host:0" is resolved).
	ReplListen string
	// Follow, when non-empty, mirrors a primary's replication feed from
	// this address — standby mode. The follower redials forever, so a
	// standby may start before its primary and survives the primary's
	// death (which is the point).
	Follow string
	// ResumeTTL is how long a detached stream session (its carrying
	// connection died) stays resumable before the janitor reaps it.
	// Default 2m.
	ResumeTTL time.Duration
	// CrashHook, when non-nil, is called (once, in its own goroutine)
	// the first time fault.ClusterCoordCrash fires on the serving path.
	// Test harnesses install a hook that kills the TCP front end, so
	// "the coordinator dies mid-request" is a scriptable event. nil
	// leaves the point inert.
	CrashHook func()
	// Faults is the chaos hook for the coordinator-side points
	// (fault.ClusterWorkerSlow, fault.ClusterWorkerDrop,
	// fault.ClusterCoordCrash, fault.ClusterHeartbeatDrop,
	// fault.ClusterJoinStorm). nil = off.
	Faults *fault.Set
}

// DataPlaneStar is the one value Config.DataPlane accepts besides "".
const DataPlaneStar = "star"

// withDefaults fills zero fields and clamps MaxPieceElems to the line
// budget (worst-case response bytes per element mirrors serve's
// maxRespBytes: 21 bytes per int64 plus envelope).
func (c Config) withDefaults() Config {
	if c.MinShardElems <= 0 {
		c.MinShardElems = 4096
	}
	if c.MaxPieceElems <= 0 {
		c.MaxPieceElems = 1 << 19
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = serve.DefaultMaxLineBytes
	}
	if c.Proto == "" {
		c.Proto = serve.ProtoBin
	}
	if budget := (c.MaxLineBytes - 64) / 21; c.MaxPieceElems > budget {
		c.MaxPieceElems = budget
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 2 * time.Second
	}
	if c.WeightFloor <= 0 || c.WeightFloor > 1 {
		c.WeightFloor = 0.1
	}
	if c.ResumeTTL <= 0 {
		c.ResumeTTL = 2 * time.Minute
	}
	return c
}

// Coordinator splits scans across a scansd worker fleet. It implements
// serve.Backend; front it with serve.ListenBackend to serve the wire
// protocol, or call Scan/ScanSegmented/OpenScanStream in process.
type Coordinator struct {
	cfg      Config
	reg      *registry
	sessions *sessionTable
	userOps  *userOps    // tenant-scoped combine ops + per-worker push cache
	repl     *replServer // non-nil when cfg.ReplListen is set
	follow   *follower   // non-nil when cfg.Follow is set
	stats    coordStats

	fpSlow      *fault.Point
	fpDrop      *fault.Point
	fpCrash     *fault.Point
	fpBeatDrop  *fault.Point
	fpJoinStorm *fault.Point
	crashOnce   sync.Once

	rr     atomic.Uint64 // rotates shard→worker assignment across scans
	closed atomic.Bool
}

var _ serve.Backend = (*Coordinator)(nil)
var _ serve.Announcer = (*Coordinator)(nil)
var _ serve.StreamResumer = (*Coordinator)(nil)

// New builds a Coordinator over cfg.Workers. The workers are dialed
// lazily on first use, so New succeeds even while the fleet is still
// coming up — the first scans simply retry/eject until probes find it.
// An EMPTY Workers list is allowed: the fleet can be populated entirely
// by worker announcements (scansd -announce); scans before the first
// join fail with shard_failed.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Weights != nil && len(cfg.Weights) != len(cfg.Workers) {
		return nil, fmt.Errorf("cluster: %d weights for %d workers", len(cfg.Weights), len(cfg.Workers))
	}
	switch cfg.Proto {
	case "", serve.ProtoBin, serve.ProtoJSON:
	default:
		return nil, fmt.Errorf("cluster: unknown worker protocol %q", cfg.Proto)
	}
	switch cfg.DataPlane {
	case "", DataPlaneStar:
	default:
		return nil, fmt.Errorf("cluster: unknown data plane %q", cfg.DataPlane)
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		fpSlow:      cfg.Faults.Point(fault.ClusterWorkerSlow),
		fpDrop:      cfg.Faults.Point(fault.ClusterWorkerDrop),
		fpCrash:     cfg.Faults.Point(fault.ClusterCoordCrash),
		fpBeatDrop:  cfg.Faults.Point(fault.ClusterHeartbeatDrop),
		fpJoinStorm: cfg.Faults.Point(fault.ClusterJoinStorm),
	}
	c.reg = newRegistry(cfg, &c.stats)
	c.userOps = newUserOps(cfg.OpCap)
	c.sessions = newSessionTable(cfg.ResumeTTL, &c.stats)
	if cfg.ReplListen != "" {
		rs, err := startReplServer(cfg.ReplListen, c.sessions)
		if err != nil {
			c.reg.close()
			c.sessions.close()
			return nil, fmt.Errorf("cluster: repl listen: %w", err)
		}
		c.repl = rs
	}
	if cfg.Follow != "" {
		c.follow = startFollower(cfg.Follow, c.sessions)
	}
	return c, nil
}

// ReplAddr returns the bound replication-feed address ("" when
// ReplListen was not configured). Standbys pass it as Config.Follow.
func (c *Coordinator) ReplAddr() string {
	if c.repl == nil {
		return ""
	}
	return c.repl.addr()
}

// Close stops the liveness loop, the session janitor, the replication
// endpoints, and every worker connection. In-flight scans see their
// connections die and fail with shard_failed; call Close only after
// traffic has drained (the TCP front end's Close does exactly that
// ordering).
func (c *Coordinator) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.follow != nil {
		c.follow.close()
	}
	if c.repl != nil {
		c.repl.close()
	} else {
		c.sessions.close()
	}
	c.reg.close()
}

// Announce implements serve.Announcer: one worker heartbeat. Unknown
// addresses join the fleet live, known ones refresh weight and beat
// clock, ejected ones are readmitted (see registry.admit). The chaos
// points model a lossy control plane: a fired heartbeat.drop is
// acknowledged but never reaches the registry, and a fired joinstorm
// re-admits the same worker from many goroutines at once.
func (c *Coordinator) Announce(addr string, weight float64, proto string, maxLine int) error {
	if c.closed.Load() {
		return serve.ErrClosed
	}
	if addr == "" {
		return fmt.Errorf("%w: heartbeat with empty worker address", serve.ErrBadRequest)
	}
	switch proto {
	case "":
		proto = c.cfg.Proto
	case serve.ProtoBin, serve.ProtoJSON:
	default:
		return fmt.Errorf("%w: unknown worker protocol %q", serve.ErrBadRequest, proto)
	}
	if weight <= 0 {
		weight = 1
	}
	if maxLine <= 0 {
		maxLine = c.cfg.MaxLineBytes
	}
	c.stats.heartbeats.Add(1)
	if c.fpBeatDrop.Fire() {
		return nil // chaos: the beat is lost inside the coordinator
	}
	if c.fpJoinStorm.Fire() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.reg.admit(addr, weight, proto, maxLine)
			}()
		}
		wg.Wait()
		return nil
	}
	c.reg.admit(addr, weight, proto, maxLine)
	return nil
}

// WorkerStat is one worker's row in the coordinator's fleet view:
// identity, base and effective (latency-adjusted) weight, health, and
// the adaptive-planning inputs, for operators and the acceptance tests
// that assert a slowed worker's share actually drops.
type WorkerStat struct {
	Addr      string
	Announced bool
	Healthy   bool
	// Weight is the configured/announced base weight; EffWeight is what
	// planning actually uses after latency scaling (≥ WeightFloor ×
	// Weight).
	Weight    float64
	EffWeight float64
	// LatencyEWMANs is the smoothed observed cost in ns per element
	// (0 until the first successful attempt).
	LatencyEWMANs float64
	// PlannedElems is the cumulative element count planned onto this
	// worker.
	PlannedElems uint64
	// LastBeatAge is the time since the last heartbeat (0 for static
	// workers, which do not beat).
	LastBeatAge time.Duration
}

// WorkerStats snapshots the fleet, in join order; safe under traffic.
func (c *Coordinator) WorkerStats() []WorkerStat {
	ws := c.reg.snapshot()
	eff := effectiveWeights(ws, c.cfg.WeightFloor)
	out := make([]WorkerStat, len(ws))
	now := time.Now()
	for i, w := range ws {
		var age time.Duration
		if lb := w.lastBeat.Load(); lb > 0 {
			age = now.Sub(time.Unix(0, lb))
		}
		out[i] = WorkerStat{
			Addr:          w.addr,
			Announced:     w.announced,
			Healthy:       w.healthy.Load(),
			Weight:        w.weight(),
			EffWeight:     eff[i],
			LatencyEWMANs: w.latencyNs(),
			PlannedElems:  w.planned.Load(),
			LastBeatAge:   age,
		}
	}
	return out
}

// Scan shards one unsegmented scan across the fleet and returns the
// full result, bit-identical to a single-node scan of data. Implements
// serve.Backend.
func (c *Coordinator) Scan(ctx context.Context, spec serve.Spec, data []int64, tenant string) ([]int64, error) {
	return c.scanRoot(ctx, spec, data, nil, tenant)
}

// ScanSegmented is Scan over a segmented vector: flags[i] marks the
// start of a segment (position 0 always starts one, flagged or not),
// and the scan restarts at every segment head — the semantics of the
// serving layer's fused batches and the paper's segmented primitives.
// Segment boundaries do NOT constrain the shard split: a segment may
// span any number of shards, and only the carry chain respects the
// resets.
func (c *Coordinator) ScanSegmented(ctx context.Context, spec serve.Spec, data []int64, flags []bool, tenant string) ([]int64, error) {
	if flags != nil && len(flags) != len(data) {
		c.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d flags for %d elements", serve.ErrBadRequest, len(flags), len(data))
	}
	return c.scanRoot(ctx, spec, data, flags, tenant)
}

// scanRoot is the admission + ledger wrapper: every accepted request
// reaches exactly one of served / shard_failed / deadline.
func (c *Coordinator) scanRoot(ctx context.Context, spec serve.Spec, data []int64, flags []bool, tenant string) ([]int64, error) {
	if c.closed.Load() {
		c.stats.rejected.Add(1)
		return nil, serve.ErrClosed
	}
	if !spec.Valid() {
		c.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: invalid spec %+v", serve.ErrBadRequest, spec)
	}
	spec, rerr := serve.ResolveOp(c.userOps.reg, spec, tenant)
	if rerr != nil {
		c.stats.rejected.Add(1)
		return nil, rerr
	}
	if w := spec.Width(); w > 1 {
		// Tuple monoids: the carry chain is scalar, so a wide user scan
		// dispatches as ONE unsplit piece (see scanSeeded) — which
		// bounds it to a single wire request and a single segment.
		switch {
		case len(data)%w != 0:
			c.stats.rejected.Add(1)
			return nil, fmt.Errorf("%w: op %q combines width-%d tuples; %d elements is not a whole number of tuples",
				serve.ErrBadRequest, spec.User, w, len(data))
		case flags != nil:
			c.stats.rejected.Add(1)
			return nil, fmt.Errorf("%w: segmented scans with width-%d user ops are not cluster-dispatchable",
				serve.ErrBadRequest, w)
		case len(data) > c.cfg.MaxPieceElems:
			c.stats.rejected.Add(1)
			return nil, fmt.Errorf("%w: width-%d user scans dispatch as one piece; %d elements exceeds the %d-element piece budget",
				serve.ErrBadRequest, w, len(data), c.cfg.MaxPieceElems)
		}
	}
	c.crashPoint()
	c.stats.requests.Add(1)
	res, err := c.scanSeeded(ctx, spec, data, flags, 0, false, tenant)
	if err != nil {
		return nil, c.finish(err)
	}
	c.stats.served.Add(1)
	return res, nil
}

// crashPoint fires fault.ClusterCoordCrash: the first fire invokes
// CrashHook — typically "kill my TCP front end" — in a fresh goroutine,
// so the crash lands while this request (and its siblings) are in
// flight, exactly the window failover must cover. The request itself
// proceeds; the dying front end is what kills it.
func (c *Coordinator) crashPoint() {
	if c.fpCrash.Fire() {
		c.crashOnce.Do(func() {
			if hook := c.cfg.CrashHook; hook != nil {
				go hook()
			}
		})
	}
}

// finish classifies a failed request's terminal outcome and wraps
// non-deadline causes in ErrShardFailed.
func (c *Coordinator) finish(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		c.stats.deadline.Add(1)
		return err
	}
	c.stats.shardFailed.Add(1)
	if !errors.Is(err, serve.ErrShardFailed) {
		// Both %w: the shard ledger needs ErrShardFailed, but a typed
		// user-op cause (op_budget, op_hash, bad_op) must survive the
		// wrap — codeForError checks the op errors first, so the wire
		// reports the specific code, not shard_failed.
		err = fmt.Errorf("%w: %w", serve.ErrShardFailed, err)
	}
	return err
}

// scanSeeded is the core: plan shards, cut pieces, dispatch all pieces
// unseeded and concurrently, then chain their block sums and combine
// each carry into the reassembled result. carry/seeded prepend a
// cross-request prefix (the streaming path).
func (c *Coordinator) scanSeeded(ctx context.Context, spec serve.Spec, data []int64, flags []bool, carry int64, seeded bool, tenant string) ([]int64, error) {
	n := len(data)
	if n == 0 {
		return []int64{}, nil
	}
	ws := c.reg.healthyWorkers()
	if len(ws) == 0 {
		// Every worker is ejected. Refusing outright would turn a
		// transient all-down blip (one bad network moment can burst-fail
		// every shared connection at once) into guaranteed request
		// failure; instead plan over the full fleet and let the
		// per-piece retries probe reality, while the liveness loop
		// readmits in parallel. A genuinely dead fleet still fails — with
		// shard_failed, after the retry budget.
		ws = c.reg.snapshot()
	}
	if len(ws) == 0 {
		// Nothing has ever joined (announce-only fleet before the first
		// heartbeat).
		return nil, errors.New("no workers in fleet")
	}
	if spec.Width() > 1 {
		// Wide user op: one unsplit, unseeded piece on one worker (its
		// batcher runs the op's tuple view pass). scanRoot already
		// rejected anything that cannot ship this way.
		pc := piece{off: 0, end: n, w: ws[int(c.rr.Add(1)-1)%len(ws)]}
		pc.w.planned.Add(uint64(n))
		c.stats.shards.Add(1)
		c.stats.pieces.Add(1)
		out := arena.GetInt64s(n)
		if err := c.runPiece(ctx, spec, data, out, &pc, tenant); err != nil {
			arena.PutInt64s(out)
			return nil, err
		}
		return out, nil
	}

	shards := planShards(n, ws, effectiveWeights(ws, c.cfg.WeightFloor), int(c.rr.Add(1)-1), c.cfg.MinShardElems)
	pieces := cutPieces(shards, flags, c.cfg.MaxPieceElems)
	for i := range shards {
		shards[i].w.planned.Add(uint64(shards[i].end - shards[i].start))
	}
	c.stats.shards.Add(uint64(len(shards)))
	c.stats.pieces.Add(uint64(len(pieces)))

	// Every piece goes out raw and unseeded, all at once; each copies
	// its reply into its window of out, an arena buffer owned by the
	// caller (the TCP front end returns it after encoding).
	out := arena.GetInt64s(n)
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i := range pieces {
		pc := &pieces[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.runPiece(dctx, spec, data, out[pc.off:pc.end], pc, tenant); err != nil {
				once.Do(func() { firstErr = err; cancel() })
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		arena.PutInt64s(out)
		return nil, firstErr
	}
	// The scan of the block sums, O(#pieces), then each seeded piece's
	// carry combined into its window: a VM fault there (op_budget on the
	// actual data) is typed, not a shard failure worth retrying.
	folds := make([]int64, len(pieces))
	var (
		fr  combine.Frame
		err error
	)
	for k := range pieces {
		if folds[k], err = blockSum(spec, &fr, data, out, &pieces[k]); err != nil {
			break
		}
	}
	if err == nil {
		err = seedPieces(spec, flags, pieces, folds, carry, seeded)
	}
	if err == nil {
		err = combineCarries(spec, out, pieces)
	}
	if err != nil {
		arena.PutInt64s(out)
		return nil, err
	}
	return out, nil
}

// blockSum reads a piece's block sum (the fold of its data in scan
// order) off its unseeded reply in out: the element at the piece's far
// end for inclusive scans; for exclusive ones that element combined
// with the matching input, on the right going forward and on the left
// going backward.
func blockSum(spec serve.Spec, fr *combine.Frame, data, out []int64, pc *piece) (int64, error) {
	far := pc.end - 1
	if spec.Dir == serve.Backward {
		far = pc.off
	}
	switch {
	case spec.Kind == serve.Inclusive:
		return out[far], nil
	case spec.Dir == serve.Backward:
		return serve.CombineSpec(spec, fr, data[far], out[far])
	}
	return serve.CombineSpec(spec, fr, out[far], data[far])
}

// combineCarries combines every seeded piece's carry into its window
// of out, at most GOMAXPROCS pieces at a time, and returns the first
// error.
func combineCarries(spec serve.Spec, out []int64, pieces []piece) error {
	if !slices.ContainsFunc(pieces, func(pc piece) bool { return pc.seeded }) {
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	cpus := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range pieces {
		pc := &pieces[i]
		if !pc.seeded {
			continue
		}
		wg.Add(1)
		cpus <- struct{}{}
		go func() {
			defer func() { <-cpus; wg.Done() }()
			if err := serve.CarrySpec(spec, out[pc.off:pc.end], pc.seed, spec.Dir); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runPiece executes one piece to completion: retry under the policy —
// preferring a different healthy worker after the first failure — and
// copy the response into dst, the piece's window of the caller's output
// buffer. The payload is the caller's own data, never copied; the
// decoded response is an arena buffer that circulates back here.
func (c *Coordinator) runPiece(ctx context.Context, spec serve.Spec, data []int64, dst []int64, pc *piece, tenant string) error {
	payload := data[pc.off:pc.end]
	var (
		res     []int64
		attempt int
	)
	attempts, err := c.cfg.Retry.Do(ctx, func() error {
		attempt++
		w := pc.w
		if attempt > 1 {
			if alt := c.reg.pickHealthyNot(pc.w); alt != nil {
				w = alt
			}
		}
		r, rerr := c.attemptHedged(ctx, spec, payload, tenant, w)
		if rerr != nil {
			return rerr
		}
		res = r
		return nil
	})
	if attempts > 1 {
		c.stats.retries.Add(uint64(attempts - 1))
	}
	if err != nil {
		return fmt.Errorf("piece [%d:%d) of %s via %s failed after %d attempts: %w",
			pc.off, pc.end, spec, pc.w.addr, attempts, err)
	}
	if len(res) > 0 {
		defer arena.PutInt64s(res)
	}
	if len(res) != len(payload) {
		return fmt.Errorf("%w: worker returned %d elements for a %d-element piece",
			serve.ErrInternal, len(res), len(payload))
	}
	copy(dst, res)
	return nil
}

// attemptHedged runs one attempt, racing a duplicate on a second
// healthy worker if the primary has not answered within HedgeAfter.
// First success wins; with both failed, the primary's error stands.
func (c *Coordinator) attemptHedged(ctx context.Context, spec serve.Spec, payload []int64, tenant string, w *worker) ([]int64, error) {
	if c.cfg.HedgeAfter <= 0 {
		return c.attemptOn(ctx, spec, payload, tenant, w)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the loser
	type result struct {
		res   []int64
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(lw *worker, hedge bool) {
		go func() {
			r, e := c.attemptOn(actx, spec, payload, tenant, lw)
			ch <- result{r, e, hedge}
		}()
	}
	launch(w, false)
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	inflight, hedged := 1, false
	var primaryErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					c.stats.hedgeWins.Add(1)
				}
				// Reel the loser in BEFORE returning: its round trip is
				// still reading payload, which the caller recycles the
				// moment we return — and a duplicate success carries an
				// arena-backed result that must circulate, not leak.
				cancel()
				for ; inflight > 0; inflight-- {
					lr := <-ch
					if lr.err == nil && len(lr.res) > 0 {
						arena.PutInt64s(lr.res)
					}
				}
				return r.res, nil
			}
			if !r.hedge {
				primaryErr = r.err
			}
			if inflight == 0 {
				if primaryErr != nil {
					return nil, primaryErr
				}
				return nil, r.err
			}
		case <-timer.C:
			if hedged {
				continue
			}
			if alt := c.reg.pickHealthyNot(w); alt != nil {
				hedged = true
				inflight++
				c.stats.hedges.Add(1)
				launch(alt, true)
			}
		}
	}
}

// attemptOn runs one wire round trip against one worker, firing the
// chaos points and feeding the health model: connection-level failures
// count toward ejection, typed server errors prove liveness and reset
// the streak, and the caller's own cancellation says nothing either
// way. Successful attempts also feed the worker's latency EWMA —
// measured around the WHOLE attempt, chaos sleeps included, so an
// armed slow point is indistinguishable from a genuinely slow worker
// and the adaptive planner reacts to both the same way.
func (c *Coordinator) attemptOn(ctx context.Context, spec serve.Spec, payload []int64, tenant string, w *worker) ([]int64, error) {
	start := time.Now()
	c.fpSlow.Sleep()
	w.fpSlow.Sleep() // targeted per-worker point: ClusterWorkerSlow + ":" + addr
	cli, err := w.client()
	if err != nil {
		c.reg.noteConnFail(w)
		return nil, err
	}
	if c.fpDrop.Fire() {
		// Chaos: the worker "dies" with this piece in flight — its
		// connection (shared by every concurrent piece on this worker)
		// drops mid-round-trip.
		go cli.Close()
	}
	var res []int64
	if spec.Op == serve.OpUser {
		// User op: make sure the worker holds our bytecode, then pin the
		// scan to its content hash. A stale answer anyway (the push cache
		// lied — worker restart, concurrent re-registration) gets one
		// repair-and-retry before the error escapes to the normal piece
		// retry loop.
		reg := spec.Binding()
		c.ensureOpPushed(ctx, w, cli, tenant, reg)
		res, err = cli.ScanPinned(ctx, spec.OpString(), spec.Kind.String(), spec.Dir.String(), tenant, reg.Hash, payload)
		if err != nil && opStale(err) && ctx.Err() == nil {
			c.invalidatePush(w.addr, tenant, reg.Name)
			if perr := c.pushOp(ctx, w, cli, tenant, reg); perr == nil {
				res, err = cli.ScanPinned(ctx, spec.OpString(), spec.Kind.String(), spec.Dir.String(), tenant, reg.Hash, payload)
			}
		}
	} else {
		res, err = cli.ScanPinned(ctx, spec.Op.String(), spec.Kind.String(), spec.Dir.String(), tenant, 0, payload)
	}
	switch {
	case err == nil:
		c.reg.noteOK(w)
		elems := len(payload)
		if elems < 1 {
			elems = 1
		}
		w.recordLatency(float64(time.Since(start)) / float64(elems))
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Our own deadline/cancel: no health signal.
	case connLevel(err):
		w.dropConn(cli)
		c.reg.noteConnFail(w)
	default:
		c.reg.noteOK(w) // typed server error: the worker is alive
	}
	return res, err
}

// connLevel reports whether err is a connection-level failure — the
// kind that counts toward ejection. Typed server errors prove the
// worker processed the request; serve.ErrClosed means the worker is
// shutting down, which for planning purposes IS a dead worker.
func connLevel(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, serve.ErrBadRequest),
		errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrShed),
		errors.Is(err, serve.ErrInternal),
		errors.Is(err, serve.ErrShardFailed),
		errors.Is(err, serve.ErrNoStream),
		errors.Is(err, serve.ErrStreamFailed),
		errors.Is(err, serve.ErrStreamUnsupported),
		errors.Is(err, serve.ErrBadOp),
		errors.Is(err, serve.ErrOpBudget),
		errors.Is(err, serve.ErrOpHash):
		return false
	}
	return true // dial failure, EOF, torn line, net.ErrClosed, serve.ErrClosed
}
