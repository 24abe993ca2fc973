// Package serve turns the scan kernels into a concurrent scan service.
//
// The paper's own argument for segmented scans (§3) is that many
// independent small scans can execute as ONE primitive pass over a
// single flat vector. This package applies that argument to serving:
// a Server accepts SubmitCtx/Scan requests from many goroutines,
// coalesces whatever arrives within a batching window, runs a single
// segmented-scan kernel pass per (op, kind, direction) group directly
// over the request-owned payloads, and hands each request its own
// result buffer. Per-invocation overhead — dispatch, allocation,
// kernel startup — is paid once per batch instead of once per request,
// which is exactly the amortization Figure 10's long-vector rule buys
// the hardware.
//
// The pipeline is: submit → bounded queue (backpressure) → batcher
// (one goroutine, owns the batching window and the per-tenant fair
// pick) → executor pool (GOMAXPROCS goroutines by default) → segmented
// view kernels, one serial pass per group on the executor's own
// goroutine → futures. Parallelism is across batches and groups, never
// inside one pass: on the hosts measured, splitting a pass over
// workers cost more in synchronization and memory traffic than it won
// (DESIGN.md §7).
//
// Over TCP (NetServer) the pipeline starts and ends at a connection:
// one reader goroutine decodes and admits each one-shot scan with a
// completion hook on its future, and whoever resolves the future —
// executor or batcher — encodes the answer and appends it to the
// connection's queue, where one writer goroutine writes everything
// queued and flushes once (DESIGN.md §8). Executors never wait on that
// queue; the reader and stream workers wait for room in it, so a
// client that stops reading stalls its own connection. No goroutine or
// timer is made per request: a wire timeout is a deadline stamp the
// batcher checks at pick time.
//
// The failure model (see DESIGN.md "Failure model") is: admission is
// where overload is rejected (ErrOverloaded), the batcher is where
// dead work is shed (expired contexts and over-age queue entries are
// resolved with their error BEFORE the kernel pass — pay overhead
// once, never on dead work), and the executor is where kernel panics
// are isolated (the batch's futures fail with ErrInternal; the server
// stays up). Every accepted request gets exactly one terminal outcome.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/combine"
	"scans/internal/fault"
	"scans/internal/scan"
)

// Typed errors returned by SubmitCtx and friends. Callers branch on these
// with errors.Is; ErrOverloaded in particular is the backpressure
// signal — the bounded queue is full and the request was REJECTED, not
// queued.
var (
	// ErrOverloaded means the server's bounded request queue is full.
	// The request was not enqueued; the caller should back off or shed.
	ErrOverloaded = errors.New("serve: server overloaded (request queue full)")
	// ErrClosed means the server has been closed and accepts no new work.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadRequest means the request's op/kind/direction was invalid.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrInternal means the request's batch hit an isolated kernel
	// panic. The request was NOT executed (or its result is untrusted);
	// the server itself survived and a retry is reasonable.
	ErrInternal = errors.New("serve: internal error (kernel panic isolated)")
	// ErrShed means the request sat in the queue longer than the
	// server's QueueAgeLimit and was dropped before execution — stale
	// work is shed, never run. Retrying is reasonable once load drops.
	ErrShed = errors.New("serve: request shed (queue age limit exceeded)")
	// ErrNoStream means a streaming operation named a stream that is
	// unknown, already closed, or expired by the idle TTL. The carry is
	// gone; the caller must open a fresh stream and resubmit from the
	// first chunk.
	ErrNoStream = errors.New("serve: unknown, closed, or expired stream")
	// ErrStreamFailed means an earlier chunk of this stream did not
	// complete (deadline, shed, panic, overload), so the carry is
	// untrusted and the stream's state has been freed. The failing
	// chunk itself got the underlying typed error; later operations on
	// the dead stream get ErrStreamFailed. Recovery = a fresh stream.
	ErrStreamFailed = errors.New("serve: stream failed (an earlier chunk did not complete)")
	// ErrShardFailed means a cluster coordinator (internal/cluster)
	// could not complete one of this request's shards within the
	// per-shard retry budget — worker deaths, sustained worker
	// overload, or no healthy workers left. Only this request failed;
	// the coordinator itself survived and other requests were
	// unaffected. Retryable: the fleet may have healed (a probe
	// re-admitted a worker) by the next attempt. The sentinel lives
	// here, next to the rest of the wire-error vocabulary, because
	// serve owns the code↔error mapping; cluster wraps it with shard
	// detail.
	ErrShardFailed = errors.New("serve: shard failed (a coordinator shard exhausted its retries)")
	// ErrStreamUnsupported rejects OpenStream for backward specs: a
	// back-scan's carry depends on chunks that have not arrived yet, so
	// results could only be delivered at close after buffering the whole
	// vector — exactly what streaming exists to avoid. Submit backward
	// scans as one-shot requests (or reverse client-side). Wraps
	// ErrBadRequest: not retryable.
	ErrStreamUnsupported = fmt.Errorf("%w: backward scans cannot stream (the carry depends on later chunks)", ErrBadRequest)
	// ErrBadOp means a register_op submission was rejected: the program
	// failed to parse, failed the monoid property tests (the error
	// detail carries the counterexample), or the tenant is at its op
	// cap. Not retryable — the submission itself is wrong.
	ErrBadOp = errors.New("serve: bad user op")
	// ErrOpBudget means a user-defined combine op exceeded its per-call
	// step budget while serving a request. Validation bounds the op on
	// the inputs it sampled, but a data-dependent loop can still run
	// long on the caller's actual data; only the offending request
	// fails — the rest of its batch group is unaffected.
	ErrOpBudget = errors.New("serve: combine op exceeded its step budget")
	// ErrOpHash means a scan named a user op whose registration hash
	// differs from the one the caller pinned (WireRequest.OpHash): the
	// serving node holds a different program under that name. The
	// cluster coordinator reacts by re-pushing its registration and
	// retrying the piece.
	ErrOpHash = errors.New("serve: combine op content hash mismatch")
)

// Op identifies the scan operator of a request. The service fixes the
// element type at int64 (the wire format's integer type); the four ops
// are the monoids the paper's algorithms lean on.
type Op uint8

const (
	// OpSum is the +-scan, one of the paper's two primitives.
	OpSum Op = iota
	// OpMax is the max-scan, the paper's second primitive. Identity
	// math.MinInt64.
	OpMax
	// OpMin is the min-scan (identity math.MaxInt64).
	OpMin
	// OpMul is the ×-scan (identity 1).
	OpMul
	opCount
	// OpUser is a tenant-registered combine op (internal/combine): the
	// wire form is "user:<name>", and Spec.User carries the name. Not
	// counted in opCount — a user spec is valid only with a name, and
	// servable only once resolved against a registry (Spec.Bind).
	OpUser Op = 255
)

// String returns the wire name of the op ("sum", "max", "min", "mul";
// "user" for registered ops — Spec.OpString includes the name).
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpMul:
		return "mul"
	case OpUser:
		return "user"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind selects the exclusive or inclusive form of the scan.
type Kind uint8

const (
	// Exclusive is the paper's default: dst[i] combines the elements
	// strictly before i, dst[0] is the identity.
	Exclusive Kind = iota
	// Inclusive includes element i itself.
	Inclusive
	kindCount
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	if k == Inclusive {
		return "inclusive"
	}
	return "exclusive"
}

// Dir selects the forward or backward scan direction.
type Dir uint8

const (
	// Forward scans left-to-right.
	Forward Dir = iota
	// Backward scans right-to-left (the paper's "back-scans").
	Backward
	dirCount
)

// String returns the wire name of the direction.
func (d Dir) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Spec fully identifies a scan flavor. Requests with equal Specs fuse
// into the same segmented kernel pass.
//
// User ops: Op == OpUser names a tenant-registered combine op. User
// carries the registered name (the wire form is "user:<name>") and
// Hash optionally pins the expected registration content hash — the
// admission path verifies it against the live registration and then
// zeroes it, so futures carrying the same registration land in the
// same batch group regardless of whether their callers pinned. The
// unexported reg field is the resolved registration; it participates
// in Spec equality, which is what scopes batch groups to one exact
// registration (a replacement mid-flight starts a new group instead of
// mixing semantics).
type Spec struct {
	Op   Op
	Kind Kind
	Dir  Dir

	// User is the registered op name when Op == OpUser ("" otherwise).
	User string
	// Hash, when nonzero on an OpUser spec, pins the expected
	// registration content hash; a mismatch at admission is ErrOpHash.
	Hash uint64

	reg *combine.Registered
}

// valid reports whether every field is in range.
func (s Spec) valid() bool {
	if s.Kind >= kindCount || s.Dir >= dirCount {
		return false
	}
	if s.Op == OpUser {
		return s.User != ""
	}
	return s.Op < opCount && s.User == "" && s.Hash == 0
}

// Valid reports whether every field is in range, for Backend
// implementations that accept Specs built outside ParseSpec.
func (s Spec) Valid() bool { return s.valid() }

// OpString returns the wire name of the spec's operator: "sum", "max",
// "min", "mul", or "user:<name>".
func (s Spec) OpString() string {
	if s.Op == OpUser {
		return "user:" + s.User
	}
	return s.Op.String()
}

// String returns e.g. "sum/exclusive/forward".
func (s Spec) String() string {
	return s.OpString() + "/" + s.Kind.String() + "/" + s.Dir.String()
}

// Binding returns the resolved registration of an admitted OpUser spec
// (nil for builtins or unresolved specs).
func (s Spec) Binding() *combine.Registered { return s.reg }

// Width returns the spec's element tuple width: 1 for every builtin,
// the registered program's width for a bound user op. Payload lengths
// must be a multiple of it.
func (s Spec) Width() int {
	if s.reg != nil {
		return s.reg.Width()
	}
	return 1
}

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxBatchElems flushes the building batch once its payloads total
	// this many elements. Default 1 << 16.
	MaxBatchElems int
	// MaxBatchRequests flushes the building batch once it holds this
	// many requests. 1 disables fusion entirely (every request is its
	// own batch — the "unfused" baseline). Default 4096.
	MaxBatchRequests int
	// MinBatchRequests is the batching fill target. The batcher always
	// fuses greedily (everything already queued joins the batch); below
	// the target it yields the processor while submissions keep
	// arriving, and flushes once they stop (or MaxWait is spent; see
	// Server.assemble). Fusion therefore tracks the offered concurrency
	// and never parks a timer: a lone request flushes after one yield.
	// Default 256.
	MinBatchRequests int
	// MaxWait caps how long a below-target batch keeps yielding for
	// stragglers before flushing anyway. <= 0 disables yielding: the
	// queue is drained once and the batch flushes. Default 100µs.
	MaxWait time.Duration
	// QueueLimit caps the submission queue. A full queue rejects with
	// ErrOverloaded instead of growing without bound. Default 4096.
	QueueLimit int
	// QueueAgeLimit sheds requests that waited in the queue longer than
	// this before reaching a kernel pass: they resolve with ErrShed
	// instead of executing. Shedding happens at batch-assembly time —
	// before the request's payload ever reaches a kernel pass —
	// so under sustained overload the server spends kernel passes only
	// on work whose caller plausibly still cares. 0 disables (default).
	QueueAgeLimit time.Duration
	// TenantWeights maps tenant names to batch-slot weights for the
	// batcher's weighted round-robin pick (the Scan tenant). Tenants not
	// listed (including the default "" tenant) get weight 1. A tenant
	// with weight w gets up to w consecutive batch slots per round, so
	// a flooding tenant degrades to its fair share of each batch
	// instead of starving everyone behind it in FIFO order.
	TenantWeights map[string]int
	// Executors sizes the batch-executor worker pool; <= 0 means
	// scan.Workers(0), i.e. GOMAXPROCS. Multiple executors pipeline:
	// one batch can run kernels while the batcher assembles the next.
	// Each group's kernel pass runs serially on its executor's
	// goroutine, so the pool is the server's only source of parallelism.
	Executors int
	// Faults is the chaos-injection hook: when non-nil, the server
	// consults the fault.KernelSlow and fault.KernelPanic points inside
	// each kernel pass. nil (the default) costs a nil check per batch.
	Faults *fault.Set
	// OpCap bounds how many distinct user combine ops one tenant may
	// register (re-registration of an existing name never counts).
	// <= 0 means combine.DefaultPerTenantCap.
	OpCap int

	// scalarVM forces every user combine op through the driver's
	// one-lane Exec walk, bypassing promotion and the vector engine. It
	// is a test seam, settable only from this package's tests, that
	// gives them a scalar baseline to compare the default dispatch
	// against; results are bit-identical either way.
	scalarVM bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatchElems <= 0 {
		c.MaxBatchElems = 1 << 16
	}
	if c.MaxBatchRequests <= 0 {
		c.MaxBatchRequests = 4096
	}
	if c.MinBatchRequests <= 0 {
		c.MinBatchRequests = 256
	}
	if c.MinBatchRequests > c.MaxBatchRequests {
		c.MinBatchRequests = c.MaxBatchRequests
	}
	if c.MaxWait == 0 {
		c.MaxWait = 100 * time.Microsecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	c.Executors = scan.Workers(c.Executors)
	return c
}

// request is one scan request. spec and data are required; tenant
// optionally names the submitter for the batcher's weighted fair pick
// ("" is the shared default tenant).
type request struct {
	spec   Spec
	data   []int64
	tenant string

	// seeded/carry mark a stream chunk: the kernel pass folds the carry
	// in at the segment head, so the chunk's result continues the
	// stream's running prefix (Figure 10's block-sum stitch applied
	// across time). Set only by Stream.Push.
	seeded bool
	carry  int64

	// deadline, when set, drops the request unexecuted once it has
	// passed, exactly like an expired context (context.DeadlineExceeded,
	// counted in DeadlineDrops). It is the wire's timeout_ms stamped at
	// admission: no timer runs behind it, the batcher reads it at pick
	// time.
	deadline time.Time
	// hook, when set, takes the outcome in place of a waiter (see
	// future.hook); tag rides along for it.
	hook func(*future)
	tag  wireTag
}

// future is the handle for an in-flight request. wait blocks until the
// request has a terminal outcome: a result, a typed error, or the
// request's own context error if it expired while queued.
//
// Every future is recycled through a sync.Pool: refs counts the two
// parties that can still touch the future (the inline waiter and the
// batch pipeline), and whoever releases last returns it to the pool.
// That keeps the steady-state request path free of the per-request
// future+channel allocations that would otherwise dominate the
// zero-copy serving profile.
type future struct {
	spec     Spec
	tenant   string
	ctx      context.Context
	deadline time.Time // zero = none; see request.deadline
	enqueued time.Time
	data     []int64
	seeded   bool  // stream chunk: fold carry in at the segment head
	carry    int64 // running prefix of all prior chunks (when seeded)
	res      []int64
	err      error
	resolved atomic.Bool
	// done is a one-token completion channel (capacity 1): complete
	// sends the single token, wait consumes it.
	done chan struct{}
	// hook, when set, stands in for the waiter: complete calls it with
	// the future resolved, on whichever goroutine resolved it (batcher,
	// executor, or the submitter for an empty request), then drops the
	// waiter's ref. The hook must not block, and must not touch the
	// future after it returns. tag is its per-request argument.
	hook func(*future)
	tag  wireTag
	// refs is the 2-party release count: one ref for the inline waiter
	// (or the hook), one for the batch pipeline (batcher or executor —
	// whichever resolves the future releases it). The last release
	// recycles the future.
	refs atomic.Int32
}

// futurePool recycles futures (see the future doc).
var futurePool = sync.Pool{
	New: func() any { return &future{done: make(chan struct{}, 1)} },
}

// putFuture scrubs and recycles a future. Only the last release path
// calls this; by then the token has been consumed and no other party
// holds a reference.
func putFuture(f *future) {
	select {
	case <-f.done: // enqueue-failure path: token never consumed
	default:
	}
	f.spec = Spec{}
	f.tenant = ""
	f.ctx = nil
	f.deadline = time.Time{}
	f.hook = nil
	f.tag = wireTag{}
	f.data = nil
	f.res = nil
	f.err = nil
	f.seeded = false
	f.carry = 0
	f.resolved.Store(false)
	futurePool.Put(f)
}

// release drops one party's reference, recycling the future when the
// count hits zero.
func (f *future) release() {
	if f.refs.Add(-1) == 0 {
		putFuture(f)
	}
}

// complete resolves the future exactly once; later calls are no-ops.
// The single-resolution guarantee is what makes panic recovery safe:
// a recover handler can blanket-fail a batch without double-resolving
// futures the scatter loop already delivered. outcome, when non-nil, is
// the Stats counter of this terminal outcome; it counts before the
// outcome is delivered, so a caller holding an answer always sees it
// counted.
func (f *future) complete(res []int64, err error, outcome *atomic.Uint64) bool {
	if !f.resolved.CompareAndSwap(false, true) {
		return false
	}
	if outcome != nil {
		outcome.Add(1)
	}
	f.res, f.err = res, err
	if f.hook != nil {
		f.hook(f)
		f.release() // the hook's ref, in place of the waiter's
		return true
	}
	f.done <- struct{}{} // cap 1, sent at most once: never blocks
	return true
}

// wait blocks until the request has been served and returns its result.
// It consumes the completion token, so each future has exactly one
// wait. The result slice is arena-backed and owned by the caller; it
// aliases no other request's result (see DESIGN.md "Arena ownership").
func (f *future) wait() ([]int64, error) {
	<-f.done
	return f.res, f.err
}

// Server is an in-process batched scan service. Create with New, submit
// from any number of goroutines, Close to drain and stop.
type Server struct {
	cfg    Config
	queue  chan *future
	execCh chan []*future

	// Fault points resolved once at construction; nil when chaos is
	// off, and a nil Point never fires.
	fpSlow    *fault.Point
	fpPanic   *fault.Point
	fpStall   *fault.Point
	fpCorrupt *fault.Point
	fpSkew    *fault.Point

	// ops is the tenant-scoped user combine-op registry; scans naming
	// "user:<name>" resolve against it at admission.
	ops *combine.Registry

	mu     sync.RWMutex // guards closed vs. sends on queue
	closed bool

	// Arrival clock for the batcher's flush rule, in nanoseconds since
	// epoch. Submitters stamp lastArrival under arrMu before they
	// enqueue, moving the stamp it replaces to prevArrival, so the pair
	// always holds the two latest arrivals in order. lastFlush is the
	// batcher's own.
	epoch       time.Time
	arrMu       sync.Mutex
	lastArrival int64
	prevArrival int64
	lastFlush   int64

	wg    sync.WaitGroup // batcher + executors
	stats stats
}

// New starts a Server with the given Config (zero value for defaults).
func New(cfg Config) *Server {
	s := newStopped(cfg)
	s.start()
	return s
}

// newStopped builds a Server without starting its goroutines. Tests use
// it to observe backpressure deterministically (nothing drains the
// queue until start is called).
func newStopped(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:       cfg,
		epoch:     time.Now(),
		queue:     make(chan *future, cfg.QueueLimit),
		execCh:    make(chan []*future, cfg.Executors),
		ops:       combine.NewRegistry(cfg.OpCap),
		fpSlow:    cfg.Faults.Point(fault.KernelSlow),
		fpPanic:   cfg.Faults.Point(fault.KernelPanic),
		fpStall:   cfg.Faults.Point(fault.ExecStall),
		fpCorrupt: cfg.Faults.Point(fault.QueueCorrupt),
		fpSkew:    cfg.Faults.Point(fault.ClockSkew),
	}
}

// start launches the batcher and the executor pool.
func (s *Server) start() {
	s.wg.Add(1 + s.cfg.Executors)
	go s.batchLoop()
	for i := 0; i < s.cfg.Executors; i++ {
		go s.execLoop()
	}
}

// submitReq is the admission path: it enqueues a scan request and
// returns its pooled future, which the caller must wait on once and
// then release (scanReq does both). ctx governs the request's lifetime:
// a nil or background context means "serve whenever"; a context with a
// deadline lets the batcher drop the request unexecuted once it expires
// (the future resolves with the context's error). An already-expired
// context is rejected outright. r.deadline works like a context
// deadline without the context.
//
// With r.hook set there is no waiter: the hook receives the outcome
// (see future.hook) and submitReq returns a nil future. An error return
// means the hook never runs.
//
// The data slice is retained until the batch executes; callers must
// not mutate it before the future resolves. Returns ErrOverloaded when
// the queue is full, ErrClosed after Close, ErrBadRequest for an
// invalid Spec.
func (s *Server) submitReq(ctx context.Context, r request) (*future, error) {
	if !r.spec.valid() {
		s.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: invalid spec %s", ErrBadRequest, r.spec)
	}
	if r.spec.Op == OpUser {
		if err := s.resolveUserOp(&r); err != nil {
			s.stats.rejected.Add(1)
			return nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	f := futurePool.Get().(*future)
	f.spec = r.spec
	f.tenant = r.tenant
	f.ctx = ctx
	f.deadline = r.deadline
	f.hook = r.hook
	f.tag = r.tag
	f.enqueued = time.Now()
	f.data = r.data
	f.seeded = r.seeded
	f.carry = r.carry
	if d := s.fpSkew.Delay(); d > 0 {
		// Chaos: the submitter's clock "jumped" — the request looks like
		// it has been queued for d already, so age-based shedding fires.
		f.enqueued = f.enqueued.Add(-d)
	}
	if len(r.data) == 0 {
		// Nothing to scan; resolve without a server round trip so empty
		// requests can never occupy batch slots. Only the waiter holds a
		// reference — the batch pipeline never sees this future.
		f.refs.Store(1)
		s.stats.requests.Add(1)
		f.complete([]int64{}, nil, &s.stats.served)
		if r.hook != nil {
			return nil, nil
		}
		return f, nil
	}
	f.refs.Store(2) // waiter + batch pipeline
	// Stamp the arrival before the send, so a batcher that receives f
	// already sees it. The clock is read under the lock, so the stamps
	// move forward in lock order.
	s.arrMu.Lock()
	s.prevArrival, s.lastArrival = s.lastArrival, int64(time.Since(s.epoch))
	s.arrMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.stats.rejected.Add(1)
		putFuture(f) // never enqueued: we own both refs
		return nil, ErrClosed
	}
	// Count the request before the send: once enqueued it may resolve,
	// and its outcome must never be counted ahead of it.
	s.stats.requests.Add(1)
	select {
	case s.queue <- f:
		if r.hook != nil {
			return nil, nil // f belongs to the pipeline and the hook now
		}
		return f, nil
	default:
		s.stats.requests.Add(^uint64(0))
		s.stats.rejected.Add(1)
		putFuture(f)
		return nil, ErrOverloaded
	}
}

// ResolveOp binds a user-op spec to its registration in ops — its own
// binding (Spec.Bind) or a lookup — and verifies any caller-pinned Hash
// (ErrOpHash; an unknown op is ErrBadRequest). The Hash is then zeroed,
// so equal registrations fuse into one batch group however callers
// pinned. Builtins pass through. Servers and coordinators share it.
func ResolveOp(ops *combine.Registry, spec Spec, tenant string) (Spec, error) {
	if spec.Op != OpUser {
		return spec, nil
	}
	reg := spec.reg
	if reg == nil {
		if reg = ops.Lookup(tenant, spec.User); reg == nil {
			return Spec{}, fmt.Errorf("%w: unknown user op %q for tenant %q (register_op first)", ErrBadRequest, spec.User, tenant)
		}
	}
	if spec.Hash != 0 && spec.Hash != reg.Hash {
		return Spec{}, fmt.Errorf("%w: op %q is registered as %#016x here, caller pinned %#016x", ErrOpHash, spec.User, reg.Hash, spec.Hash)
	}
	spec.Hash = 0
	spec.reg = reg
	return spec, nil
}

// resolveUserOp binds an OpUser request to its live registration
// (ResolveOp) and admits its payload: a whole number of tuples, and
// width 1 for a seeded request.
func (s *Server) resolveUserOp(r *request) error {
	spec, err := ResolveOp(s.ops, r.spec, r.tenant)
	if err != nil {
		return err
	}
	if w := spec.Width(); len(r.data)%w != 0 {
		return fmt.Errorf("%w: op %q combines width-%d tuples; %d elements is not a whole number of tuples", ErrBadRequest, spec.User, w, len(r.data))
	}
	if r.seeded && spec.Width() != 1 {
		return fmt.Errorf("%w: op %q has width %d; streams carry width-1 ops only", ErrBadRequest, spec.User, spec.Width())
	}
	r.spec = spec
	return nil
}

// RegisterScanOp validates source as a monoid and installs it as
// (tenant, name), returning the registration's content hash. This is
// the optional Backend capability behind the wire's register_op
// request (see OpRegistrar); rejections — parse errors, failed
// property tests with their counterexample, the tenant op cap — come
// back wrapped in ErrBadOp, which the wire maps to the bad_op code.
func (s *Server) RegisterScanOp(tenant, name, source string) (uint64, error) {
	reg, err := s.ops.Register(tenant, name, source)
	if err != nil {
		s.stats.opRejects.Add(1)
		return 0, fmt.Errorf("%w: %w", ErrBadOp, err)
	}
	s.stats.opRegisters.Add(1)
	return reg.Hash, nil
}

// scanReq is the synchronous path shared by SubmitCtx, Scan, and
// Stream.Push: submit, wait inline, release the waiter ref so the
// future recycles. The returned result buffer is arena-backed and
// owned by the caller (Put it when done — see DESIGN.md).
func (s *Server) scanReq(ctx context.Context, r request) ([]int64, error) {
	f, err := s.submitReq(ctx, r)
	if err != nil {
		return nil, err
	}
	res, werr := f.wait()
	f.release()
	return res, werr
}

// SubmitCtx runs one scan to completion under the default tenant: the
// request is dropped unexecuted (and SubmitCtx returns the context's
// error) if ctx expires before its batch reaches the kernels. The
// result buffer is arena-backed and owned by the caller.
func (s *Server) SubmitCtx(ctx context.Context, spec Spec, data []int64) ([]int64, error) {
	return s.scanReq(ctx, request{spec: spec, data: data})
}

// Scan runs one scan to completion under the given tenant. It is the
// Backend method the TCP front end calls for every one-shot request,
// shared by this in-process Server and a cluster Coordinator. The
// result buffer is arena-backed; the front end returns it to the arena
// after encoding the response.
func (s *Server) Scan(ctx context.Context, spec Spec, data []int64, tenant string) ([]int64, error) {
	return s.scanReq(ctx, request{spec: spec, data: data, tenant: tenant})
}

// Close stops accepting new requests, drains everything already queued
// (every accepted request resolves), waits for the batcher and executors
// to exit, and returns. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// shedIfDead resolves a future whose caller has stopped caring —
// expired/canceled context, a passed deadline stamp, or queued beyond
// QueueAgeLimit — and reports whether it did. This is the batcher's
// admission gate into a batch: dead work is dropped BEFORE a kernel
// pass spends cycles on it (the Figure 10 amortization argument applied
// to failure: overhead is paid once per batch, and never for work
// nobody will read). Besides admission, this is the only place the
// server reads a request's context.
func (s *Server) shedIfDead(f *future, now time.Time) bool {
	err := f.ctx.Err()
	if err == nil && !f.deadline.IsZero() && now.After(f.deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		f.complete(nil, err, &s.stats.deadlineDrops)
		return true
	}
	if lim := s.cfg.QueueAgeLimit; lim > 0 {
		if age := now.Sub(f.enqueued); age > lim {
			f.complete(nil, fmt.Errorf("%w: queued %v, limit %v", ErrShed, age.Round(time.Microsecond), lim), &s.stats.shed)
			return true
		}
	}
	return false
}

// batchLoop is the single goroutine that owns batch assembly. The
// policy is adaptive: fuse greedily (everything already queued joins);
// below the fill target, yield the processor while submissions keep
// arriving, and flush once they stop or the window is spent. Fusion
// therefore tracks the offered concurrency with no timer parking — Go timer wakeups cost milliseconds on a
// loaded box, far more than the scans being fused — while the element
// and request caps still bound each kernel pass.
//
// Between the FIFO channel and the batch sits the per-tenant weighted
// round-robin pick (tenantQueues): arrivals drain into per-tenant
// FIFOs and batch slots are handed out a tenant at a time, so a tenant
// flooding the queue fills its own FIFO while other tenants' requests
// still land in the very next batch. Expired and over-age requests are
// shed at pick time, before joining any batch.
func (s *Server) batchLoop() {
	defer func() {
		close(s.execCh)
		s.wg.Done()
	}()
	pend := newTenantQueues(s.cfg.TenantWeights)
	open := true // queue channel still open
	for {
		if pend.empty() {
			if !open {
				return
			}
			f, ok := <-s.queue
			if !ok {
				return
			}
			pend.push(f)
		}
		batch := s.assemble(pend, &open)
		if len(batch) > 0 {
			s.execCh <- batch
		} else {
			batchSlicePool.Put(&batch)
		}
	}
}

// batchSlicePool recycles the []*future batch slices that flow from the
// batcher to the executors, so steady-state assembly allocates nothing.
var batchSlicePool = sync.Pool{New: func() any { return new([]*future) }}

// assemble builds one batch from the pending tenant queues, refilling
// them greedily from the submission channel. Below the fill target it
// yields once, then keeps yielding only while arrivalsDue says more
// submissions are on their way.
func (s *Server) assemble(pend *tenantQueues, open *bool) []*future {
	batch := (*batchSlicePool.Get().(*[]*future))[:0]
	elems := 0
	var deadline time.Time
	for elems < s.cfg.MaxBatchElems && len(batch) < s.cfg.MaxBatchRequests {
		// Greedy: move everything already queued into the tenant FIFOs.
		if *open {
		drain:
			for {
				select {
				case f, ok := <-s.queue:
					if !ok {
						*open = false
						break drain
					}
					pend.push(f)
				default:
					break drain
				}
			}
		}
		if f := pend.pop(); f != nil {
			if s.shedIfDead(f, time.Now()) {
				f.release() // batch pipeline's ref: f never reaches an executor
				continue
			}
			if s.fpCorrupt.Fire() {
				// Chaos: the integrity check "detects" a corrupted queue
				// entry. The request fails typed and retryable instead of
				// executing on damaged state — the fail-safe contract a
				// real detector would honor.
				f.complete(nil, fmt.Errorf("%w: queue corruption detected (injected fault)", ErrInternal), &s.stats.corruptDrops)
				f.release()
				continue
			}
			batch = append(batch, f)
			elems += len(f.data)
			continue
		}
		// Nothing pending. Flush, unless the batch is below the fill
		// target and submissions are still arriving.
		if len(batch) == 0 {
			break
		}
		if len(batch) >= s.cfg.MinBatchRequests || s.cfg.MaxWait <= 0 || !*open {
			break
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(s.cfg.MaxWait)
		} else if now.After(deadline) || !s.arrivalsDue(now) {
			// The first pass always yields once; after that, the
			// window or the flush rule ends the batch.
			break
		}
		runtime.Gosched()
	}
	if len(batch) > 0 {
		s.lastFlush = int64(time.Since(s.epoch))
	}
	return batch
}

// holdGaps is how many of the latest inter-arrival gaps the batcher
// waits past the latest arrival before it decides a burst has ended.
const holdGaps = 4

// arrivalsDue is the batcher's flush rule: it reports whether another
// submission is expected soon. It holds only for concurrent traffic —
// at least two arrivals since the last flush. A lone request, or a
// caller that submits once per round trip, finds the arrival before
// its own on the far side of the last flush and is sent at once, so
// the rule never holds back a request nobody can join. For a burst
// it waits holdGaps of the latest gap past the latest arrival, and at
// least MaxWait/16, so scheduler jitter in a fast submitter does not
// split its burst; a gap too long to repeat within MaxWait means no
// burst. The rule reads only clocks and counters the
// submitters publish, so it holds on any core count: on one core the
// yield lets submitters run, on many they run alongside.
func (s *Server) arrivalsDue(now time.Time) bool {
	s.arrMu.Lock()
	last, prev := s.lastArrival, s.prevArrival
	s.arrMu.Unlock()
	if prev < s.lastFlush {
		return false
	}
	hold := holdGaps * max(last-prev, 0)
	if hold > int64(s.cfg.MaxWait) {
		return false
	}
	return int64(now.Sub(s.epoch))-last < max(hold, int64(s.cfg.MaxWait)/16)
}

// execLoop runs batches handed over by the batcher until the channel
// closes at shutdown. runBatch isolates kernel panics per group, so a
// poisoned batch costs its own futures ErrInternal and nothing else;
// as a last line of defense a panic escaping runBatch itself (batch
// bookkeeping, stats) is caught here and the loop keeps serving.
func (s *Server) execLoop() {
	defer s.wg.Done()
	sc := newExecScratch()
	for batch := range s.execCh {
		// Chaos: a stalled executor ages everything still queued behind
		// this batch, which is what queue-age shedding and deadline
		// drops exist to absorb.
		s.fpStall.Sleep()
		s.runBatchSafe(sc, batch)
		// The executor's reference on every future in the batch: by now
		// each one is resolved (scatter or failBatch), so the pipeline is
		// done touching them and they may recycle once their waiter is
		// done too. Then recycle the batch slice itself.
		for i, f := range batch {
			f.release()
			batch[i] = nil
		}
		batch = batch[:0]
		batchSlicePool.Put(&batch)
	}
}

// runBatchSafe runs one batch, converting any panic that escapes batch
// bookkeeping into ErrInternal on the batch's unresolved futures.
func (s *Server) runBatchSafe(sc *execScratch, batch []*future) {
	defer func() {
		if r := recover(); r != nil {
			s.failBatch(batch, r)
		}
	}()
	s.runBatch(sc, batch)
}

// failBatch resolves every not-yet-resolved future in a batch (or
// group) with ErrInternal after a recovered panic.
func (s *Server) failBatch(batch []*future, cause any) {
	s.stats.panics.Add(1)
	err := fmt.Errorf("%w: %v", ErrInternal, cause)
	for _, f := range batch {
		f.complete(nil, err, &s.stats.panicFailed)
	}
}

// Identity returns the identity element of the op's monoid: the value
// exclusive results surface directly (dst[0] for forward scans), the
// initial carry of a fresh stream (OpenStream) — seeding the first
// chunk with the identity makes every chunk take the same carry-seeded
// kernel path — and the seed of a cluster shard that starts a segment.
// Exported because the carry math is shared with internal/cluster.
func Identity(op Op) int64 {
	switch op {
	case OpMax:
		return math.MinInt64
	case OpMin:
		return math.MaxInt64
	case OpMul:
		return 1
	}
	return 0
}

// IdentitySpec generalizes Identity to bound user ops (width-1: the
// scalar carry paths — streams and cluster shard seeding — only exist
// for width-1 monoids).
func IdentitySpec(s Spec) int64 {
	if s.Op == OpUser && s.reg != nil {
		return s.reg.Prog.Identity[0]
	}
	return Identity(s.Op)
}

// CombineSpec folds two scalars with the spec's monoid — the carry
// arithmetic behind streams and cluster shard seeding, generalized to
// bound width-1 user ops. Builtins cannot fail; a user op's VM errors
// are typed by vmErr.
func CombineSpec(s Spec, fr *combine.Frame, a, b int64) (int64, error) {
	op, native, err := nativeOp(s)
	if err != nil {
		return 0, err
	}
	if native {
		return Combine(op, a, b), nil
	}
	v, err := s.reg.Prog.ExecScalar(fr, a, b)
	if err != nil {
		return 0, vmErr(s, err)
	}
	return v, nil
}

// CarrySpec combines a seeded block's carry into every element of its
// width-1 scan, in place: carry ⊗ dst[i] for forward scans, dst[i] ⊗
// carry for backward ones (user monoids need not commute) — the last
// step of the cluster's block-sum decomposition. Builtin and promoted
// ops run a native loop, other user ops combine's driver
// (Registered.Carry); VM errors are typed by vmErr.
func CarrySpec(s Spec, dst []int64, carry int64, dir Dir) error {
	op, native, err := nativeOp(s)
	if err != nil {
		return err
	}
	if !native {
		if err := s.reg.Carry(combine.NewVecScratch(), dst, carry, dir == Backward); err != nil {
			return vmErr(s, err)
		}
		return nil
	}
	switch op {
	case OpMax:
		for i, v := range dst {
			dst[i] = max(carry, v)
		}
	case OpMin:
		for i, v := range dst {
			dst[i] = min(carry, v)
		}
	case OpMul:
		for i := range dst {
			dst[i] *= carry
		}
	default:
		for i := range dst {
			dst[i] += carry
		}
	}
	return nil
}

// nativeOp returns the builtin that folds s natively — its own op, or
// the one a promoted registration equals, so promoted ops pay native
// cost on every carry path — or native false for a VM-only user op.
func nativeOp(s Spec) (op Op, native bool, err error) {
	if s.Op != OpUser {
		return s.Op, true, nil
	}
	if s.reg == nil {
		return 0, false, fmt.Errorf("%w: user op %q is unbound", ErrInternal, s.User)
	}
	op, native = promotedOp(s.reg)
	return op, native, nil
}

// vmErr types a user op's VM failure for the wire: a blown step budget
// is ErrOpBudget, any other fault ErrInternal.
func vmErr(s Spec, err error) error {
	if errors.Is(err, combine.ErrBudget) {
		return fmt.Errorf("%w: op %q: %v", ErrOpBudget, s.User, err)
	}
	return fmt.Errorf("%w: op %q faulted: %v", ErrInternal, s.User, err)
}
