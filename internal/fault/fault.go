// Package fault provides named, probabilistically-armed fault points
// for chaos testing the serving layer. A fault point is a place in the
// code that asks "should I misbehave right now?"; the answer is no
// unless a test (or scansd's -chaos flag) has armed the point with a
// firing probability. Disarmed points cost one nil check or one atomic
// load — cheap enough to leave in production paths permanently, which
// is the whole idea: the chaos harness exercises the exact binary that
// serves traffic, not an instrumented twin.
//
// Usage: a subsystem resolves its points once at construction
// (set.Point(name) — nil-safe, a nil *Set yields nil *Points that
// never fire) and calls p.Fire() / p.Sleep() on the hot path. Tests
// arm points with Arm / ArmSleep, observe firing counts with Fires,
// and disarm with Disarm / DisarmAll.
package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Standard point names used by internal/serve. Any other name works
// too — points are created on first reference — but sharing these
// constants keeps the server and the chaos tests in one vocabulary.
const (
	// KernelSlow delays a batch's kernel pass by the armed duration.
	KernelSlow = "kernel.slow"
	// KernelPanic panics inside a batch's kernel pass.
	KernelPanic = "kernel.panic"
	// ConnDrop closes a network connection between two requests.
	ConnDrop = "conn.drop"
	// PartialWrite truncates a response line mid-write and closes the
	// connection, leaving the client a torn line.
	PartialWrite = "conn.partialwrite"
	// ExecStall delays an executor between taking a batch off the
	// channel and running it, simulating a descheduled or page-faulting
	// executor: queued work ages (queue-age shedding and deadlines see
	// realistic pressure) while the batcher keeps assembling.
	ExecStall = "exec.stall"
	// QueueCorrupt simulates DETECTED queue corruption: a request pulled
	// from the queue at batch-assembly time is treated as damaged and
	// failed with a typed internal error instead of executing. The point
	// models a fail-safe integrity check, so firing it must never
	// corrupt a result — only convert a would-be success into a clean,
	// retryable failure.
	QueueCorrupt = "queue.corrupt-detect"
	// ClusterWorkerSlow delays a coordinator's shard dispatch to a
	// worker, stretching the window in which hedged requests fire.
	ClusterWorkerSlow = "cluster.worker.slow"
	// ClusterWorkerDrop kills the coordinator's connection to a worker
	// while a shard is in flight, simulating a worker dying mid-scan.
	ClusterWorkerDrop = "cluster.worker.drop"
	// WireTruncate cuts a binary-protocol response frame in half and
	// closes the connection — the frame-level analogue of PartialWrite.
	// A binary stream has no resync point, so the client must treat the
	// torn frame as a dead connection, never as a response.
	WireTruncate = "wire.truncate"
	// WireCorruptLen flips bits in a binary response frame's length
	// prefix before writing it, then closes the connection: the client's
	// framing layer must detect the damage (absurd length, short read,
	// or a payload that fails structural validation) and kill the
	// connection rather than deliver garbage.
	WireCorruptLen = "wire.corrupt-len"
	// ClockSkew perturbs the serving layer's deadline clock: an admitted
	// request's enqueue timestamp is aged backward by the armed duration,
	// as if the submitting machine's clock had jumped. Queue-age shedding
	// then sees an ancient request and must fail it typed (ErrShed)
	// rather than misbehave — the fault checks that time-based policies
	// degrade cleanly under clock trouble.
	ClockSkew = "clock.skew"
	// ClusterCoordCrash kills the primary coordinator's front end
	// mid-request (via cluster.Config.CrashHook), the chaos stand-in for
	// kill -9. Clients holding stream resume tokens must re-attach to
	// the standby and continue bit-identically.
	ClusterCoordCrash = "cluster.coord.crash"
	// ClusterHeartbeatDrop silently discards a worker heartbeat at the
	// coordinator, simulating a lossy control plane: a worker whose
	// beats are eaten long enough is ejected by liveness even though it
	// is healthy, and must be readmitted when beats get through again.
	ClusterHeartbeatDrop = "cluster.heartbeat.drop"
	// ClusterJoinStorm amplifies a single worker announcement into many
	// concurrent ones, simulating a fleet-wide restart where every
	// worker re-announces at once. Admission must stay idempotent: one
	// registry entry per address, no duplicate shards.
	ClusterJoinStorm = "cluster.worker.joinstorm"
)

// Set is an independent collection of fault points sharing one seeded
// RNG stream. A nil *Set is valid and inert: every method is a no-op
// and Point returns nil. Servers therefore thread a *Set through their
// config unconditionally and pay nothing when chaos is off.
type Set struct {
	rng    atomic.Uint64 // xorshift64 state, shared by all points
	mu     sync.Mutex    // guards points map shape (not point state)
	points map[string]*Point
}

// New returns a Set whose firing decisions derive from seed, so a
// chaos run is reproducible up to goroutine interleaving.
func New(seed int64) *Set {
	s := &Set{points: make(map[string]*Point)}
	state := uint64(seed)
	if state == 0 {
		state = 0x9e3779b97f4a7c15 // xorshift state must be nonzero
	}
	s.rng.Store(state)
	return s
}

// Point returns the named point, creating it (disarmed) on first
// reference. On a nil Set it returns nil, which is a valid
// never-firing Point.
func (s *Set) Point(name string) *Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.points[name]
	if p == nil {
		p = &Point{name: name, set: s}
		s.points[name] = p
	}
	return p
}

// Arm sets the point's firing probability (0 disarms, 1 always fires).
// No-op on a nil Set.
func (s *Set) Arm(name string, prob float64) {
	if s == nil {
		return
	}
	s.Point(name).arm(prob, 0)
}

// ArmSleep arms a delay point: with probability prob, Sleep pauses the
// caller for d. No-op on a nil Set.
func (s *Set) ArmSleep(name string, prob float64, d time.Duration) {
	if s == nil {
		return
	}
	s.Point(name).arm(prob, d)
}

// Disarm sets the point's probability to zero. Firing counts survive
// so a test can disarm and then assert on what fired.
func (s *Set) Disarm(name string) { s.Arm(name, 0) }

// DisarmAll disarms every point in the set.
func (s *Set) DisarmAll() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.points {
		p.prob.Store(0)
	}
}

// Fires returns how many times the named point has fired. 0 on a nil
// Set or an unknown name.
func (s *Set) Fires(name string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	p := s.points[name]
	s.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.fires.Load()
}

// String summarizes every point as "name:fires/evals@prob", sorted by
// name — the line chaos runs log next to the server stats.
func (s *Set) String() string {
	if s == nil {
		return "faults{}"
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.points))
	for name := range s.points {
		names = append(names, name)
	}
	pts := make([]*Point, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		pts = append(pts, s.points[name])
	}
	s.mu.Unlock()
	out := "faults{"
	for i, p := range pts {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d/%d@%g", p.name, p.fires.Load(), p.evals.Load(),
			math.Float64frombits(p.prob.Load()))
	}
	return out + "}"
}

// next advances the shared xorshift64 stream one step.
func (s *Set) next() uint64 {
	for {
		old := s.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// Point is one named fault site. The zero probability (and the nil
// Point) never fires; all methods are safe on a nil receiver and safe
// for concurrent use.
type Point struct {
	name    string
	set     *Set
	prob    atomic.Uint64 // math.Float64bits of the firing probability
	delayNs atomic.Int64  // Sleep duration when armed via ArmSleep
	fires   atomic.Uint64
	evals   atomic.Uint64
}

// arm sets probability and optional delay.
func (p *Point) arm(prob float64, d time.Duration) {
	p.prob.Store(math.Float64bits(prob))
	p.delayNs.Store(int64(d))
}

// Fire reports whether the fault should trigger this time. The
// disarmed fast path is a single atomic load (or a nil check).
func (p *Point) Fire() bool {
	if p == nil {
		return false
	}
	prob := math.Float64frombits(p.prob.Load())
	if prob <= 0 {
		return false
	}
	p.evals.Add(1)
	// 53 random bits → uniform [0,1).
	if float64(p.set.next()>>11)/(1<<53) >= prob {
		return false
	}
	p.fires.Add(1)
	return true
}

// Sleep fires the point and, when it fires, pauses the caller for the
// armed delay. Returns whether it slept.
func (p *Point) Sleep() bool {
	if !p.Fire() {
		return false
	}
	if d := time.Duration(p.delayNs.Load()); d > 0 {
		time.Sleep(d)
	}
	return true
}

// Delay fires the point and, when it fires, returns the armed duration
// WITHOUT sleeping — for faults that feed the duration into time math
// (e.g. fault.ClockSkew skewing a timestamp) instead of stalling the
// caller. Returns 0 when the point does not fire (or is nil/disarmed).
func (p *Point) Delay() time.Duration {
	if !p.Fire() {
		return 0
	}
	return time.Duration(p.delayNs.Load())
}

// Fires returns how many times this point has fired.
func (p *Point) Fires() uint64 {
	if p == nil {
		return 0
	}
	return p.fires.Load()
}

// Name returns the point's name ("" for the nil never-firing point).
func (p *Point) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}
