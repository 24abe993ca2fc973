package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scans/internal/fault"
)

// pushTenant enqueues a bare future tagged with a tenant name.
func pushTenant(t *tenantQueues, tenant string, n int) []*future {
	futs := make([]*future, n)
	for i := range futs {
		futs[i] = &future{tenant: tenant, done: make(chan struct{})}
		t.push(futs[i])
	}
	return futs
}

func popTenants(t *tenantQueues, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		f := t.pop()
		if f == nil {
			break
		}
		out = append(out, f.tenant)
	}
	return out
}

func TestTenantQueuesRoundRobin(t *testing.T) {
	// A flooding tenant A (10 queued) and a light tenant B (2 queued):
	// equal weights must interleave A,B,A,B before A gets the rest, so
	// B's requests ride in the very next batch instead of behind A's
	// backlog.
	q := newTenantQueues(nil)
	pushTenant(q, "A", 10)
	pushTenant(q, "B", 2)
	got := popTenants(q, 4)
	want := []string{"A", "B", "A", "B"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pick order = %v, want %v", got, want)
	}
	// B drained: the rest is all A, FIFO.
	rest := popTenants(q, 20)
	if len(rest) != 8 {
		t.Fatalf("drained %d more, want 8", len(rest))
	}
	for _, tn := range rest {
		if tn != "A" {
			t.Fatalf("unexpected tenant %q after B drained", tn)
		}
	}
	if q.pop() != nil || !q.empty() {
		t.Fatal("queues not empty after drain")
	}
}

func TestTenantQueuesWeights(t *testing.T) {
	// Weight 3 for A means A gets 3 slots per round to B's 1.
	q := newTenantQueues(map[string]int{"A": 3})
	pushTenant(q, "A", 6)
	pushTenant(q, "B", 2)
	got := popTenants(q, 8)
	want := []string{"A", "A", "A", "B", "A", "A", "A", "B"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("weighted pick order = %v, want %v", got, want)
	}
}

func TestTenantQueuesSingleTenantIsFIFO(t *testing.T) {
	q := newTenantQueues(nil)
	futs := pushTenant(q, "", 5)
	for i, want := range futs {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d broke FIFO order", i)
		}
	}
}

func TestTenantQueuesInterleavedPushPop(t *testing.T) {
	// Tenants draining and reappearing must not corrupt the ring.
	q := newTenantQueues(nil)
	pushTenant(q, "A", 1)
	pushTenant(q, "B", 1)
	if got := popTenants(q, 2); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("first round = %v", got)
	}
	pushTenant(q, "B", 2)
	pushTenant(q, "A", 1)
	got := popTenants(q, 3)
	if !reflect.DeepEqual(got, []string{"B", "A", "B"}) {
		t.Fatalf("second round = %v, want [B A B]", got)
	}
	if !q.empty() {
		t.Fatal("not empty")
	}
}

func TestDeadlineExpiredInQueueIsDropped(t *testing.T) {
	// A request whose context expires while it waits in the queue must
	// resolve with the context error and NEVER reach a kernel pass.
	s := newStopped(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	f, err := s.submitReq(ctx, request{spec: Spec{Op: OpSum}, data: []int64{1, 2, 3}})
	if err != nil {
		t.Fatalf("submitReq: %v", err)
	}
	<-ctx.Done() // expire while queued (server not started)
	s.start()
	res, err := f.wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = (%v, %v), want DeadlineExceeded", res, err)
	}
	if res != nil {
		t.Fatalf("expired request produced a result: %v", res)
	}
	s.Close()
	st := s.Stats()
	if st.DeadlineDrops != 1 || st.Served != 0 {
		t.Fatalf("stats = %v, want 1 deadline drop, 0 served", st)
	}
}

func TestCanceledInQueueIsDropped(t *testing.T) {
	s := newStopped(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	f, err := s.submitReq(ctx, request{spec: Spec{Op: OpSum}, data: []int64{1}})
	if err != nil {
		t.Fatalf("submitReq: %v", err)
	}
	cancel()
	s.start()
	if _, err := f.wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want Canceled", err)
	}
	s.Close()
	if st := s.Stats(); st.DeadlineDrops != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", st.DeadlineDrops)
	}
}

func TestAlreadyExpiredContextRejectedAtAdmission(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.submitReq(ctx, request{spec: Spec{Op: OpSum}, data: []int64{1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submitReq on dead ctx = %v, want Canceled", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Requests != 0 {
		t.Fatalf("stats = %v, want rejected=1 requests=0", st)
	}
}

func TestQueueAgeShed(t *testing.T) {
	// A request older than QueueAgeLimit is shed with ErrShed before
	// any kernel pass — stale work is dropped, not executed.
	s := newStopped(Config{QueueAgeLimit: time.Millisecond})
	f, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: []int64{1, 2}})
	if err != nil {
		t.Fatalf("submitReq: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	s.start()
	if _, err := f.wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("Wait err = %v, want ErrShed", err)
	}
	s.Close()
	st := s.Stats()
	if st.Shed != 1 || st.Served != 0 || st.Batches != 0 {
		t.Fatalf("stats = %v, want shed=1 served=0 batches=0", st)
	}
}

func TestFreshRequestsAreNotShed(t *testing.T) {
	s := New(Config{QueueAgeLimit: time.Second})
	defer s.Close()
	got, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum, Kind: Inclusive}, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	if want := []int64{1, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SubmitCtx = %v, want %v", got, want)
	}
}

func TestPanicIsolation(t *testing.T) {
	// An injected kernel panic must fail that batch's futures with
	// ErrInternal and leave the server serving.
	faults := fault.New(1)
	s := New(Config{Faults: faults})
	defer s.Close()

	faults.Arm(fault.KernelPanic, 1)
	if _, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum}, []int64{1, 2, 3}); !errors.Is(err, ErrInternal) {
		t.Fatalf("SubmitCtx during armed panic = %v, want ErrInternal", err)
	}
	faults.Disarm(fault.KernelPanic)

	// The server survived: the next request is served normally.
	got, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum}, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("SubmitCtx after panic: %v", err)
	}
	if want := []int64{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-panic result = %v, want %v", got, want)
	}
	st := s.Stats()
	if st.Panics < 1 || st.PanicFailed < 1 {
		t.Fatalf("stats = %v, want >=1 panic and >=1 panic-failed future", st)
	}
	if st.Served < 1 {
		t.Fatalf("stats = %v, want >=1 served after recovery", st)
	}
}

func TestPanicIsolationConfinedToGroup(t *testing.T) {
	// Two groups in one batch, panic on the second pass only: the
	// first group's futures must still get results. Arm with a firing
	// sequence that hits pass 2: easier — arm prob 1, submit two specs
	// in one batch; both groups panic, both get ErrInternal; then
	// disarm and verify both specs serve. The per-group confinement is
	// what runGroupSafe guarantees; the cross-group survival case is
	// covered by the probabilistic chaos soak.
	faults := fault.New(2)
	s := New(Config{Faults: faults, MinBatchRequests: 2, MaxWait: 50 * time.Millisecond})
	defer s.Close()
	faults.Arm(fault.KernelPanic, 1)
	fa, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := s.submitReq(context.Background(), request{spec: Spec{Op: OpMax}, data: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.wait(); !errors.Is(err, ErrInternal) {
		t.Fatalf("group A err = %v, want ErrInternal", err)
	}
	if _, err := fb.wait(); !errors.Is(err, ErrInternal) {
		t.Fatalf("group B err = %v, want ErrInternal", err)
	}
	faults.Disarm(fault.KernelPanic)
	for _, spec := range []Spec{{Op: OpSum}, {Op: OpMax}} {
		if _, err := s.SubmitCtx(context.Background(), spec, []int64{1, 2}); err != nil {
			t.Fatalf("%v after panics: %v", spec, err)
		}
	}
}

func TestSlowKernelFaultDelays(t *testing.T) {
	faults := fault.New(3)
	faults.ArmSleep(fault.KernelSlow, 1, 20*time.Millisecond)
	s := New(Config{Faults: faults})
	defer s.Close()
	start := time.Now()
	if _, err := s.SubmitCtx(context.Background(), Spec{Op: OpSum}, []int64{1}); err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow-kernel request returned in %v, want >= ~20ms", d)
	}
}

func TestTerminalOutcomeAccounting(t *testing.T) {
	// Requests == Served + DeadlineDrops + Shed + PanicFailed after a
	// drain: every accepted request has exactly one terminal outcome.
	faults := fault.New(4)
	s := New(Config{Faults: faults, QueueAgeLimit: 50 * time.Millisecond})
	faults.Arm(fault.KernelPanic, 0.2)
	for i := 0; i < 200; i++ {
		var (
			f   *future
			err error
		)
		if i%5 == 0 {
			// Cancel racing the batcher: either a deadline drop or a
			// served/panicked result — both are legal terminal outcomes.
			ctx, cancel := context.WithCancel(context.Background())
			f, err = s.submitReq(ctx, request{spec: Spec{Op: OpSum}, data: []int64{int64(i), 1}})
			cancel()
		} else {
			f, err = s.submitReq(context.Background(), request{spec: Spec{Op: OpSum}, data: []int64{int64(i), 1}})
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%7 == 0 {
			f.wait()
		}
	}
	s.Close()
	st := s.Stats()
	if got := st.Served + st.DeadlineDrops + st.Shed + st.PanicFailed; got != st.Requests {
		t.Fatalf("accounting broken: served+drops+shed+panicked = %d, requests = %d (%v)", got, st.Requests, st)
	}
}

func TestRetryPolicyClassification(t *testing.T) {
	p := RetryPolicy{}
	retryable := []error{ErrOverloaded, ErrShed, ErrInternal, errors.New("conn reset")}
	for _, err := range retryable {
		if !p.Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	fatal := []error{nil, ErrBadRequest, ErrClosed, context.DeadlineExceeded, context.Canceled}
	for _, err := range fatal {
		if p.Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Jitter: 0.5}
	for attempt := 1; attempt <= 20; attempt++ {
		d := p.Backoff(attempt)
		if d < 0 || d > 8*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, outside (0, MaxDelay]", attempt, d)
		}
	}
	// Jitterless is exact exponential, capped.
	exact := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Jitter: -1}
	for attempt, want := range map[int]time.Duration{
		1: time.Millisecond, 2: 2 * time.Millisecond, 3: 4 * time.Millisecond,
		4: 8 * time.Millisecond, 5: 8 * time.Millisecond, 60: 8 * time.Millisecond,
	} {
		if got := exact.Backoff(attempt); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
}

func TestRetryPolicyDo(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	fails := 2
	attempts, err := p.Do(context.Background(), func() error {
		if fails > 0 {
			fails--
			return ErrOverloaded
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("Do = (%d, %v), want (3, nil)", attempts, err)
	}
	attempts, err = p.Do(context.Background(), func() error { return ErrBadRequest })
	if !errors.Is(err, ErrBadRequest) || attempts != 1 {
		t.Fatalf("Do fatal = (%d, %v), want (1, ErrBadRequest)", attempts, err)
	}
	attempts, err = p.Do(context.Background(), func() error { return ErrInternal })
	if !errors.Is(err, ErrInternal) || attempts != 5 {
		t.Fatalf("Do exhausted = (%d, %v), want (5, ErrInternal)", attempts, err)
	}
}

func TestExtractID(t *testing.T) {
	cases := map[string]uint64{
		`{"id":42,"op":"sum"`:        42,
		`{"op":"sum","id": 7, "x"`:   7,
		`{"id" : 123`:                123,
		`{"op":"sum"}`:               0,
		`garbage`:                    0,
		`{"id":"notanumber"}`:        0,
		`{"id":18446744073709551615`: 18446744073709551615,

		// A string VALUE spelled "id" is not the id key: the old scanner
		// matched the first `"id"` it saw anywhere and read the neighbor
		// of an unrelated field (9 here, or garbage after a tenant named
		// "id"). Only a top-level key followed by a colon counts.
		`{"tenant":"id","id":9}`:       9,
		`{"tenant":"id","seq":3}`:      0,
		`{"x":"\"id\":7","id":6}`:      6, // escaped quotes inside a value
		`{"meta":{"id":5},"id":8}`:     8, // nested object's id is not ours
		`{"meta":{"id":5},"op":"sum"`:  0,
		`[{"id":5}]`:                   0, // top level is an array, not our envelope
		`{"data":[1,2,3],"id":4`:       4,
		`{"id":99999999999999999999`:   0, // > MaxUint64: reject, don't wrap
		`{"id":184467440737095516150`:  0, // MaxUint64*10: the wraparound case
		`{"id":}`:                      0, // key present, no digits
		`{"op":"truncated mid-str`:     0, // unterminated string: nothing after it is trustworthy
		`{"op":"sum","id":0,"data":[]`: 0, // explicit id 0 is indistinguishable from absent, by protocol
	}
	for line, want := range cases {
		if got := extractID([]byte(line)); got != want {
			t.Errorf("extractID(%q) = %d, want %d", line, got, want)
		}
	}
}

func TestWireErrorCodeRoundTrip(t *testing.T) {
	for _, err := range []error{ErrBadRequest, ErrOverloaded, ErrClosed, ErrInternal, ErrShed} {
		code := codeForError(err)
		back := errorForCode(code, err.Error())
		if !errors.Is(back, err) {
			t.Errorf("round trip lost %v (code %q, got %v)", err, code, back)
		}
	}
	if !errors.Is(errorForCode(CodeDeadline, "x"), context.DeadlineExceeded) {
		t.Error("deadline code did not map to context.DeadlineExceeded")
	}
	if codeForError(context.Canceled) != CodeDeadline {
		t.Error("canceled not classified as deadline code")
	}
	if !errors.Is(errorForCode(CodeBadJSON, "x"), ErrBadRequest) {
		t.Error("bad_json code did not map to ErrBadRequest")
	}
}

// TestRetryPolicyBackoffShiftOverflow is the regression for the shift
// overflow: BaseDelay<<(attempt-1) wraps at high attempt counts, and
// the wrapped value can land on a SMALL POSITIVE duration that the old
// `d <= 0 || d > MaxDelay` check waved through — collapsing capped
// backoff into a near-hot retry loop exactly when a long outage has
// pushed attempts high. Every delay past the cap point must be exactly
// MaxDelay.
func TestRetryPolicyBackoffShiftOverflow(t *testing.T) {
	// (1<<40)+1 ns shifted by 24 wraps to exactly 1<<24 ns ≈ 16.8ms:
	// positive, under MaxDelay, and completely wrong. Pre-fix code
	// returned it; the fix proves the shift fits before performing it.
	p := RetryPolicy{BaseDelay: (1 << 40) + 1, MaxDelay: 100 * time.Millisecond, Jitter: -1}
	if got := p.Backoff(25); got != p.MaxDelay {
		t.Fatalf("Backoff(25) = %v, want MaxDelay %v (wrapped shift escaped the cap)", got, p.MaxDelay)
	}
	for _, attempt := range []int{2, 10, 24, 26, 62, 63, 64, 100, 1000, 1 << 30} {
		if got := p.Backoff(attempt); got != p.MaxDelay {
			t.Fatalf("Backoff(%d) = %v, want MaxDelay %v", attempt, got, p.MaxDelay)
		}
	}
	// Jittered delays stay in (0, MaxDelay] at the same attempt counts.
	jittered := RetryPolicy{BaseDelay: (1 << 40) + 1, MaxDelay: 100 * time.Millisecond, Jitter: 0.5}
	for _, attempt := range []int{25, 63, 64, 1000} {
		if got := jittered.Backoff(attempt); got <= 0 || got > jittered.MaxDelay {
			t.Fatalf("jittered Backoff(%d) = %v, outside (0, MaxDelay]", attempt, got)
		}
	}
	// Sanity below the cap: the exponential ramp is untouched.
	small := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: time.Hour, Jitter: -1}
	if got := small.Backoff(11); got != 1024*time.Millisecond {
		t.Fatalf("Backoff(11) = %v, want 1.024s", got)
	}
}

// TestDeadlineMSRoundsUp is the regression for the sub-millisecond
// truncation: a live 999µs budget used to truncate to timeout_ms=0,
// which on the wire means NO timeout — the tightest deadlines were the
// ones silently dropped. The conversion must round up.
func TestDeadlineMSRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{999 * time.Microsecond, 1},
		{time.Microsecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + 500*time.Microsecond, 2},
		{2 * time.Millisecond, 2},
		{0, 0},
		{-5 * time.Millisecond, 0},
	}
	for _, c := range cases {
		if got := deadlineMS(c.d); got != c.want {
			t.Errorf("deadlineMS(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestTenantQueuesPropertyRandomized drives random push/pop
// interleavings through the fairness structure and checks the ring and
// credit invariants the batcher depends on:
//
//  1. Conservation: every pushed future pops exactly once (no
//     duplicates, no losses), and a full drain empties the structure.
//  2. Per-tenant FIFO: a tenant's futures pop in push order.
//  3. Coherence: empty() agrees with the outstanding count at every
//     step, and pop on empty returns nil.
//  4. Bounded starvation: a continuously-pending tenant is served at
//     least once per total-weight pops — WRR's whole point.
func TestTenantQueuesPropertyRandomized(t *testing.T) {
	tenants := []string{"a", "b", "c", "d", "e"}
	weights := map[string]int{"a": 1, "b": 2, "c": 3} // d, e default to 1
	totalWeight := 0
	for _, tn := range tenants {
		totalWeight += max(weights[tn], 1)
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := newTenantQueues(weights)
		var (
			pushed  = map[string][]*future{}
			nPopped = map[string]int{}
			seen    = map[*future]bool{}
			// starve[tn] counts pops of OTHER tenants since tn was last
			// served while tn had work pending.
			starve  = map[string]int{}
			pending = 0
		)
		checkPop := func() {
			f := q.pop()
			if f == nil {
				t.Fatalf("trial %d: pop = nil with %d pending", trial, pending)
			}
			if seen[f] {
				t.Fatalf("trial %d: future popped twice (tenant %q)", trial, f.tenant)
			}
			seen[f] = true
			if want := pushed[f.tenant][nPopped[f.tenant]]; f != want {
				t.Fatalf("trial %d: tenant %q popped out of FIFO order", trial, f.tenant)
			}
			nPopped[f.tenant]++
			pending--
			starve[f.tenant] = 0
			for tn := range starve {
				if tn == f.tenant {
					continue
				}
				if nPopped[tn] == len(pushed[tn]) {
					delete(starve, tn) // drained; counter restarts on re-entry
					continue
				}
				starve[tn]++
				if starve[tn] > totalWeight {
					t.Fatalf("trial %d: tenant %q starved — %d consecutive pops of others (total weight %d)",
						trial, tn, starve[tn], totalWeight)
				}
			}
		}
		for step := 0; step < 500; step++ {
			if pending == 0 || rng.Intn(2) == 0 {
				tn := tenants[rng.Intn(len(tenants))]
				f := &future{tenant: tn, done: make(chan struct{})}
				q.push(f)
				pushed[tn] = append(pushed[tn], f)
				pending++
				if _, ok := starve[tn]; !ok {
					starve[tn] = 0
				}
			} else {
				checkPop()
			}
			if q.empty() != (pending == 0) {
				t.Fatalf("trial %d: empty() = %v with %d pending", trial, q.empty(), pending)
			}
		}
		for pending > 0 {
			checkPop()
		}
		if q.pop() != nil || !q.empty() {
			t.Fatalf("trial %d: structure not empty after full drain", trial)
		}
		total := 0
		for tn, futs := range pushed {
			if nPopped[tn] != len(futs) {
				t.Fatalf("trial %d: tenant %q lost futures: pushed %d, popped %d", trial, tn, len(futs), nPopped[tn])
			}
			total += len(futs)
		}
		if len(seen) != total {
			t.Fatalf("trial %d: conservation broken: %d unique pops for %d pushes", trial, len(seen), total)
		}
	}
}
