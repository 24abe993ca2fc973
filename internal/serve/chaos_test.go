package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
	"scans/internal/fault"
)

// TestChaosSoak runs the full serving path — TCP front end, admission,
// tenant-fair batching, kernels — with every fault point armed at
// once: slow kernels, kernel panics, dropped connections, torn
// response lines. The invariants under fire:
//
//  1. No lost requests: every submitted request reaches exactly one
//     terminal outcome (a verified-correct result or a typed error)
//     within its retry budget.
//  2. No corrupted or misrouted responses: every successful result
//     matches the serial reference for that request's unique payload.
//  3. The server survives ≥ 1 injected kernel panic and still serves
//     cleanly after the storm.
//  4. Server-side accounting closes: accepted = served + deadline
//     drops + sheds + panic-failed after the drain.
//  5. No leaked stream sessions: a third of the traffic rides streaming
//     sessions, so conn.drop regularly tears connections mid-stream;
//     after the drain the active-stream gauge must be zero and the
//     stream ledger must close (opened = closed + failed + expired).
//  6. No leaked arena buffers: the zero-copy path checks out pooled
//     buffers for every decoded payload, kernel output, and response
//     line; after the drain every checkout must have been returned
//     (gets == puts on the arena ledger delta), with every fault —
//     including clock.skew shedding admitted requests — armed.
//
// Run under -race (scripts/check.sh does) this is also the package's
// widest data-race net.
func TestChaosSoak(t *testing.T) {
	const (
		clients = 6
		seed    = 0xC0FFEE
	)
	perClient := 120
	if testing.Short() {
		perClient = 30
	}

	arenaBefore := arena.Stats()

	faults := fault.New(seed)
	faults.ArmSleep(fault.KernelSlow, 0.02, 2*time.Millisecond)
	faults.Arm(fault.KernelPanic, 0.02)
	faults.Arm(fault.ConnDrop, 0.01)
	faults.Arm(fault.PartialWrite, 0.01)
	faults.ArmSleep(fault.ExecStall, 0.02, 2*time.Millisecond)
	faults.Arm(fault.QueueCorrupt, 0.01)
	// Clock skew ages an admitted request past QueueAgeLimit (500ms), so
	// the age-based shedder must fail it with a typed ErrShed — and the
	// shed path must still recycle the request's payload buffer.
	faults.ArmSleep(fault.ClockSkew, 0.02, time.Second)
	// Frame-level chaos for the binary half of the client fleet: torn
	// frames and corrupted length prefixes mid-response. Both kill the
	// connection server-side; the client must classify them as
	// conn-level (fate unknown) and the arena ledger must still close —
	// the writer goroutine recycles frames even after the conn dies.
	faults.Arm(fault.WireTruncate, 0.01)
	faults.Arm(fault.WireCorruptLen, 0.01)

	ns := startNetCfg(t,
		Config{
			Faults:        faults,
			QueueAgeLimit: 500 * time.Millisecond,
			MaxWait:       100 * time.Microsecond,
		},
		NetConfig{
			Faults:          faults,
			PerConnInflight: 64,
			WriteTimeout:    5 * time.Second,
		})

	policy := RetryPolicy{MaxAttempts: 10, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond}
	specs := allSpecs()

	// A slice of the storm runs a registered user monoid through the
	// combine VM, under an explicit shared tenant so one registration
	// (retried through the same chaos) covers every connection. The VM's
	// arena checkouts ride the same ledger assertion below.
	if _, err := policy.Do(context.Background(), func() error {
		conn, err := Dial(ns.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err = conn.RegisterOp(ctx, "chaos", "gcd", combine.ExampleGCD)
		return err
	}); err != nil {
		t.Fatalf("registering user op under chaos: %v", err)
	}

	type tally struct {
		success, typedErr, lost, mismatch int
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   tally
		firstWd error
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl)))
			var local tally
			// Odd-indexed clients speak the binary protocol, so the soak
			// exercises both codecs (and both chaos families) on one server.
			dial := func() (*Client, error) {
				if cl%2 == 1 {
					return DialMaxLineProto(ns.Addr(), DefaultMaxLineBytes, ProtoBin)
				}
				return Dial(ns.Addr())
			}
			conn, err := dial()
			if err != nil {
				mu.Lock()
				firstWd = fmt.Errorf("client %d: initial dial: %w", cl, err)
				mu.Unlock()
				return
			}
			defer func() { conn.Close() }()
			for i := 0; i < perClient; i++ {
				spec := specs[rng.Intn(len(specs))]
				data := randomData(rng, 1+rng.Intn(48))
				if spec.Op == OpMul {
					for j := range data {
						data[j] = 2*(data[j]&1) - 1
					}
				}
				// Every fifth request re-addresses the drawn kind/dir at the
				// registered gcd monoid instead of a builtin kernel, so the
				// VM path soaks under the same fault storm.
				userOp := i%5 == 2
				var want []int64
				if userOp {
					want = scanRef(data, 0, gcdRef, spec.Kind, spec.Dir)
				} else {
					want = directScan(spec, data)
				}
				// A third of forward requests go through a streaming
				// session in small chunks, so conn.drop keeps killing
				// connections with streams open mid-flight. A retry
				// opens a fresh session, so full-request retries stay
				// safe.
				streamed := !userOp && spec.Dir == Forward && i%3 == 0
				var got []int64
				_, err := policy.Do(context.Background(), func() error {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					var res []int64
					var err error
					if streamed {
						res, err = conn.StreamScan(ctx, spec.Op.String(), spec.Kind.String(), spec.Dir.String(),
							data, 1+rng.Intn(16))
					} else if userOp {
						res, err = conn.ScanPinned(ctx, "user:gcd", spec.Kind.String(), spec.Dir.String(), "chaos", 0, data)
					} else {
						res, err = conn.ScanCtx(ctx, spec.Op.String(), spec.Kind.String(), spec.Dir.String(), data)
					}
					if err == nil {
						got = res
						return nil
					}
					if isConnLevel(err) {
						// Unknown fate; redial before the retry.
						if fresh, derr := dial(); derr == nil {
							conn.Close()
							conn = fresh
						}
					}
					return err
				})
				switch {
				case err == nil:
					if !reflect.DeepEqual(got, want) {
						local.mismatch++
					} else {
						local.success++
					}
					if len(got) > 0 {
						arena.PutInt64s(got) // results are arena-backed, caller-owned
					}
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShed),
					errors.Is(err, ErrInternal), errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, ErrNoStream), errors.Is(err, ErrStreamFailed):
					local.typedErr++
				default:
					local.lost++
				}
			}
			mu.Lock()
			total.success += local.success
			total.typedErr += local.typedErr
			total.lost += local.lost
			total.mismatch += local.mismatch
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	if firstWd != nil {
		t.Fatal(firstWd)
	}

	if total.mismatch > 0 {
		t.Fatalf("chaos soak: %d corrupted/misrouted responses", total.mismatch)
	}
	if total.lost > 0 {
		t.Fatalf("chaos soak: %d requests lost (no terminal outcome in %d attempts)", total.lost, policy.MaxAttempts)
	}
	if got := total.success + total.typedErr; got != clients*perClient {
		t.Fatalf("outcome accounting: %d outcomes for %d requests", got, clients*perClient)
	}
	if total.success == 0 {
		t.Fatal("chaos soak: nothing succeeded — faults armed too hot to mean anything")
	}

	// Guarantee the acceptance condition "survives >= 1 kernel panic"
	// even on an unlucky probabilistic run: force one.
	faults.DisarmAll()
	if faults.Fires(fault.KernelPanic) == 0 {
		faults.Arm(fault.KernelPanic, 1)
		c, err := Dial(ns.Addr())
		if err != nil {
			t.Fatalf("dial for forced panic: %v", err)
		}
		if _, err := c.Scan("sum", "", "", []int64{1, 2}); !errors.Is(err, ErrInternal) {
			t.Fatalf("forced panic err = %v, want ErrInternal", err)
		}
		c.Close()
		faults.DisarmAll()
	}

	// The server must still serve cleanly after the storm.
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("post-storm dial: %v", err)
	}
	defer c.Close()
	got, err := c.Scan("sum", "inclusive", "", []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("post-storm scan: %v", err)
	}
	if want := []int64{1, 3, 6, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-storm scan = %v, want %v", got, want)
	}
	arena.PutInt64s(got)

	// Drain and check the server-side ledger: every accepted request
	// got exactly one terminal outcome.
	ns.Close()
	st := ns.Stats()
	if st.Panics < 1 {
		t.Fatalf("stats = %v, want >= 1 recovered panic", st)
	}
	if got := st.Served + st.DeadlineDrops + st.Shed + st.PanicFailed + st.CorruptDrops; got != st.Requests {
		t.Fatalf("server ledger broken: served+drops+shed+panicked+corrupt = %d, requests = %d (%v)", got, st.Requests, st)
	}
	// Zero leaked stream sessions: every connection is torn down by now
	// (ns.Close waits for the handlers), so every session opened during
	// the storm — including those whose connection was chaos-dropped
	// mid-stream — must have reached a terminal state and freed its
	// carry.
	if st.StreamsOpened == 0 {
		t.Fatal("chaos soak: no streams opened — streaming leg of the soak did not run")
	}
	if st.StreamsActive != 0 {
		t.Fatalf("chaos soak: %d stream sessions leaked after full teardown (%v)", st.StreamsActive, st)
	}
	if st.StreamsOpened != st.StreamsClosed+st.StreamsFailed+st.StreamsExpired {
		t.Fatalf("stream ledger does not close: opened %d != closed %d + failed %d + expired %d",
			st.StreamsOpened, st.StreamsClosed, st.StreamsFailed, st.StreamsExpired)
	}
	// Arena ledger closes: every buffer checked out during the storm —
	// decoded payloads, kernel outputs, response lines, stream chunks,
	// including those on shed/panic/drop/skew error paths — was returned.
	arenaAfter := arena.Stats()
	gets := arenaAfter.Gets - arenaBefore.Gets
	puts := arenaAfter.Puts - arenaBefore.Puts
	if gets != puts {
		t.Fatalf("arena ledger does not close: %d gets != %d puts (leaked %d buffers)", gets, puts, gets-puts)
	}
	t.Logf("chaos soak: %d success, %d typed errors; server %v; arena gets=puts=%d; %v",
		total.success, total.typedErr, st, gets, faults)
}

// isConnLevel reports whether err is a connection-level failure (fate
// unknown) rather than a typed response from the server.
func isConnLevel(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrOverloaded) &&
		!errors.Is(err, ErrShed) &&
		!errors.Is(err, ErrInternal) &&
		!errors.Is(err, ErrBadRequest) &&
		!errors.Is(err, ErrClosed) &&
		!errors.Is(err, ErrNoStream) &&
		!errors.Is(err, ErrStreamFailed) &&
		!errors.Is(err, context.DeadlineExceeded)
}
