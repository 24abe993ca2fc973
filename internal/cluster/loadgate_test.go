package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/serve"
)

// Closed-loop gates on a loopback fleet: 8 clients each send their
// share of scans back to back, each request through a
// serve.RetryPolicy{MaxAttempts: 4} under a per-request deadline, the
// way a deployed client would.

const gateClients = 8

// gateWorkerConfig is the batching server every gate's workers run.
var gateWorkerConfig = serve.Config{MaxWait: 100 * time.Microsecond, QueueLimit: 1 << 15}

// gateRetry is the coordinator's per-piece retry policy in every gate.
var gateRetry = serve.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}

// gateSpec is the scan every gate sends.
var gateSpec = serve.Spec{Op: serve.OpSum, Kind: serve.Exclusive, Dir: serve.Forward}

// loopResult tallies one closed-loop run.
type loopResult struct {
	success int
	failed  int
	firstEr error
}

// clusterLoop runs gateClients clients, each sending perClient scans of
// n elements through scan(ctx, client, data), every request under a
// RetryPolicy{MaxAttempts: 4} with the given per-request timeout.
// Results go back to the arena.
func clusterLoop(perClient, n int, timeout time.Duration, scan func(ctx context.Context, c int, data []int64) ([]int64, error)) loopResult {
	policy := serve.RetryPolicy{MaxAttempts: 4}
	var (
		success, failed atomic.Int64
		firstEr         error
		erOnce          sync.Once
		wg              sync.WaitGroup
	)
	for c := 0; c < gateClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			data := make([]int64, n)
			for i := range data {
				data[i] = int64(rng.Intn(100))
			}
			for i := 0; i < perClient; i++ {
				_, err := policy.Do(context.Background(), func() error {
					ctx, cancel := context.WithTimeout(context.Background(), timeout)
					defer cancel()
					res, err := scan(ctx, c, data)
					if len(res) > 0 {
						arena.PutInt64s(res)
					}
					return err
				})
				if err == nil {
					success.Add(1)
					continue
				}
				failed.Add(1)
				erOnce.Do(func() { firstEr = err })
			}
		}(c)
	}
	wg.Wait()
	return loopResult{success: int(success.Load()), failed: int(failed.Load()), firstEr: firstEr}
}

// tenantOf names client c's fairness tenant.
func tenantOf(c int) string { return fmt.Sprintf("client-%d", c) }

// TestWireAllocParity gates the binary protocol's reason to exist:
// zero-parse payloads. The same load — one worker, 8 clients × 375
// scans of 4096 elements through Coordinator.Scan — runs once over
// JSON and once over binwire; if bin ever allocates more per request
// than JSON, in objects or in bytes, its decode path has grown a copy.
// The counts are process-wide runtime.MemStats deltas from before the
// fleet starts to after it is torn down.
func TestWireAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race (sync.Pool drops Puts)")
	}
	const requests = gateClients * 375
	measure := func(proto string) (allocs, bytes float64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns, err := serve.ListenNet("127.0.0.1:0", gateWorkerConfig, serve.NetConfig{})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		coord, err := New(Config{Workers: []string{ns.Addr()}, Proto: proto, Retry: gateRetry})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		res := clusterLoop(requests/gateClients, 4096, 5*time.Second, func(ctx context.Context, c int, data []int64) ([]int64, error) {
			return coord.Scan(ctx, gateSpec, data, tenantOf(c))
		})
		coord.Close()
		ns.Close()
		runtime.ReadMemStats(&m1)
		if res.success != requests {
			t.Fatalf("%s: %d of %d requests succeeded (first error: %v)", proto, res.success, requests, res.firstEr)
		}
		return float64(m1.Mallocs-m0.Mallocs) / requests, float64(m1.TotalAlloc-m0.TotalAlloc) / requests
	}
	ja, jb := measure(serve.ProtoJSON)
	ba, bb := measure(serve.ProtoBin)
	t.Logf("json: %.2f allocs/req, %.0f B/req   bin: %.2f allocs/req, %.0f B/req   margin: %.2f allocs/req, %.0f B/req",
		ja, jb, ba, bb, ja-ba, jb-bb)
	if ba > ja {
		t.Errorf("bin allocates more per request than JSON (%.2f > %.2f)", ba, ja)
	}
	if bb > jb {
		t.Errorf("bin allocates more bytes per request than JSON (%.0f > %.0f)", bb, jb)
	}
}

// TestFailoverGapUnderStreamedLoad kills the primary coordinator's
// front end 200ms into a streamed load and measures the client-visible
// outage: the gap from the kill to the first request a standby served.
// Two workers sit behind a primary that replicates its stream sessions
// and a standby that follows it; 8 FailoverClients over binwire each
// stream 50 scans of 100000 elements in 8192-element chunks. Every
// request must succeed, and the standby must have served one after the
// kill. TestCoordinatorFailoverSoak covers the failover protocol's
// correctness; this test covers the gap under a steady streamed load.
func TestFailoverGapUnderStreamedLoad(t *testing.T) {
	const requests = 400
	addrs := startWorkers(t, 2, gateWorkerConfig)
	primary, err := New(Config{Workers: addrs, Proto: serve.ProtoBin, Retry: gateRetry, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	primNS, err := serve.ListenBackend("127.0.0.1:0", primary, serve.NetConfig{})
	if err != nil {
		t.Fatalf("primary front end: %v", err)
	}
	t.Cleanup(primNS.Close)
	standby := newCoord(t, Config{Workers: addrs, Proto: serve.ProtoBin, Retry: gateRetry, Follow: primary.ReplAddr()})
	stbyNS, err := serve.ListenBackend("127.0.0.1:0", standby, serve.NetConfig{})
	if err != nil {
		t.Fatalf("standby front end: %v", err)
	}
	t.Cleanup(stbyNS.Close)

	fcs := make([]*serve.FailoverClient, gateClients)
	for c := range fcs {
		fc, err := serve.DialFailover(serve.ProtoBin, 0, primNS.Addr(), stbyNS.Addr())
		if err != nil {
			t.Fatalf("DialFailover: %v", err)
		}
		t.Cleanup(fc.Close)
		fcs[c] = fc
	}

	// Kill, not Close: the listener and every live connection die with
	// no drain. The primary's backend and replication feed die after.
	var killedAt time.Time
	primaryDown := make(chan struct{})
	killer := time.AfterFunc(200*time.Millisecond, func() {
		killedAt = time.Now()
		primNS.Kill()
		go func() {
			primary.Close()
			close(primaryDown)
		}()
	})
	res := clusterLoop(requests/gateClients, 100000, 30*time.Second, func(ctx context.Context, c int, data []int64) ([]int64, error) {
		return fcs[c].StreamScan(ctx, "sum", "exclusive", "forward", data, 8192)
	})
	if !killer.Stop() {
		<-primaryDown
	} else {
		primNS.Kill()
		primary.Close()
		t.Fatal("the load finished before the 200ms kill fired")
	}

	if res.success != requests || res.failed != 0 {
		t.Fatalf("%d of %d requests succeeded, %d lost (first error: %v)", res.success, requests, res.failed, res.firstEr)
	}
	var first time.Time
	var resumed, failedOver uint64
	for _, fc := range fcs {
		if at := fc.FirstFailoverAt(); !at.IsZero() && (first.IsZero() || at.Before(first)) {
			first = at
		}
		resumed += fc.Resumed()
		failedOver += fc.FailedOver()
	}
	if !first.After(killedAt) {
		t.Fatalf("no request was served by the standby after the kill (first standby-served: %v, kill: %v)", first, killedAt)
	}
	t.Logf("failover gap: %.1fms (primary killed → first standby-served request); resumed=%d failed_over=%d",
		float64(first.Sub(killedAt))/float64(time.Millisecond), resumed, failedOver)
}

// TestClusterClosedLoopNoCarryPrescan gates the data plane's O(#pieces)
// carry work before dispatch: under concurrent load every block sum is
// read off a piece's reply, so the coordinator must fold no element
// ahead of the scan (CarryPrescanElems == 0). n=16384 across 2 workers
// seeds real carries: the default MinShardElems is 4096, so every scan
// spans both workers.
func TestClusterClosedLoopNoCarryPrescan(t *testing.T) {
	const requests = 400
	addrs := startWorkers(t, 2, gateWorkerConfig)
	coord := newCoord(t, Config{Workers: addrs, Proto: serve.ProtoBin, Retry: gateRetry})
	res := clusterLoop(requests/gateClients, 16384, 5*time.Second, func(ctx context.Context, c int, data []int64) ([]int64, error) {
		return coord.Scan(ctx, gateSpec, data, tenantOf(c))
	})
	if res.success != requests {
		t.Fatalf("%d of %d requests succeeded (first error: %v)", res.success, requests, res.firstEr)
	}
	st := coord.Stats()
	if st.CarryPrescanElems != 0 || st.Pieces < 2*requests {
		t.Fatalf("coordinator folded ahead of dispatch or never split: carry_prescan=%d pieces=%d (%v)",
			st.CarryPrescanElems, st.Pieces, st)
	}
}
