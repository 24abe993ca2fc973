package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
)

// Closed-loop throughput gates on the in-process batch path. Each arm
// stands up a fresh Server with a 100µs batching window and a 1<<15
// queue, then 8 clients each send their share of n=4096 scans back to
// back. The timing bounds are skipped under -race; the outcome and
// dispatch-class assertions hold under it too.

// loadGateConfig is the server every closed-loop arm runs against.
var loadGateConfig = Config{MaxWait: 100 * time.Microsecond, QueueLimit: 1 << 15}

const (
	loadGateClients = 8
	loadGateN       = 4096
)

// loadResult tallies one closed-loop run: throughput and each
// request's terminal outcome.
type loadResult struct {
	rps     float64
	success int
	badOp   int
	failed  int   // any other terminal error
	firstEr error // the first of those, for the failure message
}

// closedLoop drives srv with loadGateClients goroutines, each sending
// perClient scans of loadGateN elements back to back. Requests round-robin across specs
// and run under the default tenant, each through a
// RetryPolicy{MaxAttempts: 4} with a 5 s per-request deadline. Results
// go back to the arena.
func closedLoop(srv *Server, specs []Spec, perClient int) loadResult {
	policy := RetryPolicy{MaxAttempts: 4}
	var (
		success, badOp, failed atomic.Int64
		firstEr                error
		erOnce                 sync.Once
		wg                     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < loadGateClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			data := make([]int64, loadGateN)
			for i := range data {
				data[i] = int64(rng.Intn(100))
			}
			for i := 0; i < perClient; i++ {
				spec := specs[i%len(specs)]
				_, err := policy.Do(context.Background(), func() error {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					res, err := srv.SubmitCtx(ctx, spec, data)
					if len(res) > 0 {
						arena.PutInt64s(res)
					}
					return err
				})
				switch {
				case err == nil:
					success.Add(1)
				case errors.Is(err, ErrBadOp), errors.Is(err, ErrOpBudget), errors.Is(err, ErrOpHash):
					badOp.Add(1)
				default:
					failed.Add(1)
					erOnce.Do(func() { firstEr = err })
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return loadResult{
		rps:     float64(loadGateClients*perClient) / elapsed.Seconds(),
		success: int(success.Load()),
		badOp:   int(badOp.Load()),
		failed:  int(failed.Load()),
		firstEr: firstEr,
	}
}

// runLoadArm runs one closed-loop arm on a fresh server built from cfg,
// with the named example monoids registered under the default tenant,
// and returns the tally and the server's stats after it drained.
func runLoadArm(t *testing.T, cfg Config, ops []string, perClient int, examples ...string) (loadResult, Stats) {
	t.Helper()
	srv := New(cfg)
	defer srv.Close()
	for _, name := range examples {
		if _, err := srv.RegisterScanOp("", name, combine.Examples[name]); err != nil {
			t.Fatalf("RegisterScanOp(%s): %v", name, err)
		}
	}
	specs := make([]Spec, len(ops))
	for i, op := range ops {
		spec, err := ParseSpec(op, "exclusive", "forward")
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", op, err)
		}
		specs[i] = spec
	}
	res := closedLoop(srv, specs, perClient)
	srv.Close() // the dispatch counters settle once the executors exit
	if want := loadGateClients * perClient; res.success != want {
		t.Errorf("%v: %d of %d requests succeeded (bad_op=%d failed=%d, first error: %v)",
			ops, res.success, want, res.badOp, res.failed, res.firstEr)
	}
	return res, srv.Stats()
}

// TestNativeVsVMThroughput gates the combine VM's tax: the same load
// once through the native sum kernel and once through its VM twin
// user:add. Vectorized dispatch detects the twin as structurally the
// builtin and promotes it onto the native segmented kernels, so the VM
// arm must reach at least half the native arm's req/s and an absolute
// 36k req/s floor, three times the scalar-dispatch baseline promotion
// replaced. Every request on both arms must succeed, none with bad_op.
func TestNativeVsVMThroughput(t *testing.T) {
	native, _ := runLoadArm(t, loadGateConfig, []string{"sum"}, 250)
	vm, st := runLoadArm(t, loadGateConfig, []string{"user:add"}, 250, "add")
	if native.badOp != 0 || vm.badOp != 0 {
		t.Errorf("bad_op: native %d, user:add %d; want 0", native.badOp, vm.badOp)
	}
	t.Logf("native sum: %.0f req/s   user:add: %.0f req/s (%.2fx of native)   vm_dispatch{promoted=%d vector=%d scalar=%d}",
		native.rps, vm.rps, vm.rps/native.rps, st.VMPromotedReqs, st.VMVectorReqs, st.VMScalarReqs)
	if raceEnabled {
		return
	}
	if vm.rps*2 < native.rps {
		t.Errorf("VM arm pays more than a 2x tax over native (%.0f vs %.0f req/s)", vm.rps, native.rps)
	}
	if vm.rps < 36000 {
		t.Errorf("VM arm below the 36k req/s floor (%.0f req/s)", vm.rps)
	}
}

// TestVectorDispatchThroughput gates the lane-blocked engine. satadd
// vectorizes (its saturation diamond lowers to selects) but is not
// promotable, so its default dispatch times the engine itself: every
// request must take the vector class, and the arm must beat the same
// op forced through the scalar interpreter by at least 1.3x. A mixed
// native+VM round-robin then has to finish with no request lost, with
// batching and with every request its own batch.
func TestVectorDispatchThroughput(t *testing.T) {
	vec, vst := runLoadArm(t, loadGateConfig, []string{"user:satadd"}, 250, "satadd")
	if vst.VMVectorReqs != 2000 || vst.VMPromotedReqs != 0 || vst.VMScalarReqs != 0 {
		t.Errorf("satadd requests did not all take the vector dispatch class: vm_dispatch{promoted=%d vector=%d scalar=%d}",
			vst.VMPromotedReqs, vst.VMVectorReqs, vst.VMScalarReqs)
	}
	scalarCfg := loadGateConfig
	scalarCfg.scalarVM = true
	scal, _ := runLoadArm(t, scalarCfg, []string{"user:satadd"}, 250, "satadd")
	t.Logf("satadd vector: %.0f req/s   forced scalar: %.0f req/s (%.2fx)", vec.rps, scal.rps, vec.rps/scal.rps)
	if !raceEnabled && vec.rps < 1.3*scal.rps {
		t.Errorf("lane-blocked engine under 1.3x the scalar interpreter (%.0f vs %.0f req/s)", vec.rps, scal.rps)
	}

	unfused := loadGateConfig
	unfused.MaxBatchRequests = 1
	for _, cfg := range []Config{loadGateConfig, unfused} {
		runLoadArm(t, cfg, []string{"sum", "user:add", "user:gcd"}, 150, "add", "gcd")
	}
}
