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

// loadResult tallies closed-loop runs: requests sent, time taken and
// each request's terminal outcome.
type loadResult struct {
	sent    int
	elapsed time.Duration
	success int
	badOp   int
	failed  int   // any other terminal error
	firstEr error // the first of those, for the failure message
}

func (r loadResult) rps() float64 { return float64(r.sent) / r.elapsed.Seconds() }

// add folds another run's tally into r.
func (r *loadResult) add(o loadResult) {
	r.sent += o.sent
	r.elapsed += o.elapsed
	r.success += o.success
	r.badOp += o.badOp
	r.failed += o.failed
	if r.firstEr == nil {
		r.firstEr = o.firstEr
	}
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
	return loadResult{
		sent:    loadGateClients * perClient,
		elapsed: time.Since(start),
		success: int(success.Load()),
		badOp:   int(badOp.Load()),
		failed:  int(failed.Load()),
		firstEr: firstEr,
	}
}

// loadArm is one closed-loop arm: a fresh server built from cfg, with
// the named example monoids registered under the default tenant, and
// the specs its requests round-robin across.
type loadArm struct {
	srv   *Server
	ops   []string
	specs []Spec
}

func newLoadArm(t *testing.T, cfg Config, ops []string, examples ...string) *loadArm {
	t.Helper()
	a := &loadArm{srv: New(cfg), ops: ops}
	t.Cleanup(a.srv.Close)
	for _, name := range examples {
		if _, err := a.srv.RegisterScanOp("", name, combine.Examples[name]); err != nil {
			t.Fatalf("RegisterScanOp(%s): %v", name, err)
		}
	}
	for _, op := range ops {
		spec, err := ParseSpec(op, "exclusive", "forward")
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", op, err)
		}
		a.specs = append(a.specs, spec)
	}
	return a
}

// run drives the arm's server with perClient scans per client.
func (a *loadArm) run(perClient int) loadResult { return closedLoop(a.srv, a.specs, perClient) }

// finish closes the arm's server, checks that every request res
// tallies succeeded, and returns the server's stats after it drained.
func (a *loadArm) finish(t *testing.T, res loadResult) Stats {
	t.Helper()
	a.srv.Close() // the dispatch counters settle once the executors exit
	if res.success != res.sent {
		t.Errorf("%v: %d of %d requests succeeded (bad_op=%d failed=%d, first error: %v)",
			a.ops, res.success, res.sent, res.badOp, res.failed, res.firstEr)
	}
	return a.srv.Stats()
}

// runLoadArm runs one closed-loop arm start to finish and returns the
// tally and the server's stats after it drained.
func runLoadArm(t *testing.T, cfg Config, ops []string, perClient int, examples ...string) (loadResult, Stats) {
	t.Helper()
	a := newLoadArm(t, cfg, ops, examples...)
	res := a.run(perClient)
	return res, a.finish(t, res)
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
		native.rps(), vm.rps(), vm.rps()/native.rps(), st.VMPromotedReqs, st.VMVectorReqs, st.VMScalarReqs)
	if raceEnabled {
		return
	}
	if vm.rps()*2 < native.rps() {
		t.Errorf("VM arm pays more than a 2x tax over native (%.0f vs %.0f req/s)", vm.rps(), native.rps())
	}
	if vm.rps() < 36000 {
		t.Errorf("VM arm below the 36k req/s floor (%.0f req/s)", vm.rps())
	}
}

// TestVectorDispatchThroughput gates the lane-blocked engine. satadd
// vectorizes (its saturation diamond lowers to selects) but is not
// promotable, so its default dispatch times the engine itself: every
// request must take the vector class, and the arm must beat the same
// op forced through the scalar interpreter by at least 1.3x. The two
// arms' 2000 requests each run in five alternating slices with both
// servers up, so load from elsewhere on the host lands on both alike. A
// mixed native+VM round-robin then has to finish with no request lost,
// with batching and with every request its own batch.
func TestVectorDispatchThroughput(t *testing.T) {
	scalarCfg := loadGateConfig
	scalarCfg.scalarVM = true
	vecArm := newLoadArm(t, loadGateConfig, []string{"user:satadd"}, "satadd")
	scalArm := newLoadArm(t, scalarCfg, []string{"user:satadd"}, "satadd")
	var vec, scal loadResult
	for i := 0; i < 5; i++ {
		vec.add(vecArm.run(50))
		scal.add(scalArm.run(50))
	}
	vst := vecArm.finish(t, vec)
	scalArm.finish(t, scal)
	if vst.VMVectorReqs != 2000 || vst.VMPromotedReqs != 0 || vst.VMScalarReqs != 0 {
		t.Errorf("satadd requests did not all take the vector dispatch class: vm_dispatch{promoted=%d vector=%d scalar=%d}",
			vst.VMPromotedReqs, vst.VMVectorReqs, vst.VMScalarReqs)
	}
	t.Logf("satadd vector: %.0f req/s   forced scalar: %.0f req/s (%.2fx)", vec.rps(), scal.rps(), vec.rps()/scal.rps())
	if !raceEnabled && vec.rps() < 1.3*scal.rps() {
		t.Errorf("lane-blocked engine under 1.3x the scalar interpreter (%.0f vs %.0f req/s)", vec.rps(), scal.rps())
	}

	unfused := loadGateConfig
	unfused.MaxBatchRequests = 1
	for _, cfg := range []Config{loadGateConfig, unfused} {
		runLoadArm(t, cfg, []string{"sum", "user:add", "user:gcd"}, 150, "add", "gcd")
	}
}
