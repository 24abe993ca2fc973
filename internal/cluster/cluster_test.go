package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scans/internal/fault"
	"scans/internal/scan"
	"scans/internal/serve"
)

// faultSetWithSlowKernel arms kernel.slow at probability 1 with delay d
// — a worker whose every batch takes at least d.
func faultSetWithSlowKernel(t *testing.T, d time.Duration) *fault.Set {
	t.Helper()
	fs := fault.New(1)
	fs.ArmSleep(fault.KernelSlow, 1, d)
	return fs
}

// startWorkers spins up n in-process scansd workers on loopback ports
// and returns their addresses. Each worker is a full NetServer — real
// TCP, real batching — so coordinator tests exercise the same hops a
// deployed cluster does.
func startWorkers(t *testing.T, n int, cfg serve.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ns, err := serve.ListenNet("127.0.0.1:0", cfg, serve.NetConfig{})
		if err != nil {
			t.Fatalf("worker %d: ListenNet: %v", i, err)
		}
		t.Cleanup(ns.Close)
		addrs[i] = ns.Addr()
	}
	return addrs
}

// newCoord builds a Coordinator over the addresses and tears it down
// with the test.
func newCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// directSeg computes the reference segmented scan with the serial
// kernels — what the sharded result must match bit for bit.
func directSeg(spec serve.Spec, data []int64, flags []bool) []int64 {
	return directSegFunc(scan.Func[int64]{
		Id: serve.Identity(spec.Op),
		F:  func(a, b int64) int64 { return serve.Combine(spec.Op, a, b) },
	}, spec, data, flags)
}

// directSegFunc is directSeg for any serial combine o: the reference
// for user ops, whose combine is a VM program.
func directSegFunc(o scan.Func[int64], spec serve.Spec, data []int64, flags []bool) []int64 {
	dst := make([]int64, len(data))
	if flags == nil {
		flags = make([]bool, len(data))
	}
	switch {
	case spec.Dir == serve.Forward && spec.Kind == serve.Exclusive:
		scan.SegExclusive(o, dst, data, flags)
	case spec.Dir == serve.Forward && spec.Kind == serve.Inclusive:
		scan.SegInclusive(o, dst, data, flags)
	case spec.Dir == serve.Backward && spec.Kind == serve.Exclusive:
		scan.SegExclusiveBackward(o, dst, data, flags)
	default:
		scan.SegInclusiveBackward(o, dst, data, flags)
	}
	return dst
}

// clusterSpecs enumerates every (op, kind, dir) combination.
func clusterSpecs() []serve.Spec {
	ops := []serve.Op{serve.OpSum, serve.OpMax, serve.OpMin, serve.OpMul}
	kinds := []serve.Kind{serve.Exclusive, serve.Inclusive}
	dirs := []serve.Dir{serve.Forward, serve.Backward}
	var out []serve.Spec
	for _, op := range ops {
		for _, k := range kinds {
			for _, d := range dirs {
				out = append(out, serve.Spec{Op: op, Kind: k, Dir: d})
			}
		}
	}
	return out
}

// randVec builds a small-valued vector (mul stays in ±1 so products
// never leave int64 in interesting ways; other ops get [-20,20]).
func randVec(rng *rand.Rand, op serve.Op, n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		if op == serve.OpMul {
			d[i] = 2*int64(rng.Intn(2)) - 1
		} else {
			d[i] = int64(rng.Intn(41) - 20)
		}
	}
	return d
}

// randFlags builds a random segment layout; density 0 returns nil
// (unsegmented).
func randFlags(rng *rand.Rand, n int, density float64) []bool {
	if density <= 0 {
		return nil
	}
	f := make([]bool, n)
	for i := range f {
		f[i] = rng.Float64() < density
	}
	return f
}

// TestClusterMatchesSingleNode is the core contract: every spec, many
// sizes and segment layouts, through 3 real workers with shard and
// piece boundaries forced to land mid-vector — bit-identical to the
// serial reference.
func TestClusterMatchesSingleNode(t *testing.T) {
	addrs := startWorkers(t, 3, serve.Config{MaxWait: 50 * time.Microsecond})
	c := newCoord(t, Config{Workers: addrs, MinShardElems: 64, MaxPieceElems: 96})
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, spec := range clusterSpecs() {
		for _, n := range []int{0, 1, 2, 63, 64, 191, 777, 2048} {
			for _, density := range []float64{0, 0.02, 0.3} {
				data := randVec(rng, spec.Op, n)
				flags := randFlags(rng, n, density)
				want := directSeg(spec, data, flags)
				got, err := c.ScanSegmented(ctx, spec, data, flags, "test")
				if err != nil {
					t.Fatalf("%v n=%d density=%g: %v", spec, n, density, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v n=%d density=%g: sharded result diverges from single-node\n got %v\nwant %v",
						spec, n, density, got, want)
				}
			}
		}
	}
	st := c.Stats()
	if st.Shards == 0 || st.Pieces <= st.Shards {
		t.Fatalf("plan never split: %v", st)
	}
	if st.Requests != st.Served {
		t.Fatalf("healthy-fleet soak had failures: %v", st)
	}
}

// TestClusterWeights checks the proportional split: a worker with
// triple weight gets roughly triple the elements.
func TestClusterWeights(t *testing.T) {
	ws := testWorkers(3, 1)
	shards := baseShards(4000, ws, 0, 100)
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	if got := shards[0].end - shards[0].start; got != 3000 {
		t.Fatalf("weighted shard got %d elements, want 3000", got)
	}
}

// TestClusterFrontEnd drives the coordinator through serve's TCP front
// end: int64 one-shots, float64 one-shots, and a streaming session all
// arrive over the wire, shard across workers, and come back exact.
func TestClusterFrontEnd(t *testing.T) {
	addrs := startWorkers(t, 3, serve.Config{MaxWait: 50 * time.Microsecond})
	coord, err := New(Config{Workers: addrs, MinShardElems: 32, MaxPieceElems: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ns, err := serve.ListenBackend("127.0.0.1:0", coord, serve.NetConfig{})
	if err != nil {
		t.Fatalf("ListenBackend: %v", err)
	}
	t.Cleanup(ns.Close) // closes coord too
	cli, err := serve.Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	data := randVec(rng, serve.OpSum, 500)
	got, err := cli.ScanCtx(ctx, "sum", "inclusive", "forward", data)
	if err != nil {
		t.Fatalf("wire scan: %v", err)
	}
	want := directSeg(serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive}, data, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire scan diverges:\n got %v\nwant %v", got, want)
	}

	// Float64 max rides the order-preserving key mapping through the
	// SAME sharded int64 path.
	fdata := []float64{3.5, -1.25, randFinite(rng), 2.75, -0.5, 100.125, 7}
	fgot, err := cli.ScanFloats(ctx, "max", "inclusive", "forward", fdata)
	if err != nil {
		t.Fatalf("wire float scan: %v", err)
	}
	facc := fdata[0]
	for i, f := range fdata {
		if f > facc {
			facc = f
		}
		if fgot[i] != facc {
			t.Fatalf("float max[%d] = %v, want %v", i, fgot[i], facc)
		}
	}

	// Streaming: chunked push through the coordinator's wire session,
	// reassembled bit-identical to a one-shot.
	big := randVec(rng, serve.OpSum, 3000)
	sgot, err := cli.StreamScan(ctx, "sum", "exclusive", "forward", big, 257)
	if err != nil {
		t.Fatalf("wire stream scan: %v", err)
	}
	swant := directSeg(serve.Spec{Op: serve.OpSum, Kind: serve.Exclusive}, big, nil)
	if !reflect.DeepEqual(sgot, swant) {
		t.Fatalf("wire stream scan diverges")
	}
	// Over the binary codec the one stream-open frame is acked with the
	// flow-control window and, the coordinator's sessions being
	// resumable, a resume token.
	bcli, err := serve.DialBin(ns.Addr())
	if err != nil {
		t.Fatalf("DialBin: %v", err)
	}
	defer bcli.Close()
	bst, err := bcli.OpenStream(ctx, "sum", "inclusive", "forward")
	if err != nil {
		t.Fatalf("binary OpenStream: %v", err)
	}
	if bst.Window() != serve.StreamWindow || bst.ResumeToken() == "" {
		t.Fatalf("binary open ack: window %d token %q, want %d and a token", bst.Window(), bst.ResumeToken(), serve.StreamWindow)
	}
	if _, err := bst.Close(ctx); err != nil {
		t.Fatalf("binary stream Close: %v", err)
	}
	cst := coord.Stats()
	if cst.StreamsOpened == 0 || cst.StreamsActive != 0 {
		t.Fatalf("coordinator stream ledger: %v", cst)
	}
}

// randFinite returns a finite random float (keeps the test vector
// obviously NaN-free).
func randFinite(rng *rand.Rand) float64 { return rng.Float64()*40 - 20 }

// TestClusterShardFailedTyped: with the whole fleet down, a scan fails
// with the typed ErrShardFailed — and over the wire the shard_failed
// code maps back to the same sentinel.
func TestClusterShardFailedTyped(t *testing.T) {
	w, err := serve.ListenNet("127.0.0.1:0", serve.Config{}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	addr := w.Addr()
	w.Close() // fleet is dead before the first scan

	coord, err := New(Config{
		Workers:       []string{addr},
		Retry:         serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		EjectAfter:    2,
		ProbeInterval: time.Hour, // no readmission during this test
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ns, err := serve.ListenBackend("127.0.0.1:0", coord, serve.NetConfig{})
	if err != nil {
		t.Fatalf("ListenBackend: %v", err)
	}
	t.Cleanup(ns.Close)

	if _, err := coord.Scan(context.Background(), serve.Spec{Op: serve.OpSum}, []int64{1, 2, 3}, ""); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("dead-fleet scan err = %v, want ErrShardFailed", err)
	}
	// By now the worker is ejected; planning falls back to the full
	// fleet, the attempts still fail, and the sentinel is the same.
	if _, err := coord.Scan(context.Background(), serve.Spec{Op: serve.OpSum}, []int64{1}, ""); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("ejected-fleet scan err = %v, want ErrShardFailed", err)
	}

	cli, err := serve.Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	if _, err := cli.Scan("sum", "", "", []int64{1, 2}); !errors.Is(err, serve.ErrShardFailed) {
		t.Fatalf("wire err = %v, want shard_failed → ErrShardFailed", err)
	}
	st := coord.Stats()
	if st.ShardFailed < 3 || st.Ejections != 1 {
		t.Fatalf("stats = %v, want >=3 shard_failed and 1 ejection", st)
	}
	if st.Requests != st.Served+st.ShardFailed+st.Deadline {
		t.Fatalf("ledger broken: %v", st)
	}
}

// TestClusterEjectReadmit kills a worker, watches it get ejected, then
// restarts it on the same address and waits for the prober to readmit
// it and scans to succeed again.
func TestClusterEjectReadmit(t *testing.T) {
	w, err := serve.ListenNet("127.0.0.1:0", serve.Config{}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	addr := w.Addr()
	coord := newCoord(t, Config{
		Workers:       []string{addr},
		Retry:         serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		EjectAfter:    2,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	ctx := context.Background()
	if _, err := coord.Scan(ctx, serve.Spec{Op: serve.OpSum}, []int64{1, 2}, ""); err != nil {
		t.Fatalf("healthy scan: %v", err)
	}
	w.Close()
	if _, err := coord.Scan(ctx, serve.Spec{Op: serve.OpSum}, []int64{1, 2}, ""); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("dead-worker scan err = %v, want ErrShardFailed", err)
	}
	if st := coord.Stats(); st.Ejections != 1 {
		t.Fatalf("stats after death = %v, want 1 ejection", st)
	}

	// Same address, fresh worker: the prober should readmit it.
	w2, err := serve.ListenNet(addr, serve.Config{}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("restart worker: %v", err)
	}
	t.Cleanup(w2.Close)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Readmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never readmitted: %v", coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := coord.Scan(ctx, serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive}, []int64{1, 2, 3}, "")
	if err != nil {
		t.Fatalf("post-readmission scan: %v", err)
	}
	if want := []int64{1, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-readmission scan = %v, want %v", got, want)
	}
}

// TestClusterHedging: one worker's kernels are pathologically slow, the
// other is fast; with hedging on, scans planned onto the slow worker
// get rescued by their hedge on the fast one.
func TestClusterHedging(t *testing.T) {
	slowFaults := faultSetWithSlowKernel(t, 80*time.Millisecond)
	slow, err := serve.ListenNet("127.0.0.1:0", serve.Config{Faults: slowFaults, MaxWait: 50 * time.Microsecond}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("slow worker: %v", err)
	}
	t.Cleanup(slow.Close)
	fast, err := serve.ListenNet("127.0.0.1:0", serve.Config{MaxWait: 50 * time.Microsecond}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	t.Cleanup(fast.Close)

	coord := newCoord(t, Config{
		Workers:       []string{slow.Addr(), fast.Addr()},
		MinShardElems: 1 << 20, // one shard: every scan lands on one worker
		HedgeAfter:    5 * time.Millisecond,
	})
	ctx := context.Background()
	data := []int64{1, 2, 3, 4, 5}
	want := directSeg(serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive}, data, nil)
	start := time.Now()
	// The rotation alternates the primary worker, so two scans guarantee
	// at least one slow-primary dispatch.
	for i := 0; i < 4; i++ {
		got, err := coord.Scan(ctx, serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive}, data, "")
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %d = %v, want %v", i, got, want)
		}
	}
	st := coord.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedging never fired/won: %v (elapsed %v)", st, time.Since(start))
	}
}

// TestJitteredProbeZeroInterval is a regression test: jitteredProbe
// feeds ProbeInterval to rand.Int63n, which panics on non-positive
// arguments. Config.withDefaults clamps the interval on the New path,
// but a registry built directly (as embedders and tests do) used to
// crash its liveness loop the moment a worker was ejected. The clamp
// must make a zero or negative interval mean "probe immediately", not
// "panic".
func TestJitteredProbeZeroInterval(t *testing.T) {
	var stats coordStats
	for _, probe := range []time.Duration{0, -time.Second, time.Nanosecond, time.Second} {
		r := newRegistry(Config{Workers: []string{"127.0.0.1:1"}, ProbeInterval: probe}, &stats)
		for i := 0; i < 100; i++ {
			if d := r.jitteredProbe(); d < 0 {
				t.Fatalf("ProbeInterval=%v: negative probe gap %d", probe, d)
			}
		}
		r.close()
	}
}

// TestNewDataPlane: "" and "star" name the one data plane; any other
// value, the retired "exchange" included, is refused at construction.
func TestNewDataPlane(t *testing.T) {
	for _, plane := range []string{"", DataPlaneStar} {
		c, err := New(Config{Workers: []string{"127.0.0.1:1"}, DataPlane: plane})
		if err != nil {
			t.Fatalf("DataPlane %q: %v", plane, err)
		}
		c.Close()
	}
	if _, err := New(Config{Workers: []string{"127.0.0.1:1"}, DataPlane: "exchange"}); err == nil {
		t.Fatal(`DataPlane "exchange" accepted`)
	}
}
