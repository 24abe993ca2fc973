package cluster

import (
	"math/rand"
	"testing"

	"scans/internal/serve"
)

func testWorkers(weights ...float64) []*worker {
	ws := make([]*worker, len(weights))
	for i, wt := range weights {
		w := &worker{addr: string(rune('a' + i))}
		w.setWeight(wt)
		w.healthy.Store(true)
		ws[i] = w
	}
	return ws
}

// baseShards plans with every worker at its base weight (floor 1
// disables the adaptive latency scaling), which is what the pure
// planner-geometry tests want.
func baseShards(n int, ws []*worker, rot, minShard int) []shard {
	return planShards(n, ws, effectiveWeights(ws, 1), rot, minShard)
}

// TestPlanShardsProperties fuzzes the planner's invariants: shards
// tile [0,n) exactly, in order, non-empty, never more than the healthy
// worker count, and never more than n/minShard (the min-shard floor).
func TestPlanShardsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(100_000)
		nw := 1 + rng.Intn(6)
		weights := make([]float64, nw)
		for i := range weights {
			weights[i] = []float64{1, 1, 1, 0.25, 4, 10}[rng.Intn(6)]
		}
		minShard := 1 + rng.Intn(8192)
		rot := rng.Intn(1000)
		shards := baseShards(n, testWorkers(weights...), rot, minShard)
		if len(shards) == 0 {
			t.Fatalf("n=%d: no shards", n)
		}
		if maxK := max(1, n/minShard); len(shards) > maxK || len(shards) > nw {
			t.Fatalf("n=%d minShard=%d workers=%d: %d shards exceeds floor", n, minShard, nw, len(shards))
		}
		prev := 0
		for i, sh := range shards {
			if sh.start != prev || sh.end <= sh.start || sh.w == nil {
				t.Fatalf("n=%d: shard %d = [%d,%d) does not tile from %d", n, i, sh.start, sh.end, prev)
			}
			prev = sh.end
		}
		if prev != n {
			t.Fatalf("n=%d: shards end at %d", prev, n)
		}
	}
}

// TestPlanShardsRotation: successive rotations move the single shard of
// a small scan across the fleet instead of always loading worker 0.
func TestPlanShardsRotation(t *testing.T) {
	ws := testWorkers(1, 1, 1)
	seen := map[string]bool{}
	for rot := 0; rot < 3; rot++ {
		shards := baseShards(10, ws, rot, 4096)
		if len(shards) != 1 {
			t.Fatalf("rot %d: %d shards for a tiny scan, want 1", rot, len(shards))
		}
		seen[shards[0].w.addr] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rotation used %d distinct workers out of 3", len(seen))
	}
}

// TestCutPiecesProperties: pieces tile their shards, respect the size
// cap, and contain no interior segment heads.
func TestCutPiecesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(5000)
		maxPiece := 1 + rng.Intn(600)
		var flags []bool
		if rng.Intn(3) > 0 {
			flags = make([]bool, n)
			for i := range flags {
				flags[i] = rng.Intn(50) == 0
			}
		}
		ws := testWorkers(1, 1)
		shards := baseShards(n, ws, trial, 100)
		pieces := cutPieces(shards, flags, maxPiece)
		prev := 0
		for _, pc := range pieces {
			if pc.off != prev || pc.end <= pc.off {
				t.Fatalf("piece [%d,%d) does not tile from %d", pc.off, pc.end, prev)
			}
			if pc.end-pc.off > maxPiece {
				t.Fatalf("piece [%d,%d) exceeds cap %d", pc.off, pc.end, maxPiece)
			}
			if flags != nil {
				if pc.headAt != flags[pc.off] {
					t.Fatalf("piece [%d,%d): headAt=%v, flags[off]=%v", pc.off, pc.end, pc.headAt, flags[pc.off])
				}
				for i := pc.off + 1; i < pc.end; i++ {
					if flags[i] {
						t.Fatalf("piece [%d,%d) contains interior head at %d", pc.off, pc.end, i)
					}
				}
			}
			prev = pc.end
		}
		if prev != n {
			t.Fatalf("pieces end at %d, want %d", prev, n)
		}
	}
}

// TestSeedChain pins the carry math against hand-computed cases for
// both directions, including a segment boundary landing mid-piece
// chain and a stream carry.
func TestSeedChain(t *testing.T) {
	w := testWorkers(1)[0]
	mk := func(bounds ...int) []piece {
		ps := make([]piece, len(bounds)-1)
		for i := range ps {
			ps[i] = piece{off: bounds[i], end: bounds[i+1], w: w}
		}
		return ps
	}
	sum := serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive, Dir: serve.Forward}
	data := []int64{1, 2, 3, 4, 5, 6}
	// Each piece's block sum, as scanSeeded reads it off the reply.
	folds := func(ps []piece) []int64 {
		f := make([]int64, len(ps))
		for k, pc := range ps {
			for _, v := range data[pc.off:pc.end] {
				f[k] += v
			}
		}
		return f
	}

	// Unsegmented forward: seeds are the prefix sums of the piece folds.
	ps := mk(0, 2, 4, 6)
	seedPieces(sum, nil, ps, folds(ps), 0, false)
	if ps[0].seeded || !ps[1].seeded || !ps[2].seeded {
		t.Fatalf("forward seeded flags: %+v", ps)
	}
	if ps[1].seed != 3 || ps[2].seed != 10 {
		t.Fatalf("forward seeds = %d,%d want 3,10", ps[1].seed, ps[2].seed)
	}

	// Stream carry prepends to everything.
	ps = mk(0, 2, 4, 6)
	seedPieces(sum, nil, ps, folds(ps), 100, true)
	if !ps[0].seeded || ps[0].seed != 100 || ps[1].seed != 103 || ps[2].seed != 110 {
		t.Fatalf("stream-carry seeds: %+v", ps)
	}

	// A head at 4 resets the forward chain; the piece starting there is
	// unseeded.
	flags := make([]bool, 6)
	flags[4] = true
	ps = mk(0, 2, 4, 6)
	for i := range ps {
		ps[i].headAt = flags[ps[i].off]
	}
	seedPieces(sum, flags, ps, folds(ps), 0, false)
	if ps[2].seeded {
		t.Fatalf("piece at segment head must be unseeded: %+v", ps[2])
	}

	// Backward: seeds are suffix folds; a head at 4 cuts piece 1's
	// carry (its segment ends at 3... i.e. flags[end]==true → unseeded)
	// and piece 2 still has no carry (end of vector).
	bsum := serve.Spec{Op: serve.OpSum, Kind: serve.Inclusive, Dir: serve.Backward}
	ps = mk(0, 2, 4, 6)
	seedPieces(bsum, nil, ps, folds(ps), 0, false)
	if !ps[0].seeded || ps[0].seed != 3+4+5+6 || !ps[1].seeded || ps[1].seed != 11 || ps[2].seeded {
		t.Fatalf("backward seeds: %+v", ps)
	}
	ps = mk(0, 2, 4, 6)
	for i := range ps {
		ps[i].headAt = flags[ps[i].off]
	}
	seedPieces(bsum, flags, ps, folds(ps), 0, false)
	if ps[0].seeded == false || ps[0].seed != 3+4 {
		t.Fatalf("backward segmented piece 0: %+v", ps[0])
	}
	if ps[1].seeded {
		t.Fatalf("backward piece ending at a head must be unseeded: %+v", ps[1])
	}
}
