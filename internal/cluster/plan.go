package cluster

import (
	"math"

	"scans/internal/combine"
	"scans/internal/serve"
)

// Planning: a scan of n elements becomes SHARDS (one contiguous range
// per selected worker, sized by weight) and each shard becomes PIECES
// (the wire requests actually sent). Pieces are cut at two kinds of
// boundary: MaxPieceElems (so a piece's worst-case response fits the
// line budget) and interior segment heads (so every piece lies within
// one segment, scans unsegmented on its worker, and takes one carry or
// none). All of a shard's pieces go to the shard's worker, whose own
// batcher fuses them back into one segmented kernel pass — the cut
// costs wire messages, not kernel passes.

// shard is one worker's contiguous slice of the vector.
type shard struct {
	start, end int
	w          *worker
}

// piece is one wire request: a sub-range of a shard with its carry
// seed, combined into the piece's reply when seeded. headAt records
// whether the piece's first element starts a segment (such pieces are
// never seeded — the scan restarts there).
type piece struct {
	off, end int
	w        *worker
	headAt   bool
	seeded   bool
	seed     int64
}

// effectiveWeights maps each worker's base weight through the adaptive
// latency model: a worker whose per-element EWMA is k× the fleet's best
// plans at 1/k of its base weight, clamped below at floor × base. The
// floor keeps every worker in the plan — a starved worker would never
// run another piece, so its EWMA could never observe a recovery; the
// floor-sized trickle is the measurement budget. Workers with no data
// yet plan at full base weight (new joiners earn their discount only by
// being observed slow).
func effectiveWeights(ws []*worker, floor float64) []float64 {
	if floor <= 0 || floor > 1 {
		floor = 1 // no adaptive scaling without a sane floor
	}
	minLat := 0.0
	for _, w := range ws {
		if l := w.latencyNs(); l > 0 && (minLat == 0 || l < minLat) {
			minLat = l
		}
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		f := 1.0
		if l := w.latencyNs(); l > 0 && minLat > 0 && l > minLat {
			f = minLat / l
			if f < floor {
				f = floor
			}
		}
		out[i] = w.weight() * f
	}
	return out
}

// planShards splits [0,n) across the given workers proportionally to
// effW (effW[i] is ws[i]'s effective weight — see effectiveWeights).
// The worker count is capped at n/minShard so small scans stay on few
// machines (a shard below the floor costs more in round trips than it
// saves in kernel time), and the selection rotates by rot so successive
// small scans spread across the fleet instead of always loading
// worker 0.
func planShards(n int, ws []*worker, effW []float64, rot, minShard int) []shard {
	k := n / minShard
	if k < 1 {
		k = 1
	}
	if k > len(ws) {
		k = len(ws)
	}
	sel := make([]*worker, k)
	selW := make([]float64, k)
	var total float64
	for i := range sel {
		j := (rot + i) % len(ws)
		sel[i] = ws[j]
		selW[i] = effW[j]
		if selW[i] <= 0 {
			selW[i] = 1
		}
		total += selW[i]
	}
	shards := make([]shard, 0, k)
	prev, cum := 0, 0.0
	for i, w := range sel {
		cum += selW[i]
		end := n
		if i < k-1 {
			end = int(math.Round(float64(n) * cum / total))
			if end < prev {
				end = prev
			}
			if end > n {
				end = n
			}
		}
		if end > prev {
			shards = append(shards, shard{start: prev, end: end, w: w})
		}
		prev = end
	}
	return shards
}

// cutPieces cuts every shard at MaxPieceElems and at interior segment
// heads. Each returned piece is non-empty, contains no segment head
// except possibly at its own first position, and inherits its shard's
// worker. Total cost O(n) — every element is examined once.
func cutPieces(shards []shard, flags []bool, maxPiece int) []piece {
	var pieces []piece
	for _, sh := range shards {
		for j := sh.start; j < sh.end; {
			e := j + maxPiece
			if e > sh.end {
				e = sh.end
			}
			if flags != nil {
				for t := j + 1; t < e; t++ {
					if flags[t] {
						e = t
						break
					}
				}
			}
			pieces = append(pieces, piece{off: j, end: e, w: sh.w, headAt: flags != nil && flags[j]})
			j = e
		}
	}
	return pieces
}

// seedPieces computes every piece's carry from the pieces' block sums
// (folds[k] is piece k's fold in scan order): the paper's "scan of the
// block sums", O(#pieces) at the coordinator. It chains the folds —
// forward left-to-right, backward right-to-left — resetting at segment
// heads, which is the ONLY place segment structure enters the cluster
// math.
//
// A piece is seeded unless the scan (re)starts at its first position:
// forward, that is a segment head or the true start of an unseeded
// request; backward, the mirror — the vector's end or a segment
// boundary immediately after the piece. A user op's VM fault —
// realistically only op_budget — aborts the chain with the typed error,
// since a missing carry poisons every piece after it.
func seedPieces(spec serve.Spec, flags []bool, pieces []piece, folds []int64, carry int64, seeded bool) error {
	n := pieces[len(pieces)-1].end
	var fr combine.Frame
	if spec.Dir == serve.Forward {
		accv := serve.IdentitySpec(spec)
		if seeded {
			accv = carry
		}
		for k := range pieces {
			pc := &pieces[k]
			if pc.headAt {
				// The scan restarts here: no seed, and the running
				// prefix after this piece is the piece's own fold.
				accv = folds[k]
				continue
			}
			pc.seeded = pc.off > 0 || seeded
			pc.seed = accv
			var err error
			accv, err = serve.CombineSpec(spec, &fr, accv, folds[k])
			if err != nil {
				return err
			}
		}
	} else {
		// Backward mirror: the carry is the fold of everything to the
		// RIGHT up to the next segment head, built right-to-left. When a
		// piece starts a segment, positions left of it get a fresh carry
		// (the backward kernels reset AFTER the flagged element).
		accv := serve.IdentitySpec(spec)
		for k := len(pieces) - 1; k >= 0; k-- {
			pc := &pieces[k]
			pc.seeded = pc.end < n && (flags == nil || !flags[pc.end])
			pc.seed = accv
			if pc.headAt {
				accv = serve.IdentitySpec(spec)
			} else {
				var err error
				accv, err = serve.CombineSpec(spec, &fr, folds[k], accv)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
