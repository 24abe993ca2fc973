package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"scans/internal/serve"
)

// workload is one traffic mix: how its inputs are generated, the
// system it runs against, and its load shape.
type workload struct {
	name, why string
	gen       func(rng *rand.Rand) ([]*template, error)
	start     func() (system, error)
	fullEvery uint64  // one answer in fullEvery is compared element by element
	streams   bool    // streamable requests may go through OpenScanStream
	window    int     // closed-loop requests in flight
	rate      float64 // open-loop offered rate for the latency phase, req/s
	limit     float64 // p99 latency limit for max_rate_rps, ms
	ladderLo  float64 // lowest rung of the max-rate ladder, req/s
	warmup    int     // requests sent while setting up
	sample    int     // requests the traced run sends down the layer ladder
}

var (
	builtinOps = []string{"sum", "max", "min", "mul"}
	kinds      = []string{"exclusive", "inclusive"}
	dirs       = []string{"forward", "backward"}
)

// workloads are the ones BENCHMARK.json lists.
var workloads = []*workload{
	{
		name:      "edge-small",
		why:       "16-1024 element scans over loopback TCP on one binwire and one JSON connection: codec, admission, fusion and response writes dominate",
		gen:       genEdge,
		start:     func() (system, error) { return startEdge() },
		fullEvery: 1,
		window:    64,
		rate:      4000,
		limit:     20,
		ladderLo:  1000,
		warmup:    4000,
		sample:    16,
	},
	{
		name:      "bulk-kernel",
		why:       "2^20-element builtin scans in process with no wire: 8 MiB in and 8 MiB out per request, past L2, so kernel, arena and GC do the work",
		gen:       genBulk,
		start:     func() (system, error) { return &bulkSystem{srv: serve.New(serve.Config{})}, nil },
		fullEvery: 4,
		window:    4,
		rate:      25,
		limit:     250,
		ladderLo:  20,
		warmup:    32,
		sample:    8,
	},
}

// unlisted are workloads that run on request but are not in
// BENCHMARK.json, because they are too noisy to gate a change on. On a
// 2-vCPU shared host, ten seeds of cluster-mixed at 30 s spread its
// throughput by a quarter and its p50 by two fifths of the median: its
// 16 requests take 2 to 90 ms at its open loop's median, so a few
// heavy ones and the host's memory traffic set each run. It stays for studying the
// cluster and combine layers under load.
var unlisted = []*workload{
	{
		name:      "cluster-mixed",
		why:       "2^16-2^20 element scans over two loopback workers behind a coordinator, with user ops and streams: planning, pieces, carries and the combine engine",
		gen:       genCluster,
		start:     func() (system, error) { return startCluster(0) },
		fullEvery: 4,
		streams:   true,
		window:    4,
		rate:      15,
		limit:     1000,
		ladderLo:  5,
		warmup:    24,
		sample:    8,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range slices.Concat(workloads, unlisted) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// logUniform draws an integer in [lo, hi] whose logarithm is uniform.
func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(math.Round(math.Exp(math.Log(float64(lo)) + rng.Float64()*math.Log(float64(hi)/float64(lo)))))
}

// small draws n values in [-1000, 1000].
func small(rng *rand.Rand, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = rng.Int63n(2001) - 1000
	}
	return v
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// genEdge makes 2048 requests of 16-1024 elements over every builtin op,
// kind and direction, half of them for the binwire connection.
func genEdge(rng *rand.Rand) ([]*template, error) {
	ts := make([]*template, 2048)
	for i := range ts {
		data := small(rng, logUniform(rng, 16, 1024))
		t, err := newTemplate(pick(rng, builtinOps), pick(rng, kinds), pick(rng, dirs), data)
		if err != nil {
			return nil, err
		}
		t.bin = rng.Intn(2) == 0
		ts[i] = t
	}
	return ts, nil
}

// bulkN is bulk-kernel's request size and the kernel rows' array size.
const bulkN = 1 << 20

// genBulk makes 8 requests of 2^20 elements, windows of one shared
// input at seeded offsets: each op twice, each kind and direction
// twice. Only the data and offsets vary with the seed, so the mix
// costs the same on every seed.
func genBulk(rng *rand.Rand) ([]*template, error) {
	base := small(rng, bulkN+1<<16)
	ts := make([]*template, 8)
	for i := range ts {
		off := rng.Intn(1 << 16)
		t, err := newTemplate(builtinOps[i%4], kinds[i/4], dirs[(i+i/4)%2], base[off:off+bulkN])
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}

// clusterMix is cluster-mixed's op for each of its 16 size strata,
// smallest first: builtin sum and max, satadd (vector engine), add
// (promoted to the native kernel) and one width-2 argmax, each op
// spread over small and large sizes.
var clusterMix = []string{
	"sum", "user:satadd", "max", "user:add", "sum", "user:satadd", "max", "sum",
	"user:add", "user:argmax", "sum", "user:satadd", "max", "user:add", "sum", "user:satadd",
}

// genCluster makes 16 requests of 2^16-2^20 elements, one at the
// middle of each equal slice of the log-size range: a log-uniform
// spread of sizes that is the same on every seed, since the largest
// requests set the workload's cost. Each takes clusterMix's op, the
// kinds and directions in turn, and seeded data.
func genCluster(rng *rand.Rand) ([]*template, error) {
	ts := make([]*template, len(clusterMix))
	for i, op := range clusterMix {
		n := int(math.Round(math.Exp2(16 + 4*(float64(i)+0.5)/float64(len(clusterMix)))))
		var data []int64
		switch op {
		case "user:satadd":
			// Unsigned words large enough that long scans clamp.
			data = make([]int64, n)
			for k := range data {
				data[k] = rng.Int63() >> 20
				if rng.Intn(4096) == 0 {
					data[k] = -rng.Int63()
				}
			}
		case "user:argmax":
			// (value, index) tuples.
			data = make([]int64, n&^1)
			for k := 0; k < len(data); k += 2 {
				data[k], data[k+1] = rng.Int63n(1<<20), int64(k/2)
			}
		default:
			data = small(rng, n)
		}
		t, err := newTemplate(op, kinds[i%2], dirs[i/2%2], data)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}
