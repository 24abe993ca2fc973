// Command scanbench is the scan service's benchmark. It stands the
// system up in process for one workload, drives it from a seeded
// generator, checks every answer against the serial reference, and
// prints the workload's metrics; the last line of its output is one
// JSON object.
//
//	go run . --workload edge-small --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: set-up time,
// closed-loop throughput, open-loop latency at a fixed offered rate,
// the highest rate that meets the workload's latency limit, and peak
// heap. With --trace 1 it reports the per-layer metrics instead, from
// a separate traced run (see traced.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: edge-small, bulk-kernel or cluster-mixed")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	secs := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *secs < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "scanbench:", err)
		return 2
	}
	meta := hostMeta(w.name, *seed, *trace)
	out, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "meta %s\n", out)

	dur := time.Duration(*secs) * time.Second
	var res *result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = traced(w, *seed, dur, stdout)
	} else {
		res, err = measure(w, *seed, dur, stdout)
	}
	if err == nil {
		err = conforms(res, defs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "scanbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	wrong     int64 // the part of Failed answered wrongly
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds a phase's outcomes into the run's totals. A wrong answer
// is a failed request and makes the run incorrect.
func (r *result) count(p phase) {
	r.Attempted += p.sent
	r.Failed += p.failed + p.wrong
	r.wrong += p.wrong
	if p.wrong > 0 {
		r.Correct = false
	}
}

func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out, _ := json.Marshal(r) // run has rejected NaN and Inf, the only values Marshal refuses
	fmt.Fprintf(w, "%s\n", out)
}

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// setUp generates the inputs and their expected results from seed,
// starts the system and warms it up with w.warmup requests.
func setUp(w *workload, seed int64) (*generator, system, phase, error) {
	ts, err := w.gen(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, phase{}, fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	if n := len(ts); n == 0 || n&(n-1) != 0 {
		return nil, nil, phase{}, fmt.Errorf("%s has %d requests, not a power of two", w.name, n)
	}
	sys, err := w.start()
	if err != nil {
		return nil, nil, phase{}, fmt.Errorf("start %s: %w", w.name, err)
	}
	g := &generator{seed: uint64(seed), ts: ts, fullEvery: w.fullEvery, streams: w.streams}
	warm := closedCount(sys, g, w.window, w.warmup)
	return g, sys, warm, nil
}

// closedCount is a closed loop of exactly n requests.
func closedCount(sys system, g *generator, window, n int) phase {
	var t tally
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t.sent.Load() < int64(n) {
				r := g.take()
				t.record(r, send(sys, r))
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	p.add(&t)
	return p
}

// heapPeak samples the heap in use every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64()+s[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mb stops the sampler and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// interleaves is how many slices the untraced run cuts its closed and
// open loops into.
const interleaves = 4

// measure is the untraced run: set up setupReps times, then a closed
// loop for throughput, an open loop at the workload's fixed rate for
// latency, and the rate ladder for max_rate_rps, splitting dur
// 25/40/35 between them. Peak heap covers set-up and the first two
// phases, not the ladder's deliberately overloaded probes.
func measure(w *workload, seed int64, dur time.Duration, out io.Writer) (*result, error) {
	res := newResult()
	heap := watchHeap()
	var setups []float64
	var g *generator
	var sys system
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		gi, si, warm, err := setUp(w, seed)
		if err != nil {
			heap.mb()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.count(warm)
		if i < setupReps-1 {
			si.close()
			runtime.GC()
			continue
		}
		g, sys = gi, si
	}
	defer sys.close()

	// The closed and open loops alternate in interleaves slices, so each
	// metric samples the host across most of the run, not one stretch of
	// it: on a shared host, memory-bound throughput drifts by a fifth
	// over minutes. Each slice starts with the last one's garbage
	// collected, so no slice pays for another's.
	var closed, open phase
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	for i := 0; i < interleaves; i++ {
		runtime.GC()
		c := closedLoop(sys, g, w.window, dur/4/interleaves)
		res.count(c)
		closed.join(c)
		runtime.GC()
		open.join(timedOpenLoop(sys, g, w, rng, dur*4/10/interleaves, res, out))
	}
	peak := heap.mb()

	budget := dur * 35 / 100
	rps := closed.rps()
	best, probes, phases := ladder(sys, g, w.ladderLo, rps/4, 1.1*rps, w.limit, budget/5, budget, rng)
	for _, p := range phases {
		res.count(p)
	}

	lat := sortedCopy(open.lat)
	tl := tail(lat)
	fmt.Fprintf(out, "closed loop: window %d, %d requests in %.2fs, rates by window %.1f req/s\n", w.window, closed.sent, closed.elapsed.Seconds(), closed.rates)
	fmt.Fprintf(out, "open loop: %.0f req/s offered, %d samples, p50 %.4g ms, p99 %.4g ms (blocks of %d: %.4g ms), highest supported percentile p%g = %.4g ms, generator lag p99 (blocks) %.4g ms\n",
		w.rate, tl.N, pct(lat, 500), pct(lat, 990), blockLen, blockP99(open.lat), float64(tl.Permille)/10, tl.Value, blockP99(open.lag))
	for _, p := range probes {
		fmt.Fprintf(out, "ladder rung %d: %.1f req/s offered, %.1f answered, p%g %.4g ms of %g (n=%d), lag p99 %.3g ms, pass %v\n",
			p.k, p.rate, p.achieved, float64(p.permille)/10, p.tail, w.limit, p.n, p.lagP99, p.pass)
	}
	fmt.Fprintf(out, "error_rate %g (failed+wrong %d of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if !best.pass {
		return nil, fmt.Errorf("no probed rung of the rate ladder met the %g ms p99 limit", w.limit)
	}

	res.set("setup_s", median(setups), "s")
	res.set("throughput_rps", rps, "req/s")
	res.set("throughput_eps", closed.eps(), "elem/s")
	res.set("latency_p50_ms", pct(lat, 500), "ms")
	res.set("max_rate_rps", best.achieved, "req/s")
	res.set("mem_peak_mb", peak, "MiB")
	return res, nil
}

// timedOpenLoop is the open loop at w.rate for dur. A phase whose
// generator ran later than its bound (blockP99 of the lag over a
// lagShare-th of the latency limit) is invalid, not slow: it is run
// once more, and if the host stalls the generator again the run says
// so in its output.
func timedOpenLoop(sys system, g *generator, w *workload, rng *rand.Rand, dur time.Duration, res *result, out io.Writer) phase {
	for try := 1; ; try++ {
		p := openLoop(sys, g, poisson(rng, w.rate, dur), nil)
		res.count(p)
		lag := blockP99(p.lag)
		if lag <= w.limit/lagShare {
			return p
		}
		fmt.Fprintf(out, "invalid open loop (try %d): generator ran %.3g ms late at p99, over its %g ms bound\n", try, lag, w.limit/lagShare)
		if try == 2 {
			return p
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
