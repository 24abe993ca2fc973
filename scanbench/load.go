package main

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// req is one request the generator sends: a template plus the choices
// that depend on the request's number.
type req struct {
	id     uint64
	t      *template
	full   bool    // compare every element of the answer, not only spot positions
	stream bool    // cluster-mixed: push through OpenScanStream in chunks
	h      uint64  // the request's hash, which seeds its spot-check positions
	tr     *tracer // nil unless the phase is traced
}

// outcome is a request's terminal state as the generator sees it.
type outcome uint8

const (
	served outcome = iota
	failed         // an error: refused, shed, dropped, lost or timed out
	wrong          // answered, but not with the serial reference's result
)

// system is a workload's system under test, stood up in process.
type system interface {
	// do sends r, waits for the answer, checks it and reports the outcome.
	do(ctx context.Context, r req) outcome
	// counters snapshots the public counters of every layer it runs.
	counters() counters
	close()
}

// generator numbers requests and derives each one from (seed, number)
// alone, so a seed fixes every run's inputs and the subset of answers
// compared in full. Requests come in rounds of len(ts): each round
// sends every template once, in a seeded order, so even a short phase
// sends the workload's mix and not a random draw from it.
type generator struct {
	seed      uint64
	ts        []*template // a power of two of them
	fullEvery uint64      // one answer in fullEvery is compared in full (1: all)
	streams   bool        // a quarter of the streamable requests are streamed
	tr        *tracer     // set between phases only
	next      atomic.Uint64
}

func (g *generator) take() req {
	id := g.next.Add(1) - 1
	h := mix(g.seed ^ mix(id))
	t := g.ts[g.order(id)]
	return req{
		id:     id,
		t:      t,
		h:      h,
		tr:     g.tr,
		full:   (h>>24)%g.fullEvery == 0,
		stream: g.streams && streamable(t) && (h>>40)%4 == 0,
	}
}

// order maps request id to its template: position id%n of round id/n,
// through an odd multiplier, an offset and an xor drawn for the round,
// each a bijection modulo n = len(ts), a power of two.
func (g *generator) order(id uint64) uint64 {
	n := uint64(len(g.ts))
	r := mix(g.seed ^ mix(id/n) ^ 0x07de7)
	mul, add, xor := r|1, r>>32, (r>>48)%n
	return (mul*(id%n)+add)%n ^ xor
}

// requestTimeout bounds one request; a request that outlives it failed.
const requestTimeout = 20 * time.Second

// tally counts a phase's outcomes.
type tally struct {
	sent, failed, wrong, elems atomic.Int64
}

func (t *tally) record(r req, o outcome) {
	t.sent.Add(1)
	switch o {
	case failed:
		t.failed.Add(1)
	case wrong:
		t.wrong.Add(1)
	default:
		t.elems.Add(int64(len(r.t.data)))
	}
}

// phase is the result of one closed- or open-loop phase.
type phase struct {
	sent, failed, wrong, elems int64
	elapsed                    time.Duration
	rates, erates              []float64 // closed loop: requests and elements answered per second, per window
	lat                        []float64 // open loop: ms from each request's due time, in due order; +Inf if it failed
	lag                        []float64 // open loop: ms each request was sent after its due time
}

func (p *phase) add(t *tally) {
	p.sent, p.failed, p.wrong, p.elems = t.sent.Load(), t.failed.Load(), t.wrong.Load(), t.elems.Load()
}

// join adds q's outcomes, time and samples to p's.
func (p *phase) join(q phase) {
	p.sent, p.failed, p.wrong, p.elems = p.sent+q.sent, p.failed+q.failed, p.wrong+q.wrong, p.elems+q.elems
	p.elapsed += q.elapsed
	p.rates = append(p.rates, q.rates...)
	p.erates = append(p.erates, q.erates...)
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
}

// rps is the closed loop's throughput: the median of the rates of its
// windows, rateWindows of equally many answers per loop joined into p,
// so a host stall that fills a window or two moves it little. Wrong
// answers count as answered here; they fail the run elsewhere.
func (p *phase) rps() float64 {
	if len(p.rates) == 0 {
		return float64(p.sent-p.failed) / p.elapsed.Seconds()
	}
	return median(p.rates)
}

// eps is rps in elements.
func (p *phase) eps() float64 {
	if len(p.erates) == 0 {
		return float64(p.elems) / p.elapsed.Seconds()
	}
	return median(p.erates)
}

// rateWindows is how many windows the closed loop's answers are cut into.
const rateWindows = 10

// answer is one answered request of a closed loop: when, since the
// phase started, and how many elements.
type answer struct {
	at    time.Duration
	elems int
}

// closedLoop keeps window requests in flight for dur: each of window
// goroutines sends its next request as soon as its last one answers.
func closedLoop(sys system, g *generator, window int, dur time.Duration) phase {
	var t tally
	var wg sync.WaitGroup
	answers := make([][]answer, window)
	start := time.Now()
	deadline := start.Add(dur)
	for w := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := g.take()
				o := send(sys, r)
				t.record(r, o)
				if o != failed {
					answers[w] = append(answers[w], answer{time.Since(start), len(r.t.data)})
				}
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	p.add(&t)
	all := slices.Concat(answers...)
	slices.SortFunc(all, func(a, b answer) int { return cmp.Compare(a.at, b.at) })
	if per := len(all) / rateWindows; per > 0 {
		var from time.Duration
		for i := 0; i < rateWindows; i++ {
			win := all[i*per : (i+1)*per]
			elems := 0
			for _, a := range win {
				elems += a.elems
			}
			secs := (win[len(win)-1].at - from).Seconds()
			from = win[len(win)-1].at
			p.rates = append(p.rates, float64(len(win))/secs)
			p.erates = append(p.erates, float64(elems)/secs)
		}
	}
	return p
}

func send(sys system, r req) outcome {
	t0 := r.tr.now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	o := sys.do(ctx, r)
	r.tr.record(r.id, "request", "", t0)
	return o
}

// poisson returns the due offsets of a Poisson arrival process at rate
// req/s over dur, drawn from rng.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var offs []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= dur {
			return offs
		}
		offs = append(offs, off)
	}
}

// maxOutstanding caps the open loop's unanswered requests; past it the
// generator itself falls behind, which its lag then reports.
const maxOutstanding = 4096

// openLoop sends one request at each due time of sched regardless of
// answers, and times each from its due time, so a stall anywhere, the
// generator's included, is charged to every request it delays. pause,
// when non-nil, runs before request k is dispatched (tests inject a
// generator stall through it).
func openLoop(sys system, g *generator, sched []time.Duration, pause func(k int)) phase {
	var t tally
	var wg sync.WaitGroup
	lat := make([]float64, len(sched))
	lag := make([]float64, len(sched))
	sem := make(chan struct{}, maxOutstanding)
	start := time.Now()
	for k, off := range sched {
		if pause != nil {
			pause(k)
		}
		due := start.Add(off)
		waitUntil(due)
		sem <- struct{}{}
		lag[k] = ms(time.Since(due))
		r := g.take()
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			o := send(sys, r)
			t.record(r, o)
			lat[k] = ms(time.Since(due))
			if o == failed {
				lat[k] = math.Inf(1)
			}
			<-sem
		}(k, due)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), lat: lat, lag: lag}
	p.add(&t)
	return p
}

// waitUntil returns at due, or at once if due has passed.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		sleepPrecise(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rungRatio spaces the max-rate ladder's rungs: 6% apart, well inside
// max_rate_rps's regression bound, so one rung is never a regression.
const rungRatio = 1.06

// rungRate is the offered rate of rung k of a ladder starting at lo.
func rungRate(lo float64, k int) float64 { return lo * math.Pow(rungRatio, float64(k)) }

// rung is one probe of the max-rate ladder.
type rung struct {
	k        int
	rate     float64 // offered, req/s
	achieved float64 // answered per second of the probe
	permille int     // the percentile the limit applied to (see probeTail)
	tail     float64 // its latency from due time, ms
	lagP99   float64
	n        int
	pass     bool
}

// lagShare bounds the generator: it may run at most 1/lagShare of the
// workload's latency limit late at p99, or the phase is invalid rather
// than slow.
const lagShare = 4

// blockLen is the block size of blockP99.
const blockLen = 1000

// blockP99 is the median, over consecutive blocks of blockLen requests
// in due order, of each block's p99 (the last block takes the
// remainder); with fewer than two blocks it is the plain p99. A stall
// elsewhere on the host lands in a block or two and moves it little.
func blockP99(lat []float64) float64 {
	nb := len(lat) / blockLen
	if nb < 2 {
		return pct(sortedCopy(lat), 990)
	}
	ps := make([]float64, nb)
	for b := range ps {
		hi := (b + 1) * blockLen
		if b == nb-1 {
			hi = len(lat)
		}
		ps[b] = pct(sortedCopy(lat[b*blockLen:hi]), 990)
	}
	return median(ps)
}

// probeTail is the percentile a probe's latency limit applies to and
// its value: blockP99 when the probe has ten samples beyond its p99,
// else the highest percentile that has (p95 from 200 samples). At
// bulk-kernel's rates a probe has 400-800 samples, and whether a p99 of
// five or eight samples met the limit turned on host stalls.
func probeTail(lat []float64) (int, float64) {
	if n := len(lat); n-rank(n, 990) >= 10 {
		return 990, blockP99(lat)
	}
	t := tail(sortedCopy(lat))
	return t.Permille, t.Value
}

// probe offers rung k's rate for dur and checks it against the latency
// limit: every answer right and probeTail within limit, a failed
// request counting as infinitely late. Latency runs from the due time,
// so a generator that falls behind can fail a rung but never pass one.
func probe(sys system, g *generator, lo float64, k int, limit float64, dur time.Duration, rng *rand.Rand) (rung, phase) {
	rate := rungRate(lo, k)
	runtime.GC() // start every probe with the previous one's garbage collected
	p := openLoop(sys, g, poisson(rng, rate, dur), nil)
	q, v := probeTail(p.lat)
	return rung{
		k: k, rate: rate, n: len(p.lat), permille: q, tail: v, lagP99: blockP99(p.lag),
		achieved: float64(p.sent-p.failed) / p.elapsed.Seconds(),
		pass:     p.wrong == 0 && v <= limit,
	}, p
}

// ladder finds the highest rung whose probe passes by bisection over
// rung numbers. The highest rung at most floor req/s is taken to pass
// and the first rung above ceil req/s to fail; each probe, within
// budget, halves the rungs between them. If no probe passed, the floor
// rung itself is probed last. It returns the highest passing probe
// (pass false if none passed) and every probe made.
func ladder(sys system, g *generator, lo, floor, ceil, limit float64, probeDur, budget time.Duration, rng *rand.Rand) (best rung, probes []rung, phases []phase) {
	pass, fail := 0, 1
	for rungRate(lo, pass+1) <= floor {
		pass++
	}
	for fail <= pass || rungRate(lo, fail) <= ceil {
		fail++
	}
	floorRung := pass
	try := func(k int) rung {
		r, p := probe(sys, g, lo, k, limit, probeDur, rng)
		probes = append(probes, r)
		phases = append(phases, p)
		return r
	}
	deadline := time.Now().Add(budget)
	for fail-pass > 1 && time.Now().Add(probeDur).Before(deadline) {
		k := (pass + fail) / 2
		if r := try(k); r.pass {
			pass, best = k, r
		} else {
			fail = k
		}
	}
	if !best.pass {
		best = try(floorRung)
	}
	return best, probes, phases
}
