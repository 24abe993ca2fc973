package main

import (
	"context"
	"testing"
	"time"
)

// instant answers every request at once.
type instant struct{}

func (instant) do(context.Context, req) outcome { return served }
func (instant) counters() counters              { return counters{} }
func (instant) close()                          {}

func TestOpenLoopChargesGeneratorStallFromDueTime(t *testing.T) {
	g := &generator{seed: 1, ts: []*template{{data: []int64{1}}}, fullEvery: 1}
	sched := make([]time.Duration, 40)
	for k := range sched {
		sched[k] = time.Duration(k) * time.Millisecond
	}
	const stallAt, stall = 10, 50 * time.Millisecond
	p := openLoop(instant{}, g, sched, func(k int) {
		if k == stallAt {
			time.Sleep(stall)
		}
	})
	if p.sent != int64(len(sched)) || p.failed != 0 {
		t.Fatalf("sent %d, failed %d; want %d, 0", p.sent, p.failed, len(sched))
	}
	// The stall begins after request stallAt-1 was due and lasts
	// stall, so request k cannot be sent before stallAt-1+50 ms: the
	// system answers at once, yet k is charged that wait.
	end := float64(stallAt-1) + ms(stall)
	for k := stallAt; k < len(sched); k++ {
		late := end - float64(k)
		if p.lag[k] < late {
			t.Errorf("request %d: lag %.2f ms, want at least %.2f", k, p.lag[k], late)
		}
		if p.lat[k] < p.lag[k] {
			t.Errorf("request %d: latency %.2f ms is less than its lag %.2f: not timed from its due time", k, p.lat[k], p.lag[k])
		}
	}
}

func TestEveryRoundSendsEveryTemplateOnce(t *testing.T) {
	g := &generator{seed: 9, ts: make([]*template, 16)}
	for round := uint64(0); round < 50; round++ {
		seen := map[uint64]bool{}
		for i := uint64(0); i < 16; i++ {
			seen[g.order(round*16+i)] = true
		}
		if len(seen) != 16 {
			t.Fatalf("round %d sent %d distinct templates of 16", round, len(seen))
		}
	}
}

func TestClosedLoopRatesCoverEveryAnswer(t *testing.T) {
	g := &generator{seed: 2, ts: []*template{{data: []int64{1, 2}}}, fullEvery: 1}
	p := closedLoop(instant{}, g, 4, 50*time.Millisecond)
	if p.failed != 0 || p.sent < rateWindows {
		t.Fatalf("sent %d, failed %d", p.sent, p.failed)
	}
	if len(p.rates) != rateWindows || p.rps() <= 0 || p.eps() != 2*p.rps() {
		t.Errorf("rates %v: rps %g, eps %g", p.rates, p.rps(), p.eps())
	}
}
