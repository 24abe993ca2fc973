package main

import (
	"testing"
	"time"

	"scans/internal/serve"
)

// TestDriveRemoteSendsEveryRequest pins the request split: the clients
// together send exactly -requests, also when -requests is not a
// multiple of -clients or is smaller than it, so the reported req/s
// divides the requests that were really sent.
func TestDriveRemoteSendsEveryRequest(t *testing.T) {
	ns, err := serve.ListenNet("127.0.0.1:0", serve.Config{}, serve.NetConfig{})
	if err != nil {
		t.Fatalf("ListenNet: %v", err)
	}
	defer ns.Close()
	ops, err := resolveOps("sum", "", "exclusive", "forward")
	if err != nil {
		t.Fatalf("resolveOps: %v", err)
	}
	for _, tc := range []struct{ clients, requests int }{
		{32, 100}, // 100 = 3*32 + 4: four clients send one extra
		{8, 5},    // more clients than requests
		{4, 8},
	} {
		outs := newOutcomeSet(len(ops))
		_, err := driveRemote(ns.Addr(), serve.ProtoBin, tc.clients, tc.requests, 16, ops, "exclusive", "forward",
			5*time.Second, serve.RetryPolicy{MaxAttempts: 4}, outs, false, 0)
		if err != nil {
			t.Fatalf("clients=%d requests=%d: %v", tc.clients, tc.requests, err)
		}
		if got := outs[0].success.Load(); got != uint64(tc.requests) {
			t.Errorf("clients=%d requests=%d: %d requests served, want %d (%s)",
				tc.clients, tc.requests, got, tc.requests, outs[0])
		}
	}
}
