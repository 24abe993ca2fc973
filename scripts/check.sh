#!/usr/bin/env bash
# Tier-1+ gate: everything must build, vet clean, and pass the full
# test suite UNDER THE RACE DETECTOR. The serve subsystem is
# goroutine-heavy (batcher, executor pool, per-connection goroutines),
# so -race is routine here, not an occasional extra.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== scanbench: go vet + go test"
# scanbench/ is a module of its own, so go build ./... above never
# compiles it; an API change in serve or scan could break it silently.
(cd scanbench && go vet . && go test .)

echo "== gofmt -l"
# Every Go file outside the benchmark's build cache must be
# gofmt-formatted; any file gofmt would rewrite fails the gate.
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt would reformat:"
	echo "$unformatted"
	exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== chaos soak (short, -race)"
go test -race -short -count=1 -run '^TestChaosSoak$' ./internal/serve/

echo "== connection writer gate (-race -count=20)"
# One writer per connection, at both ends, drains its whole queue per
# flush, and executors answer one-shot scans through a completion hook.
# Twenty repeats under the race detector: queued answers leave in order
# in one flush with each release hook first, a dead or chaos-killed
# connection still recycles every buffer, a client that never reads
# stalls the read loop at a bounded queue, each answer's writes get
# their own write deadline, an executor never waits on a socket, a wire
# deadline is dropped at pick time, and the in-flight caps and the
# client deadline hold. On the client side: queued requests leave in
# order in one flush, a write error fails every queued and in-flight
# round trip and stops the writer with the arena ledger closed, and
# callers facing a server that never reads wait at maxQueued until
# Close fails them.
go test -race -count=20 -run '^(TestConnWriterOneFlushInOrder|TestConnWriterDrainsAfterWriteError|TestConnWriterDrainsAfterChaosKill|TestConnWriterBoundsNonReadingClient|TestConnWriterDeadlinePerWrite|TestNetExecutorNeverBlocksOnSocket|TestNetWireDeadlineDrop|TestNetPerConnInflightCap|TestNetPerConnInflightCapNonReadingClient|TestNetClientCtxDeadline|TestClientWriterOneFlushInOrder|TestClientWriterErrorFailsRoundTrips|TestClientWriterBoundsNonReadingServer)$' ./internal/serve/

echo "== cluster chaos soak (short, -race)"
# Fails on any lost/corrupted scan or a coordinator ledger imbalance
# (requests != served + shard_failed + deadline) — the test asserts
# both after the drain.
go test -race -short -count=1 -run '^TestClusterChaosSoak$' ./internal/cluster/

echo "== coordinator failover soak (short, -race)"
# Murders the primary coordinator mid-soak (half the traffic streamed)
# and fails on any lost or corrupted request, any stream that did not
# resume bit-identically on the standby, or a stream/arena ledger that
# does not close on either coordinator.
go test -race -short -count=1 -run '^TestCoordinatorFailoverSoak$' ./internal/cluster/

echo "== registry heartbeat-liveness gate (-race)"
# Walks a worker through announce → shards within one heartbeat
# interval → silent death → beat ejection (scans retried elsewhere
# throughout) → rebirth → heartbeat readmission.
go test -race -count=1 -run '^TestAnnounceJoinAndBeatEjection$' ./internal/cluster/

echo "== alloc-regression gate (no -race: its sync.Pool drops Puts by design)"
# Pins steady-state allocations on the zero-copy serving path and the
# arena's recycled checkouts; fails if a copy or per-request allocation
# creeps back in.
go test -count=1 -run '^TestAllocsSteadyStateScan$' ./internal/serve/
go test -count=1 -run '^TestSteadyStateAllocFree$' ./internal/arena/
# The JSON edge codec: decoding a scan request or result line allocates
# nothing beyond the arena checkout for its vector, and encoding a
# request allocates nothing. Its coverage vector (every digit length of
# both signs at every 8-byte alignment) must decode on the one-pass path
# and round-trip: a silent fallback to encoding/json fails it.
go test -count=1 -run '^TestAllocsJSONEdgeCodec$' ./internal/serve/

echo "== user-op VM alloc gate (no -race)"
# The combine VM must serve a registered monoid within a fixed
# allocs/request budget: no per-call frame or buffer allocation beyond
# the per-executor scratch the design promises.
go test -count=1 -run '^TestAllocsSteadyStateUserOpScan$' ./internal/serve/

echo "== fuzz burst: FuzzSegmentedAgainstDirect (10s)"
go test -fuzz='^FuzzSegmentedAgainstDirect$' -fuzztime=10s -run '^$' ./internal/scan/

echo "== fuzz burst: FuzzViewKernelsMatchFlattened (10s)"
go test -fuzz='^FuzzViewKernelsMatchFlattened$' -fuzztime=10s -run '^$' ./internal/scan/

echo "== fuzz burst: FuzzStreamedScanMatchesOneShot (10s)"
go test -fuzz='^FuzzStreamedScanMatchesOneShot$' -fuzztime=10s -run '^$' ./internal/serve/

echo "== fuzz burst: FuzzVMMatchesNative (10s, -race)"
# User-monoid parity: +/max/min expressed as combine-VM bytecode must
# answer bit-identically to the native kernels on the same fuzzed
# traffic, across every kind × dir combination.
go test -race -fuzz='^FuzzVMMatchesNative$' -fuzztime=10s -run '^$' ./internal/serve/

echo "== fuzz burst: FuzzVectorizedMatchesScalar (10s, -race)"
# Differential fuzz of the lane-blocked vector engine against the scalar
# interpreter: random programs (branchy, budget-blowing, widths 1–4,
# MinInt64/÷0 edge values) plus every example monoid must either refuse
# to compile or answer bit-identically in every lane.
go test -race -fuzz='^FuzzVectorizedMatchesScalar$' -fuzztime=10s -run '^$' ./internal/combine/

echo "== fuzz burst: FuzzBinwireMatchesJSON (10s, -race)"
# Codec parity under the race detector: the same fuzzed traffic through
# the binary and JSON codecs must produce identical results and error
# codes, and raw hostile frames must never wedge or crash the server.
go test -race -fuzz='^FuzzBinwireMatchesJSON$' -fuzztime=10s -run '^$' ./internal/serve/

echo "== fuzz burst: FuzzWireJSONMatchesStdlib (10s)"
# Parity of the one-pass JSON edge codec with encoding/json: the same
# accept/reject verdict, error text and decoded struct on any line, and
# appenders byte-identical to json.Marshal whenever they claim a value.
go test -fuzz='^FuzzWireJSONMatchesStdlib$' -fuzztime=10s -run '^$' ./internal/serve/

echo "== fuzz burst: FuzzAppendInt64sMatchesStrconv (10s)"
# The word-at-a-time int encoder must write exactly what a
# strconv.AppendInt loop writes, predict its length exactly, and never
# grow a buffer sized by that prediction.
go test -fuzz='^FuzzAppendInt64sMatchesStrconv$' -fuzztime=10s -run '^$' ./internal/serve/

echo "== fuzz burst: FuzzShardedScanMatchesSingleNode (10s, -race)"
# Sharded scans against the single-node reference under the race
# detector: every piece is dispatched concurrently, copies its reply
# into the shared output, and then takes its carry in a concurrent pass.
go test -race -fuzz='^FuzzShardedScanMatchesSingleNode$' -fuzztime=10s -run '^$' ./internal/cluster/

echo "== wire alloc-parity gate (no -race)"
# The binary protocol's reason to exist is zero-parse payloads: if bin
# ever allocates more per request than JSON, the decode path has grown
# a copy. The test runs the same load through both protocols and
# compares.
go test -count=1 -run '^TestWireAllocParity$' ./internal/cluster/

echo "== failover gap gate"
# Kills the primary coordinator under streamed load and requires (a) a
# zero-loss run and (b) a measured failover gap: a request the standby
# served after the kill.
go test -count=1 -run '^TestFailoverGapUnderStreamedLoad$' ./internal/cluster/

echo "== data-plane O(#pieces) carry-chain gate"
# The coordinator must not fold any element ahead of dispatch: every
# piece's block sum is read off its reply, so carry_prescan must read 0
# under concurrent load whose scans all span both workers.
go test -count=1 -run '^TestClusterClosedLoopNoCarryPrescan$' ./internal/cluster/

echo "== native-vs-VM throughput gate (≤2x tax, ≥36k req/s)"
# The same scan load once through the native sum kernel and once
# through its combine-VM twin (user:add). With vectorized dispatch the
# twin is promoted onto the native segmented kernels, so the VM arm
# must be within 2x of native AND above an absolute 36k req/s floor,
# plus the zero-loss/zero-bad_op checks.
go test -count=1 -run '^TestNativeVsVMThroughput$' ./internal/serve/

echo "== vector-dispatch gate (lane-blocked engine vs forced scalar)"
# satadd vectorizes but is not promotable, so this arm times the
# lane-blocked engine itself: the default dispatch must beat the same
# op forced through the scalar interpreter by >=1.3x, every request
# must take the vector class, and a mixed native+VM round-robin
# workload must survive zero-loss.
go test -count=1 -run '^TestVectorDispatchThroughput$' ./internal/serve/

echo "check.sh: all green"
