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
# request allocates nothing.
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

echo "== fuzz burst: FuzzShardedScanMatchesSingleNode (10s)"
go test -fuzz='^FuzzShardedScanMatchesSingleNode$' -fuzztime=10s -run '^$' ./internal/cluster/

echo "== fuzz burst: FuzzExchangeMatchesStar (10s, -race)"
# Data-plane parity: the same fuzzed scan through the exchange plane
# (workers trade block sums among themselves) and the star plane
# (coordinator pre-seeds) must be bit-identical — including iterations
# where fault injection sabotages peer rounds and forces the fallback.
go test -race -fuzz='^FuzzExchangeMatchesStar$' -fuzztime=10s -run '^$' ./internal/cluster/

echo "== exchange peer-murder soak (-race)"
# Kills a worker mid-exchange under drop-injected peer rounds and
# requires every request to land (exchange success or star fallback)
# with zero lost/corrupted results and a closed ledger.
go test -race -count=1 -run '^TestExchangePeerMurderSoak$' ./internal/cluster/

echo "== wire alloc-parity gate (no -race)"
# The binary protocol's reason to exist is zero-parse payloads: if bin
# ever allocates more per request than JSON, the decode path has grown
# a copy. Run the same load through both protocols and compare.
alloc_tmp="$(mktemp -d)"
trap 'rm -rf "$alloc_tmp"' EXIT
go run ./cmd/scanload -requests 3000 -n 4096 -clients 8 -workers 1 \
	-proto json -bench-json "$alloc_tmp/json.json" >/dev/null
go run ./cmd/scanload -requests 3000 -n 4096 -clients 8 -workers 1 \
	-proto bin -bench-json "$alloc_tmp/bin.json" >/dev/null
awk_alloc() { grep -o '"allocs_per_request": [0-9.]*' "$1" | head -1 | awk '{print $2}'; }
awk_bytes() { grep -o '"alloc_bytes_per_request": [0-9.]*' "$1" | head -1 | awk '{print $2}'; }
ja="$(awk_alloc "$alloc_tmp/json.json")" ba="$(awk_alloc "$alloc_tmp/bin.json")"
jb="$(awk_bytes "$alloc_tmp/json.json")" bb="$(awk_bytes "$alloc_tmp/bin.json")"
echo "   json: $ja allocs/req, $jb B/req   bin: $ba allocs/req, $bb B/req"
awk -v ja="$ja" -v ba="$ba" -v jb="$jb" -v bb="$bb" 'BEGIN {
	if (ba > ja) { print "FAIL: bin allocates more per request than JSON (" ba " > " ja ")"; exit 1 }
	if (bb > jb) { print "FAIL: bin allocates more bytes per request than JSON (" bb " > " jb ")"; exit 1 }
}'

echo "== failover gap gate"
# Kills the primary coordinator under streamed load and requires (a) a
# zero-loss run and (b) a recorded failover_gap_ms in the bench report —
# the metric BENCH_serve.json tracks for the control-plane failure model.
go run ./cmd/scanload -workers 2 -clients 8 -requests 400 -n 100000 \
	-stream -chunk 8192 -proto bin -kill-coordinator-after 200ms -timeout 30s \
	-bench-json "$alloc_tmp/failover.json" | tee "$alloc_tmp/failover.out"
grep -q 'success=400' "$alloc_tmp/failover.out" || { echo "FAIL: failover run lost requests"; exit 1; }
grep -q '"failover_gap_ms":' "$alloc_tmp/failover.json" || { echo "FAIL: bench report missing failover_gap_ms"; exit 1; }

echo "== exchange data-plane O(#workers) gate"
# In exchange mode the coordinator must not fold carries element-by-
# element: carry_prescan counts exactly the elements the coordinator
# touched pre-seeding on the star plane, so a clean exchange run must
# report 0 (and no fallbacks, which would re-run scans on star).
# n=16384 across 2 workers forces real multi-rank exchanges
# (MinShardElems defaults to 4096, so each scan spans both workers).
go run ./cmd/scanload -workers 2 -clients 8 -requests 400 -n 16384 \
	-proto bin -data-plane exchange | tee "$alloc_tmp/xchg.out"
grep -q 'success=400' "$alloc_tmp/xchg.out" || { echo "FAIL: exchange run lost requests"; exit 1; }
grep -q 'xchg_fallbacks=0 carry_prescan=0' "$alloc_tmp/xchg.out" || {
	echo "FAIL: coordinator did O(n) carry pre-scan work in exchange mode"; exit 1; }

echo "== native-vs-VM throughput gate (≤2x tax, ≥36k req/s)"
# The same scan load once through the native sum kernel and once
# through its combine-VM twin (user:add). With vectorized dispatch the
# twin is detected as structurally canonical to the builtin and
# promoted onto the native segmented kernels, so the old ~5.5x
# interpreter tax is gone: the gate requires the VM arm within 2x of
# native AND above an absolute 36k req/s floor (3x the scalar-dispatch
# baseline this PR replaced), plus the zero-loss/zero-bad_op checks.
# The two -bench-append phases land as a native-vs-VM row pair (op +
# vm_dispatch fields) in the bench report BENCH_serve.json tracks.
go run ./cmd/scanload -requests 2000 -n 4096 -clients 8 \
	-op sum -bench-json "$alloc_tmp/vmnative.json" | tee "$alloc_tmp/native.out"
go run ./cmd/scanload -requests 2000 -n 4096 -clients 8 \
	-op user:add -register example:add \
	-bench-json "$alloc_tmp/vmnative.json" -bench-append | tee "$alloc_tmp/vm.out"
grep -q 'success=2000' "$alloc_tmp/native.out" || { echo "FAIL: native arm lost requests"; exit 1; }
grep -q 'success=2000' "$alloc_tmp/vm.out" || { echo "FAIL: VM arm lost requests"; exit 1; }
grep -q 'bad_op=0' "$alloc_tmp/vm.out" || { echo "FAIL: VM arm hit bad_op"; exit 1; }
grep -q '"op": "user:add"' "$alloc_tmp/vmnative.json" || { echo "FAIL: bench report missing the VM row's op field"; exit 1; }
rps() { grep '^fused' "$1" | awk '{print $7}'; }
native_rps="$(rps "$alloc_tmp/native.out")" vm_rps="$(rps "$alloc_tmp/vm.out")"
echo "   native: $native_rps req/s   user:add (promoted): $vm_rps req/s"
awk -v n="$native_rps" -v v="$vm_rps" 'BEGIN {
	if (v * 2 < n) { print "FAIL: VM arm pays more than a 2x tax over native (" v " vs " n " req/s)"; exit 1 }
	if (v < 36000) { print "FAIL: VM arm below the 36k req/s floor (" v " req/s)"; exit 1 }
}'

echo "== vector-dispatch gate (lane-blocked engine vs forced scalar)"
# satadd vectorizes (its saturation diamond lowers to selects) but is
# not promotable, so this arm times the lane-blocked engine itself: the
# default dispatch must beat the same op forced through the scalar
# interpreter by >=1.3x, every request must take the vector class, and
# a mixed native+VM round-robin workload must survive zero-loss.
go run ./cmd/scanload -requests 2000 -n 4096 -clients 8 \
	-op user:satadd -bench-json "$alloc_tmp/vec.json" -bench-append | tee "$alloc_tmp/vec.out"
go run ./cmd/scanload -requests 2000 -n 4096 -clients 8 \
	-op user:satadd -vm-dispatch scalar \
	-bench-json "$alloc_tmp/vec.json" -bench-append | tee "$alloc_tmp/vecscal.out"
grep -q 'success=2000' "$alloc_tmp/vec.out" || { echo "FAIL: vector arm lost requests"; exit 1; }
grep -q 'vm_dispatch{promoted=0 vector=2000 scalar=0}' "$alloc_tmp/vec.out" || {
	echo "FAIL: satadd requests did not all take the vector dispatch class"; exit 1; }
vec_rps="$(rps "$alloc_tmp/vec.out")" scal_rps="$(rps "$alloc_tmp/vecscal.out")"
echo "   vector: $vec_rps req/s   forced scalar: $scal_rps req/s"
awk -v v="$vec_rps" -v s="$scal_rps" 'BEGIN {
	if (v < s * 1.3) { print "FAIL: lane-blocked engine under 1.3x the scalar interpreter (" v " vs " s " req/s)"; exit 1 }
}'
go run ./cmd/scanload -requests 1200 -n 4096 -clients 8 \
	-op sum,user:add,user:gcd | tee "$alloc_tmp/mixed.out"
grep -q 'success=1200' "$alloc_tmp/mixed.out" || { echo "FAIL: mixed-op run lost requests"; exit 1; }

echo "check.sh: all green"
