package serve

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"scans/internal/arena"
)

// occBuckets is the number of power-of-two histogram buckets for batch
// occupancy (requests fused per batch). Bucket b counts batches whose
// occupancy o satisfies bits.Len(o) == b, i.e. 2^(b-1) <= o < 2^b;
// 64 buckets cover any int.
const occBuckets = 64

// stats is the server's internal counter block. All fields are atomics
// so the executor pool can record concurrently.
type stats struct {
	requests      atomic.Uint64
	rejected      atomic.Uint64
	served        atomic.Uint64
	deadlineDrops atomic.Uint64
	shed          atomic.Uint64
	panics        atomic.Uint64
	panicFailed   atomic.Uint64
	corruptDrops  atomic.Uint64
	batches       atomic.Uint64
	groups        atomic.Uint64
	fused         atomic.Uint64
	maxOcc        atomic.Uint64
	occupancy     [occBuckets]atomic.Uint64

	// Streaming session ledger (see stream.go): every opened stream
	// reaches exactly one of closed/failed/expired, and active is the
	// gauge of open ones — zero once every connection has torn down.
	streamsOpened  atomic.Uint64
	streamsClosed  atomic.Uint64
	streamsFailed  atomic.Uint64
	streamsExpired atomic.Uint64
	streamsActive  atomic.Int64

	// User combine-op ledger (internal/combine): registration outcomes,
	// serve-time step-budget failures, and per-registration serve
	// counts. The per-op map is mutex-guarded — it is touched once per
	// user-op GROUP, not per request, so it never sits on the builtin
	// hot path.
	opRegisters   atomic.Uint64
	opRejects     atomic.Uint64
	opBudgetFails atomic.Uint64
	opMu          sync.Mutex
	opServed      map[string]uint64 // "tenant:name" → requests served

	// User-op dispatch-class counters (requests, not groups): promoted
	// ops ran a native kernel pass; the rest ran combine's driver,
	// Registered.Scan, which reports whether it took the vector engine
	// (vmVector) or the one-lane Exec walk (vmScalar: irreducible
	// control flow, sub-MinVecTuples requests, or the Config.scalarVM
	// test seam).
	vmPromoted atomic.Uint64
	vmVector   atomic.Uint64
	vmScalar   atomic.Uint64
}

// recordUserServed bumps the per-registration serve counter.
func (st *stats) recordUserServed(tenant, name string, n uint64) {
	st.opMu.Lock()
	if st.opServed == nil {
		st.opServed = make(map[string]uint64)
	}
	st.opServed[tenant+":"+name] += n
	st.opMu.Unlock()
}

// record accounts one executed batch.
func (st *stats) record(occupancy, groups, elems int) {
	st.batches.Add(1)
	st.groups.Add(uint64(groups))
	st.fused.Add(uint64(elems))
	b := bits.Len(uint(occupancy))
	if b >= occBuckets {
		b = occBuckets - 1
	}
	st.occupancy[b].Add(1)
	for {
		cur := st.maxOcc.Load()
		if uint64(occupancy) <= cur || st.maxOcc.CompareAndSwap(cur, uint64(occupancy)) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of a Server's counters, the raw
// material for EXPERIMENTS.md's fusion-efficiency numbers.
type Stats struct {
	// Requests is the number of accepted requests (including empty
	// ones resolved locally).
	Requests uint64
	// Rejected counts submissions refused at admission with
	// ErrOverloaded, ErrClosed, ErrBadRequest, or an already-expired
	// context. Rejected requests never enter the queue and are NOT
	// part of Requests.
	Rejected uint64
	// Served counts accepted requests that resolved with a result.
	Served uint64
	// DeadlineDrops counts accepted requests dropped unexecuted
	// because their context expired or was canceled while they waited
	// for a batch slot.
	DeadlineDrops uint64
	// Shed counts accepted requests dropped unexecuted because they
	// out-waited QueueAgeLimit (resolved with ErrShed).
	Shed uint64
	// Panics counts kernel panics recovered by the executor (each one
	// fails a single batch group and leaves the server running).
	Panics uint64
	// PanicFailed counts accepted requests that resolved with
	// ErrInternal because their group's kernel pass panicked.
	// Requests == Served + DeadlineDrops + Shed + PanicFailed +
	// CorruptDrops once the server has drained (every accepted request
	// gets exactly one terminal outcome).
	PanicFailed uint64
	// CorruptDrops counts accepted requests failed at batch-assembly
	// time by the queue.corrupt-detect fault point (the fail-safe
	// integrity-check path): resolved with ErrInternal, never executed.
	CorruptDrops uint64
	// Batches is the number of fused batches executed.
	Batches uint64
	// Groups is the total number of (op, kind, direction) kernel
	// passes across all batches; Groups/Batches is the fan-out of
	// flavors per batch.
	Groups uint64
	// FusedElements is the total element count pushed through the
	// segmented kernels.
	FusedElements uint64
	// P50Occupancy and P99Occupancy are the median and 99th-percentile
	// requests-per-batch, approximated from a power-of-two histogram
	// (reported as the bucket's upper bound clamped to MaxOccupancy, so
	// exact for occupancies one less than a power of two and otherwise
	// within 2×).
	P50Occupancy int
	P99Occupancy int
	// MaxOccupancy is the largest batch executed so far.
	MaxOccupancy int
	// StreamsOpened counts streaming sessions ever opened; each reaches
	// exactly one of Closed (clean stream_close), Failed (a chunk's
	// typed error or a dropped connection), or Expired (idle TTL), so
	// Opened == Closed + Failed + Expired once all connections are torn
	// down — the no-leaked-sessions ledger TestChaosSoak closes.
	StreamsOpened  uint64
	StreamsClosed  uint64
	StreamsFailed  uint64
	StreamsExpired uint64
	// StreamsActive is the gauge of currently-open sessions (0 after a
	// full drain; a positive value with no live connections is a leak).
	StreamsActive int64
	// OpRegisters counts accepted register_op submissions (including
	// idempotent re-registrations); OpRejects counts submissions that
	// failed validation or the tenant cap (ErrBadOp). OpBudgetFails
	// counts requests that failed at serve time because their user op
	// blew its step budget (ErrOpBudget).
	OpRegisters   uint64
	OpRejects     uint64
	OpBudgetFails uint64
	// VMPromotedReqs / VMVectorReqs / VMScalarReqs split user-op
	// requests by dispatch class: native-kernel promotion, or combine's
	// scan driver on the lane-blocked vector engine or its one-lane
	// Exec walk. Their sum is the total user-op requests dispatched
	// (including ones that later failed their step budget).
	VMPromotedReqs uint64
	VMVectorReqs   uint64
	VMScalarReqs   uint64
	// UserOps maps "tenant:name" to requests served through that
	// registration (replacements under one name share the key).
	UserOps map[string]uint64
	// BytesPooled totals the payload bytes the zero-copy path served
	// from recycled arena buffers instead of fresh allocations — the
	// allocation traffic the arena absorbed. Process-wide (the arena
	// ledger is global), not per-server.
	BytesPooled uint64
	// ArenaMisses counts arena checkouts served by a fresh allocation
	// (cold pool or over-max size). A high miss rate under steady load
	// means buffers are leaking instead of circulating. Process-wide.
	ArenaMisses uint64
	// WireFrames counts answers the TCP front end's connection writers
	// delivered, and WireFlushes the successful flushes that carried
	// them, summed over connections (NetServer.Stats fills both, for
	// every backend; a bare Server reports zero). Each writer flushes
	// once per drained queue, so WireFrames/WireFlushes is the answers
	// coalesced per write.
	WireFrames  uint64
	WireFlushes uint64
}

// String renders the snapshot in one line for logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d rejected=%d served=%d deadline_drops=%d shed=%d panics=%d panic_failed=%d corrupt_drops=%d "+
			"batches=%d groups=%d fused_elems=%d occupancy{p50=%d p99=%d max=%d} "+
			"streams{open=%d closed=%d failed=%d expired=%d active=%d} "+
			"user_ops{registered=%d rejected=%d budget_fails=%d served=%d} "+
			"vm_dispatch{promoted=%d vector=%d scalar=%d} "+
			"arena{bytes_pooled=%d misses=%d} wire{frames=%d flushes=%d}",
		s.Requests, s.Rejected, s.Served, s.DeadlineDrops, s.Shed, s.Panics, s.PanicFailed, s.CorruptDrops,
		s.Batches, s.Groups, s.FusedElements,
		s.P50Occupancy, s.P99Occupancy, s.MaxOccupancy,
		s.StreamsOpened, s.StreamsClosed, s.StreamsFailed, s.StreamsExpired, s.StreamsActive,
		s.OpRegisters, s.OpRejects, s.OpBudgetFails, s.userServedTotal(),
		s.VMPromotedReqs, s.VMVectorReqs, s.VMScalarReqs,
		s.BytesPooled, s.ArenaMisses, s.WireFrames, s.WireFlushes)
}

// userServedTotal sums the per-registration serve counts.
func (s Stats) userServedTotal() uint64 {
	var t uint64
	for _, n := range s.UserOps {
		t += n
	}
	return t
}

// Stats snapshots the server's counters. Safe to call concurrently
// with traffic; the snapshot is internally consistent enough for
// monitoring (each counter is read atomically, not the set as a whole).
func (s *Server) Stats() Stats {
	st := &s.stats
	out := Stats{
		Requests:      st.requests.Load(),
		Rejected:      st.rejected.Load(),
		Served:        st.served.Load(),
		DeadlineDrops: st.deadlineDrops.Load(),
		Shed:          st.shed.Load(),
		Panics:        st.panics.Load(),
		PanicFailed:   st.panicFailed.Load(),
		CorruptDrops:  st.corruptDrops.Load(),
		Batches:       st.batches.Load(),
		Groups:        st.groups.Load(),
		FusedElements: st.fused.Load(),
		MaxOccupancy:  int(st.maxOcc.Load()),

		StreamsOpened:  st.streamsOpened.Load(),
		StreamsClosed:  st.streamsClosed.Load(),
		StreamsFailed:  st.streamsFailed.Load(),
		StreamsExpired: st.streamsExpired.Load(),
		StreamsActive:  st.streamsActive.Load(),

		OpRegisters:   st.opRegisters.Load(),
		OpRejects:     st.opRejects.Load(),
		OpBudgetFails: st.opBudgetFails.Load(),

		VMPromotedReqs: st.vmPromoted.Load(),
		VMVectorReqs:   st.vmVector.Load(),
		VMScalarReqs:   st.vmScalar.Load(),
	}
	st.opMu.Lock()
	if len(st.opServed) > 0 {
		out.UserOps = make(map[string]uint64, len(st.opServed))
		for k, v := range st.opServed {
			out.UserOps[k] = v
		}
	}
	st.opMu.Unlock()
	ac := arena.Stats()
	out.BytesPooled = ac.BytesPooled
	out.ArenaMisses = ac.Misses
	var counts [occBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = st.occupancy[i].Load()
		total += counts[i]
	}
	out.P50Occupancy = percentile(counts[:], total, 50)
	out.P99Occupancy = percentile(counts[:], total, 99)
	// Bucket upper bounds can overshoot the true maximum (occupancy 32
	// lands in bucket [32,63], reported as 63); clamp so a percentile
	// never reads above the observed max.
	if out.P50Occupancy > out.MaxOccupancy {
		out.P50Occupancy = out.MaxOccupancy
	}
	if out.P99Occupancy > out.MaxOccupancy {
		out.P99Occupancy = out.MaxOccupancy
	}
	return out
}

// percentile returns the upper bound of the first histogram bucket at
// which the cumulative count reaches q% of total (0 if no batches yet).
func percentile(counts []uint64, total uint64, q uint64) int {
	if total == 0 {
		return 0
	}
	// 1-based rank of the first batch strictly above q% of the
	// distribution, clamped into range; this makes P99 surface the tail
	// bucket rather than rounding down to the bulk.
	rank := total*q/100 + 1
	if rank > total {
		rank = total
	}
	cum := uint64(0)
	for b, c := range counts {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return math.MaxInt
}
