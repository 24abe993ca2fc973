package cluster

import (
	"fmt"
	"sync/atomic"
)

// coordStats is the coordinator's internal counter block.
type coordStats struct {
	requests    atomic.Uint64
	rejected    atomic.Uint64
	served      atomic.Uint64
	shardFailed atomic.Uint64
	deadline    atomic.Uint64

	shards    atomic.Uint64
	pieces    atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64

	carryPrescanElems atomic.Uint64

	ejections    atomic.Uint64
	readmissions atomic.Uint64

	heartbeats    atomic.Uint64
	joins         atomic.Uint64
	beatEjections atomic.Uint64

	streamsOpened atomic.Uint64
	streamsClosed atomic.Uint64
	streamsFailed atomic.Uint64
	streamsActive atomic.Int64

	resumes      atomic.Uint64
	resumeMisses atomic.Uint64

	opRegisters atomic.Uint64
	opRejects   atomic.Uint64
	opPushes    atomic.Uint64
	opPushFails atomic.Uint64
}

// Stats is a point-in-time snapshot of a Coordinator's counters. The
// request ledger mirrors serve.Stats: once traffic has drained,
// Requests == Served + ShardFailed + Deadline — every accepted request
// reaches exactly one terminal outcome, which is the invariant
// TestClusterChaosSoak closes.
type Stats struct {
	// Requests counts accepted scans (one per Scan/ScanSegmented call
	// and per stream chunk pushed).
	Requests uint64
	// Rejected counts submissions refused at admission (bad spec, closed
	// coordinator); NOT part of Requests.
	Rejected uint64
	// Served counts requests that returned a full result.
	Served uint64
	// ShardFailed counts requests that failed with ErrShardFailed: some
	// piece exhausted its retry budget, or no workers were healthy.
	ShardFailed uint64
	// Deadline counts requests whose caller's context expired or was
	// canceled before every piece landed.
	Deadline uint64
	// Shards and Pieces count planned work: shards are per-worker
	// ranges, pieces the wire requests they were cut into.
	Shards uint64
	Pieces uint64
	// Retries counts re-attempts after a failed piece attempt (the first
	// try of each piece is not a retry).
	Retries uint64
	// Hedges counts duplicate piece dispatches launched after
	// HedgeAfter; HedgeWins counts the hedges that answered first.
	Hedges    uint64
	HedgeWins uint64
	// CarryPrescanElems counts elements the coordinator folded BEFORE
	// dispatch to seed pieces. The data plane reads every block sum off
	// a reply instead, so it stays 0; TestClusterClosedLoopNoCarryPrescan
	// gates on that.
	CarryPrescanElems uint64
	// Ejections counts workers removed from planning after EjectAfter
	// consecutive connection-level failures; Readmissions counts
	// successful probe-driven returns. A worker may be ejected and
	// readmitted many times.
	Ejections    uint64
	Readmissions uint64
	// Heartbeats counts accepted worker announcements (including ones a
	// fired heartbeat.drop point discarded); Joins counts the ones that
	// admitted a previously unknown worker. BeatEjections counts
	// announced workers ejected for heartbeat silence (a subset of
	// Ejections).
	Heartbeats    uint64
	Joins         uint64
	BeatEjections uint64
	// Stream session ledger: Opened == Closed + Failed once every
	// session is torn down, and Active is the gauge of open ones.
	// A resumed attachment counts as Opened (and its dead predecessor as
	// Failed, wherever it ran), so the invariant holds per coordinator
	// even across failover. (Idle-TTL expiry lives in the wire layer and
	// surfaces here as Failed via Expire.)
	StreamsOpened uint64
	StreamsClosed uint64
	StreamsFailed uint64
	StreamsActive int64
	// Resumes counts successful stream re-attachments by token;
	// ResumeMisses counts resume attempts that found no usable record
	// (unknown/expired token, or a rollback point beyond the ring).
	Resumes      uint64
	ResumeMisses uint64
	// User combine-op ledger. OpRegisters counts accepted register_op
	// calls, OpRejects the ones the monoid validator refused. OpPushes
	// counts registrations successfully propagated to a worker (eager at
	// register time or lazy before a piece), OpPushFails the propagation
	// attempts that failed — advisory, since the per-piece op_hash retry
	// repairs workers the push missed.
	OpRegisters uint64
	OpRejects   uint64
	OpPushes    uint64
	OpPushFails uint64
}

// String renders the snapshot in one line for logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d rejected=%d served=%d shard_failed=%d deadline=%d "+
			"shards=%d pieces=%d retries=%d hedges=%d hedge_wins=%d "+
			"carry_prescan=%d "+
			"ejections=%d readmissions=%d heartbeats=%d joins=%d beat_ejections=%d "+
			"streams{open=%d closed=%d failed=%d active=%d} resumes=%d resume_misses=%d "+
			"user_ops{registers=%d rejects=%d pushes=%d push_fails=%d}",
		s.Requests, s.Rejected, s.Served, s.ShardFailed, s.Deadline,
		s.Shards, s.Pieces, s.Retries, s.Hedges, s.HedgeWins,
		s.CarryPrescanElems,
		s.Ejections, s.Readmissions, s.Heartbeats, s.Joins, s.BeatEjections,
		s.StreamsOpened, s.StreamsClosed, s.StreamsFailed, s.StreamsActive,
		s.Resumes, s.ResumeMisses,
		s.OpRegisters, s.OpRejects, s.OpPushes, s.OpPushFails)
}

// Stats snapshots the coordinator's counters; safe under traffic.
func (c *Coordinator) Stats() Stats {
	st := &c.stats
	return Stats{
		Requests:          st.requests.Load(),
		Rejected:          st.rejected.Load(),
		Served:            st.served.Load(),
		ShardFailed:       st.shardFailed.Load(),
		Deadline:          st.deadline.Load(),
		Shards:            st.shards.Load(),
		Pieces:            st.pieces.Load(),
		Retries:           st.retries.Load(),
		Hedges:            st.hedges.Load(),
		HedgeWins:         st.hedgeWins.Load(),
		CarryPrescanElems: st.carryPrescanElems.Load(),
		Ejections:         st.ejections.Load(),
		Readmissions:      st.readmissions.Load(),
		Heartbeats:        st.heartbeats.Load(),
		Joins:             st.joins.Load(),
		BeatEjections:     st.beatEjections.Load(),
		StreamsOpened:     st.streamsOpened.Load(),
		StreamsClosed:     st.streamsClosed.Load(),
		StreamsFailed:     st.streamsFailed.Load(),
		StreamsActive:     st.streamsActive.Load(),
		Resumes:           st.resumes.Load(),
		ResumeMisses:      st.resumeMisses.Load(),
		OpRegisters:       st.opRegisters.Load(),
		OpRejects:         st.opRejects.Load(),
		OpPushes:          st.opPushes.Load(),
		OpPushFails:       st.opPushFails.Load(),
	}
}
