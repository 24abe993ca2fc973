package cluster

import (
	"context"
	"fmt"
	"sync"

	"scans/internal/arena"
	"scans/internal/combine"
	"scans/internal/serve"
)

// Streaming through the coordinator: a coordStream holds the carry of
// everything pushed so far — Figure 10's block-sum decomposition across
// TIME — and each chunk is itself sharded across the fleet seeded with
// that carry, the decomposition across SPACE. The two compose because
// both are the same carry algebra: scanSeeded treats the stream carry
// exactly like a piece seed one level up.
//
// Every stream is backed by a session record in the coordinator's
// sessionTable (session.go), keyed by a resume token the wire layer
// hands to the client. The record — not the coordStream — is the
// durable identity of the session: when the carrying connection (or the
// whole coordinator) dies, the record stays resumable for ResumeTTL,
// and a client holding the token re-attaches via ResumeScanStream —
// here or, through replication, on a standby — with bit-identical
// results.
//
// Failure model matches serve.Stream: any failed chunk fails the whole
// stream (a skipped chunk would corrupt the carry) AND deletes its
// record everywhere — a typed stream failure is final, only connection
// death is resumable. Backward specs are rejected at open because their
// carry depends on chunks not yet arrived.

// coordStream is one attachment to a streaming session. It implements
// serve.ScanStream, so serve's wire session table drives it unchanged,
// and serve.TokenStream, so opens advertise the resume token.
type coordStream struct {
	c      *Coordinator
	spec   serve.Spec
	tenant string
	token  string

	mu      sync.Mutex
	state   int // 0 open, 1 closed, 2 failed
	failErr error
	carry   int64
	seq     uint64        // chunks applied through this attachment's session
	fr      combine.Frame // scratch for user-op carry folds (under mu)
}

const (
	csOpen = iota
	csClosed
	csFailed
)

// OpenScanStream starts a streaming session for spec (forward only).
// Implements serve.Backend.
func (c *Coordinator) OpenScanStream(spec serve.Spec, tenant string) (serve.ScanStream, error) {
	if c.closed.Load() {
		c.stats.rejected.Add(1)
		return nil, serve.ErrClosed
	}
	if !spec.Valid() {
		c.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: invalid spec %+v", serve.ErrBadRequest, spec)
	}
	if spec.Dir == serve.Backward {
		c.stats.rejected.Add(1)
		return nil, serve.ErrStreamUnsupported
	}
	spec, err := serve.ResolveOp(c.userOps.reg, spec, tenant)
	if err != nil {
		c.stats.rejected.Add(1)
		return nil, err
	}
	if w := spec.Width(); w > 1 {
		// The stream carry is one scalar; a width-w fold state cannot
		// ride it. Wide user monoids are one-shot only.
		c.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: width-%d user ops cannot stream (scalar carry)", serve.ErrBadRequest, w)
	}
	st := &coordStream{c: c, spec: spec, tenant: tenant, carry: serve.IdentitySpec(spec)}
	st.token = c.sessions.register(st)
	c.stats.streamsOpened.Add(1)
	c.stats.streamsActive.Add(1)
	return st, nil
}

// ResumeScanStream implements serve.StreamResumer: re-attach to a
// session by token, stealing it from any prior attachment. lastAcked is
// the client's count of acked chunks; the returned resumeFrom is the
// 1-based index of the next chunk this coordinator expects (see
// sessionTable.resume for the rollback cases). The new attachment
// counts as an opened stream, so the ledger invariant
// Opened == Closed + Failed holds per coordinator: the dead attachment
// fails where it was, the resumed one opens (and eventually closes)
// here.
func (c *Coordinator) ResumeScanStream(token string, lastAcked uint64) (serve.ScanStream, uint64, error) {
	if c.closed.Load() {
		c.stats.rejected.Add(1)
		return nil, 0, serve.ErrClosed
	}
	st, from, err := c.sessions.resume(c, token, lastAcked)
	if err != nil {
		c.stats.rejected.Add(1)
		return nil, 0, err
	}
	c.stats.resumes.Add(1)
	c.stats.streamsOpened.Add(1)
	c.stats.streamsActive.Add(1)
	return st, from, nil
}

// ResumeToken implements serve.TokenStream: the wire layer advertises
// it in the stream-open ack so the client can resume after a failure.
func (st *coordStream) ResumeToken() string { return st.token }

// Push shards one chunk across the fleet, seeded with the carry of all
// prior chunks, and returns the chunk's slice of the overall scan. Any
// error fails the stream permanently.
func (st *coordStream) Push(ctx context.Context, chunk []int64) ([]int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case csClosed:
		return nil, serve.ErrNoStream
	case csFailed:
		return nil, fmt.Errorf("%w: %v", serve.ErrStreamFailed, st.failErr)
	}
	if len(chunk) == 0 {
		return []int64{}, nil
	}
	st.c.stats.requests.Add(1)
	st.c.crashPoint()
	res, err := st.c.scanSeeded(ctx, st.spec, chunk, nil, st.carry, true, st.tenant)
	if err != nil {
		err = st.c.finish(err)
		st.failLocked(err)
		st.c.sessions.removeOwned(st) // a failed chunk ends the session everywhere
		return nil, err
	}
	// New carry = fold of everything so far (same trick as
	// serve.Stream.Push: the exclusive form's last output stops one
	// element short of the fold). The fold runs BEFORE the served count
	// so a VM fault here lands in the ledger exactly once, as a failure.
	last := res[len(res)-1]
	if st.spec.Kind == serve.Exclusive {
		last, err = serve.CombineSpec(st.spec, &st.fr, last, chunk[len(chunk)-1])
		if err != nil {
			arena.PutInt64s(res)
			err = st.c.finish(err)
			st.failLocked(err)
			st.c.sessions.removeOwned(st)
			return nil, err
		}
	}
	st.c.stats.served.Add(1)
	st.carry = last
	st.seq++
	if !st.c.sessions.advance(st, st.seq, st.carry) {
		// The session was resumed elsewhere while this chunk ran: this
		// attachment is a zombie. Fail it without touching the record —
		// the thief owns it now.
		err := fmt.Errorf("%w: session resumed by another client", serve.ErrStreamFailed)
		st.failLocked(err)
		return nil, err
	}
	return res, nil
}

// Close ends the stream and returns the fold of everything pushed.
func (st *coordStream) Close() (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case csClosed:
		return 0, serve.ErrNoStream
	case csFailed:
		return 0, fmt.Errorf("%w: %v", serve.ErrStreamFailed, st.failErr)
	}
	st.state = csClosed
	st.c.sessions.removeOwned(st)
	st.c.stats.streamsClosed.Add(1)
	st.c.stats.streamsActive.Add(-1)
	return st.carry, nil
}

// Abort fails an open attachment without running anything (connection
// teardown). The session record is DETACHED, not deleted: the client
// may hold the token and resume — connection death is exactly the
// failure resumability exists for. Safe on any state.
func (st *coordStream) Abort(cause error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != csOpen {
		return
	}
	if cause == nil {
		cause = serve.ErrStreamFailed
	}
	st.failLocked(cause)
	st.c.sessions.detach(st)
}

// Expire handles the wire layer's idle TTL: an idle-expired session is
// abandoned, not interrupted, so its record is deleted — letting it
// linger as resumable would just defer the reaping to ResumeTTL.
func (st *coordStream) Expire() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != csOpen {
		return
	}
	st.failLocked(serve.ErrNoStream)
	st.c.sessions.removeOwned(st)
}

// failLocked transitions open → failed exactly once (st.mu held).
func (st *coordStream) failLocked(cause error) {
	st.state = csFailed
	st.failErr = cause
	st.c.stats.streamsFailed.Add(1)
	st.c.stats.streamsActive.Add(-1)
}
