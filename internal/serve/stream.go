package serve

import (
	"context"
	"fmt"
	"sync"

	"scans/internal/arena"
	"scans/internal/combine"
)

// Streaming scan sessions: the paper's Figure 10 long-vector rule says
// a scan over n > P elements is ⌈n/P⌉ block passes stitched together
// by a block-sum carry. A Stream applies the same decomposition across
// TIME instead of space: the client submits a vector too large for one
// wire message (or one batch) as a sequence of chunks, and the server
// carries the running prefix — the "block sum" of every prior chunk —
// from one chunk to the next. Chunk k's kernel pass is seeded with the
// carry (see runGroup: the view kernels fold the carry in at the
// segment head, so the ordinary segmented kernels do the stitching),
// its result streams back immediately, and the updated carry is all
// the state the server retains: O(1) per stream, independent of how
// much data has flowed through it.
//
// Failure model (consistent with DESIGN.md §4): every chunk is an
// ordinary batched request, so it can hit a deadline, be shed, or lose
// its group to an isolated kernel panic. Any such failure fails the
// WHOLE stream — a skipped chunk would silently corrupt the carry —
// and frees its state; the failing chunk reports the underlying typed
// error and later operations get ErrStreamFailed. Backward specs are
// rejected at open with ErrStreamUnsupported: their carry depends on
// chunks that have not arrived yet (see the error's doc comment).

// streamState is a Stream's lifecycle position.
type streamState uint8

const (
	streamOpen streamState = iota
	streamClosed
	streamFailed
)

// Stream is one in-process streaming scan session. Create with
// Server.OpenStream, feed with Push (one chunk at a time; Push
// serializes concurrent callers because chunk k+1's carry is chunk k's
// output), and finish with Close, which returns the total — the fold
// of everything pushed. The network front end (net.go) wraps a Stream
// per wire session and adds the idle TTL and per-connection cap.
type Stream struct {
	srv    *Server
	spec   Spec
	tenant string

	mu      sync.Mutex
	state   streamState
	failErr error
	carry   int64 // fold of all chunks so far; starts at the op's identity
	// fr is the VM scratch frame for user-op carry folds; Push holds mu,
	// so one frame per stream suffices.
	fr combine.Frame
}

// OpenStream starts a streaming session for spec. Backward specs are
// rejected with ErrStreamUnsupported (their carry depends on chunks
// that have not arrived yet); invalid specs with ErrBadRequest; a
// closed server with ErrClosed. A user-op spec is resolved here, once:
// the stream binds the live registration (width-1 ops only — the carry
// is a scalar) and every chunk runs under it, so a re-registration
// mid-stream cannot change the stream's semantics.
func (s *Server) OpenStream(spec Spec, tenant string) (*Stream, error) {
	if !spec.valid() {
		s.stats.rejected.Add(1)
		return nil, fmt.Errorf("%w: invalid spec %s", ErrBadRequest, spec)
	}
	if spec.Dir == Backward {
		s.stats.rejected.Add(1)
		return nil, ErrStreamUnsupported
	}
	if spec.Op == OpUser {
		// seeded marks the request as a stream chunk, which also enforces
		// the width-1 rule at resolution.
		r := request{spec: spec, tenant: tenant, seeded: true}
		if err := s.resolveUserOp(&r); err != nil {
			s.stats.rejected.Add(1)
			return nil, err
		}
		spec = r.spec
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		s.stats.rejected.Add(1)
		return nil, ErrClosed
	}
	s.stats.streamsOpened.Add(1)
	s.stats.streamsActive.Add(1)
	return &Stream{srv: s, spec: spec, tenant: tenant, carry: IdentitySpec(spec)}, nil
}

// Spec returns the stream's scan flavor.
func (st *Stream) Spec() Spec { return st.spec }

// Push runs one chunk through the fused batch path, seeded with the
// carry of all prior chunks, and returns the chunk's slice of the
// overall scan — exactly what a one-shot scan of the concatenated
// chunks would contain at these positions. ctx bounds this chunk like
// any SubmitCtx request. An empty chunk is a no-op. A non-empty result
// is arena-backed and owned by the caller (Put it when done).
//
// Any error — admission (ErrOverloaded), deadline, ErrShed,
// ErrInternal — fails the stream permanently and frees its state; the
// error is returned here and later calls get ErrStreamFailed.
func (st *Stream) Push(ctx context.Context, chunk []int64) ([]int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case streamClosed:
		return nil, ErrNoStream
	case streamFailed:
		return nil, fmt.Errorf("%w: %v", ErrStreamFailed, st.failErr)
	}
	if len(chunk) == 0 {
		return []int64{}, nil
	}
	res, err := st.srv.scanReq(ctx, request{
		spec:   st.spec,
		data:   chunk,
		tenant: st.tenant,
		seeded: true,
		carry:  st.carry,
	})
	if err != nil {
		st.failLocked(err)
		return nil, err
	}
	// New carry = fold of everything so far. The inclusive form reads
	// it off the last output; the exclusive form's last output stops
	// one element short, so fold the last input back in (with the
	// spec's own monoid — for user ops that is one more VM call, which
	// can fail on pathological data; a failed fold means the carry is
	// untrusted, so it fails the stream like any chunk error).
	last := res[len(res)-1]
	if st.spec.Kind == Exclusive {
		var ferr error
		last, ferr = CombineSpec(st.spec, &st.fr, last, chunk[len(chunk)-1])
		if ferr != nil {
			arena.PutInt64s(res)
			st.failLocked(ferr)
			return nil, ferr
		}
	}
	st.carry = last
	return res, nil
}

// Close ends the stream and returns the total: the fold of every
// element pushed (the identity if nothing was). Closing a failed
// stream returns ErrStreamFailed wrapping the original cause; closing
// twice returns ErrNoStream.
func (st *Stream) Close() (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case streamClosed:
		return 0, ErrNoStream
	case streamFailed:
		return 0, fmt.Errorf("%w: %v", ErrStreamFailed, st.failErr)
	}
	st.state = streamClosed
	st.srv.stats.streamsClosed.Add(1)
	st.srv.stats.streamsActive.Add(-1)
	return st.carry, nil
}

// Abort fails an open stream without running anything — the teardown
// path for dropped connections. Safe on any state; only an open stream
// changes state (and is counted failed).
func (st *Stream) Abort(cause error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != streamOpen {
		return
	}
	if cause == nil {
		cause = ErrStreamFailed
	}
	st.failLocked(cause)
}

// Expire is Abort for the idle TTL, counted separately so leaked-vs-
// expired sessions are distinguishable in the ledger. Exported as part
// of the ScanStream interface the wire session table drives.
func (st *Stream) Expire() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != streamOpen {
		return
	}
	st.state = streamFailed
	st.failErr = ErrNoStream
	st.srv.stats.streamsExpired.Add(1)
	st.srv.stats.streamsActive.Add(-1)
}

// failLocked transitions open → failed exactly once. Callers hold st.mu
// and have verified state == streamOpen.
func (st *Stream) failLocked(cause error) {
	st.state = streamFailed
	st.failErr = cause
	st.srv.stats.streamsFailed.Add(1)
	st.srv.stats.streamsActive.Add(-1)
}

// Combine applies op's monoid operation — the carry stitch itself,
// shared with internal/cluster's cross-machine stitch.
func Combine(op Op, a, b int64) int64 {
	switch op {
	case OpMax:
		return max(a, b)
	case OpMin:
		return min(a, b)
	case OpMul:
		return a * b
	}
	return a + b
}
