package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/arena"
)

// FailoverClient fronts an ordered list of coordinator addresses —
// primary first, standbys after — and moves between them when the one
// it is talking to dies. One-shot scans simply re-dial and re-issue
// (they are idempotent); streamed scans re-attach to their session on
// the next coordinator by resume token, so a stream that was half done
// when the primary was killed finishes on the standby with bit-identical
// results instead of starting over. It is the client half of the
// cluster's control-plane failure model (DESIGN.md §9), driven under
// load by internal/cluster's TestFailoverGapUnderStreamedLoad.
//
// Concurrency: any number of goroutines may use one FailoverClient; they
// share the underlying multiplexed Client. A failure flips the shared
// connection once — whoever notices first re-dials, the rest pile onto
// the fresh connection.
type FailoverClient struct {
	addrs   []string
	proto   string
	maxLine int

	mu  sync.Mutex
	cli *Client
	idx int // addrs index cli is connected to

	resumed    atomic.Uint64
	failedOver atomic.Uint64
	firstAlt   atomic.Int64 // unixnano of the first success served by a non-primary
}

// DialFailover creates a failover client over addrs (tried in order,
// wrapping). The dial is lazy — the first request connects — so a
// standby-only fleet that is still coming up does not fail construction.
func DialFailover(proto string, maxLineBytes int, addrs ...string) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("serve: DialFailover needs at least one address")
	}
	return &FailoverClient{addrs: addrs, proto: proto, maxLine: maxLineBytes}, nil
}

// Resumed counts streams successfully re-attached by resume token.
func (f *FailoverClient) Resumed() uint64 { return f.resumed.Load() }

// FailedOver counts requests (one-shot or streamed) that completed
// against a non-primary address.
func (f *FailoverClient) FailedOver() uint64 { return f.failedOver.Load() }

// FirstFailoverAt returns when the first non-primary-served request
// completed (the zero time if none has): the "recovery achieved" edge
// of the failover gap metric.
func (f *FailoverClient) FirstFailoverAt() time.Time {
	ns := f.firstAlt.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Close tears down the current connection (if any).
func (f *FailoverClient) Close() {
	f.mu.Lock()
	cli := f.cli
	f.cli = nil
	f.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// current returns the shared live client, dialing through the address
// ring if there is none. Every address gets one dial attempt per call.
func (f *FailoverClient) current() (*Client, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cli != nil {
		return f.cli, f.idx, nil
	}
	var lastErr error
	for i := 0; i < len(f.addrs); i++ {
		idx := (f.idx + i) % len(f.addrs)
		cli, err := DialMaxLineProto(f.addrs[idx], f.maxLine, f.proto)
		if err != nil {
			lastErr = err
			continue
		}
		f.cli, f.idx = cli, idx
		return cli, idx, nil
	}
	return nil, 0, lastErr
}

// fail reports cli dead: if it is still the shared connection, drop it
// and advance the ring so the next dial starts at the following address.
func (f *FailoverClient) fail(cli *Client, idx int) {
	f.mu.Lock()
	if f.cli == cli {
		f.cli = nil
		f.idx = (idx + 1) % len(f.addrs)
	}
	f.mu.Unlock()
	cli.Close()
}

// noteSuccess records a completed request and, for non-primary serves,
// the failover bookkeeping.
func (f *FailoverClient) noteSuccess(idx int) {
	if idx != 0 {
		f.failedOver.Add(1)
		f.firstAlt.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// connFailure reports whether err is a connection-level failure (dial
// error, dead socket, torn frame) rather than a typed server answer. A
// typed answer is authoritative — the coordinator is alive and said no —
// so failing over on it would just re-ask a healthy fleet. ErrClosed IS
// a failover trigger: "shutting down" is exactly when the standby takes
// over.
func connFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, typed := range []error{
		ErrBadRequest, ErrOverloaded, ErrInternal, ErrShed,
		ErrNoStream, ErrStreamFailed, ErrStreamUnsupported, ErrShardFailed,
	} {
		if errors.Is(err, typed) {
			return false
		}
	}
	return true
}

// ScanCtx is Client.ScanCtx with failover: connection-level failures
// rotate to the next address and re-issue; typed server answers return
// as-is.
func (f *FailoverClient) ScanCtx(ctx context.Context, op, kind, dir string, data []int64) ([]int64, error) {
	var lastErr error
	for attempt := 0; attempt < 2*len(f.addrs); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cli, idx, err := f.current()
		if err != nil {
			lastErr = err
			continue
		}
		res, err := cli.ScanCtx(ctx, op, kind, dir, data)
		if err == nil {
			f.noteSuccess(idx)
			return res, nil
		}
		if !connFailure(err) {
			return nil, err
		}
		lastErr = err
		f.fail(cli, idx)
	}
	return nil, lastErr
}

// chunkPrefixLen is how many result elements the first k chunks of an
// n-element vector cover (the last chunk may be short).
func chunkPrefixLen(k, chunkElems, n int) int {
	return min(k*chunkElems, n)
}

// tryResume re-attaches to a resumable stream on whichever coordinator
// answers, returning the stream, the server's resume point, and the
// serving client/index.
func (f *FailoverClient) tryResume(ctx context.Context, token string, lastAcked uint64) (*ClientStream, uint64, *Client, int, error) {
	var lastErr error
	for attempt := 0; attempt < len(f.addrs)+1; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, 0, err
		}
		cli, idx, err := f.current()
		if err != nil {
			lastErr = err
			continue
		}
		s, from, err := cli.ResumeStream(ctx, token, lastAcked)
		if err == nil {
			return s, from, cli, idx, nil
		}
		if !connFailure(err) {
			return nil, 0, nil, 0, err
		}
		lastErr = err
		f.fail(cli, idx)
	}
	return nil, 0, nil, 0, lastErr
}

// StreamScan is Client.StreamScan with failover: when the serving
// coordinator dies mid-stream, the session is resumed by token on the
// next address — rolling back to the server's resume point when its
// replica lagged the acks the client already holds — and the result is
// bit-identical to an unfailed run. A stream whose token was never
// offered (old server) or whose record did not survive (no_stream on
// resume) restarts from the first chunk instead. Typed server failures
// return as-is.
func (f *FailoverClient) StreamScan(ctx context.Context, op, kind, dir string, data []int64, chunkElems int) ([]int64, error) {
	if chunkElems <= 0 {
		chunkElems = DefaultStreamChunk
	}
	if len(data) <= chunkElems {
		return f.ScanCtx(ctx, op, kind, dir, data)
	}
	out := arena.GetInt64s(len(data))[:0]
	fail := func(err error) ([]int64, error) {
		arena.PutInt64s(out)
		return nil, err
	}
	var (
		s       *ClientStream
		cli     *Client
		idx     int
		token   string
		acked   int // chunks whose responses we hold
		lastErr error
	)
	budget := 2*len(f.addrs) + 2
	for try := 0; try < budget; try++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if s == nil {
			// Fresh stream from chunk 0 (first try, or resume impossible).
			var err error
			cli, idx, err = f.current()
			if err != nil {
				lastErr = err
				continue
			}
			s, err = cli.OpenStream(ctx, op, kind, dir)
			if err != nil {
				if !connFailure(err) {
					return fail(err)
				}
				lastErr = err
				f.fail(cli, idx)
				continue
			}
			token = s.ResumeToken()
			acked = 0
			out = out[:0]
		}
		var err error
		out, acked, err = s.pump(ctx, data, chunkElems, acked, out)
		if err == nil {
			if _, cerr := s.Close(ctx); cerr == nil {
				f.noteSuccess(idx)
				return out, nil
			} else {
				err = cerr
			}
		}
		if !connFailure(err) {
			// Typed chunk/close failure: the server freed the session (and
			// its resume record), so the stream is unrecoverable by design.
			return fail(err)
		}
		lastErr = err
		f.fail(cli, idx)
		s = nil
		if token == "" {
			continue // not resumable: next try restarts from scratch
		}
		rs, from, rcli, ridx, rerr := f.tryResume(ctx, token, uint64(acked))
		if rerr != nil {
			if errors.Is(rerr, ErrNoStream) || errors.Is(rerr, ErrBadRequest) {
				// The record never made it to (or already left) this
				// coordinator; restart from scratch on the next try.
				continue
			}
			if !connFailure(rerr) {
				return fail(rerr)
			}
			lastErr = rerr
			continue
		}
		f.resumed.Add(1)
		s, cli, idx = rs, rcli, ridx
		// The server expects chunk `from` next (1-based): roll our
		// high-water mark and output back to match. from ≤ acked+1, so
		// this only ever rewinds (recomputation is bit-identical).
		acked = int(from) - 1
		out = out[:chunkPrefixLen(acked, chunkElems, len(data))]
	}
	return fail(lastErr)
}
