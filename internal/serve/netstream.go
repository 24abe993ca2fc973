package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Wire-level streaming sessions. connStreams is one connection's
// session table: stream_open registers a server-side Stream (the carry
// holder, stream.go) plus one worker goroutine, stream_chunk routes
// payloads to that worker in arrival order, and stream_close tears the
// session down, answering with the total. The table enforces the
// admission half of the failure model — a cap on open streams per
// connection and an idle TTL per stream — while the Stream itself
// enforces the carry half (any failed chunk kills the whole stream).
//
// Ownership: the read loop (handle) is the only caller of open/chunk/
// closeStream and of the final closeAll, so table mutations race only
// with workers removing their own dead sessions; cs.mu covers both.
// Chunks are handed to workers over a bounded buffered channel with a
// non-blocking send, so a flooding stream can never stall the read
// loop — but because a SKIPPED chunk would silently corrupt the carry,
// a full queue fails the stream rather than dropping the chunk.

// StreamWindow is the flow-control credit every stream-open ack
// advertises: how many chunk requests a client may hold in flight on
// one stream before blocking on acks. It equals the worker's mailbox
// depth, so a client honoring the window can never hit the
// full-mailbox stream failure — the credit IS the mailbox.
const StreamWindow = 16

// streamQueueDepth bounds how many chunks may wait on one stream's
// worker. Chunks serialize through the kernel anyway (chunk k+1 is
// seeded by chunk k's output), so a deep queue buys nothing but memory.
const streamQueueDepth = StreamWindow

// errConnTeardown is the Abort cause for streams still open when their
// connection dies (clean close, idle timeout, or a chaos conn.drop).
var errConnTeardown = errors.New("connection closed with stream open")

// streamMsg is one queued operation on a stream: a chunk, or (with
// closing set) the stream_close.
type streamMsg struct {
	id        uint64 // request id for the response
	timeoutMS int64
	data      []int64
	closing   bool
}

// netStream is one wire session: the carry-holding Stream plus the
// worker's mailbox. dead is guarded by connStreams.mu; once set, no
// further messages are enqueued and the worker drains what remains.
type netStream struct {
	sid  uint64
	st   ScanStream
	ch   chan streamMsg
	quit chan struct{}
	dead bool
}

// connStreams is the per-connection session table (see the file
// comment for the ownership rules).
type connStreams struct {
	ns     *NetServer
	codec  connCodec
	tenant string

	mu sync.Mutex
	m  map[uint64]*netStream
	wg sync.WaitGroup
}

func newConnStreams(ns *NetServer, codec connCodec, tenant string) *connStreams {
	return &connStreams{ns: ns, codec: codec, tenant: tenant, m: make(map[uint64]*netStream)}
}

// respond forwards to the connection's codec (responses ride the same
// writer as every other response on the connection).
func (cs *connStreams) respond(resp WireResponse) { cs.codec.respond(resp) }

// open handles stream_open: admission (streaming enabled, unique sid,
// under the per-connection cap), then a Stream plus worker. The ack
// echoes the request id.
func (cs *connStreams) open(req WireRequest) {
	fail := func(code, msg string) {
		cs.respond(WireResponse{ID: req.ID, Error: msg, Code: code})
	}
	if cs.ns.ncfg.MaxStreams < 0 {
		fail(CodeBadRequest, "streaming disabled on this server")
		return
	}
	if req.Elem != "" && req.Elem != ElemInt64 {
		// Float streams would need the carry tracked in the float domain
		// across chunks; not supported — chunk float data client-side and
		// map each chunk, or use int64 streams.
		fail(CodeBadRequest, fmt.Sprintf("streaming supports int64 elements only, not %q", req.Elem))
		return
	}
	spec, err := ParseSpec(req.Op, req.Kind, req.Dir)
	if err != nil {
		fail(codeForError(err), err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = cs.tenant
	}
	cs.mu.Lock()
	if _, dup := cs.m[req.Stream]; dup {
		cs.mu.Unlock()
		fail(CodeBadRequest, fmt.Sprintf("stream %d already open on this connection", req.Stream))
		return
	}
	if len(cs.m) >= cs.ns.ncfg.MaxStreams {
		cs.mu.Unlock()
		fail(CodeOverloaded, fmt.Sprintf("per-connection stream cap (%d) reached", cs.ns.ncfg.MaxStreams))
		return
	}
	st, err := cs.ns.be.OpenScanStream(spec, tenant)
	if err != nil {
		cs.mu.Unlock()
		fail(codeForError(err), err.Error())
		return
	}
	sess := &netStream{
		sid:  req.Stream,
		st:   st,
		ch:   make(chan streamMsg, streamQueueDepth),
		quit: make(chan struct{}),
	}
	cs.m[req.Stream] = sess
	cs.wg.Add(1)
	go cs.run(sess)
	cs.mu.Unlock()
	ack := WireResponse{ID: req.ID, Window: StreamWindow}
	if ts, ok := st.(TokenStream); ok {
		ack.Resume = ts.ResumeToken()
	}
	cs.respond(ack)
}

// resume handles stream_resume: the same admission as open (cap, unique
// sid), but the session comes from the backend's resume table instead
// of a fresh open. The ack carries resumeFrom — the 1-based index of
// the next chunk the server expects — so the client knows how far to
// rewind (resumeFrom ≤ lastAcked+1; strictly smaller when a standby's
// replica lagged the dead primary's acks).
func (cs *connStreams) resume(req WireRequest) {
	fail := func(code, msg string) {
		cs.respond(WireResponse{ID: req.ID, Error: msg, Code: code})
	}
	if cs.ns.ncfg.MaxStreams < 0 {
		fail(CodeBadRequest, "streaming disabled on this server")
		return
	}
	rb, ok := cs.ns.be.(StreamResumer)
	if !ok {
		// no_stream (not bad_request): the client's recovery — restart
		// the stream from the first chunk — is exactly the no_stream one.
		fail(CodeNoStream, "backend does not support stream resume")
		return
	}
	// No tenant handling: the resumed session keeps the tenant recorded
	// at open time.
	cs.mu.Lock()
	if _, dup := cs.m[req.Stream]; dup {
		cs.mu.Unlock()
		fail(CodeBadRequest, fmt.Sprintf("stream %d already open on this connection", req.Stream))
		return
	}
	if len(cs.m) >= cs.ns.ncfg.MaxStreams {
		cs.mu.Unlock()
		fail(CodeOverloaded, fmt.Sprintf("per-connection stream cap (%d) reached", cs.ns.ncfg.MaxStreams))
		return
	}
	st, from, err := rb.ResumeScanStream(req.Resume, req.Seq)
	if err != nil {
		cs.mu.Unlock()
		fail(codeForError(err), err.Error())
		return
	}
	sess := &netStream{
		sid:  req.Stream,
		st:   st,
		ch:   make(chan streamMsg, streamQueueDepth),
		quit: make(chan struct{}),
	}
	cs.m[req.Stream] = sess
	cs.wg.Add(1)
	go cs.run(sess)
	cs.mu.Unlock()
	cs.respond(WireResponse{ID: req.ID, Resume: req.Resume, Seq: &from, Window: StreamWindow})
}

// chunk handles stream_chunk: the response-size gate (a chunk's result
// must fit the line budget like any other response), then an ordered
// non-blocking handoff to the stream's worker.
func (cs *connStreams) chunk(req WireRequest) {
	if worst := cs.codec.worstResp(len(req.Data)); worst > cs.ns.ncfg.MaxLineBytes {
		// Refusing the chunk but continuing the stream would corrupt
		// the carry, so an oversized chunk fails the stream.
		releaseData(req.Data)
		cs.kill(req.Stream)
		cs.respond(WireResponse{
			ID: req.ID,
			Error: fmt.Sprintf("worst-case chunk response (%d bytes for %d elements) exceeds the %d-byte line budget; use smaller chunks",
				worst, len(req.Data), cs.ns.ncfg.MaxLineBytes),
			Code: CodeTooLarge,
		})
		return
	}
	cs.dispatch(req, streamMsg{id: req.ID, timeoutMS: req.TimeoutMS, data: req.Data})
}

// closeStream handles stream_close. The close rides the same ordered
// mailbox as chunks, so it lands after everything already queued.
func (cs *connStreams) closeStream(req WireRequest) {
	cs.dispatch(req, streamMsg{id: req.ID, closing: true})
}

// dispatch enqueues a message on its stream's worker. Unknown or dead
// streams answer no_stream; a full mailbox fails the stream (a dropped
// chunk would corrupt the carry — see the file comment).
func (cs *connStreams) dispatch(req WireRequest, msg streamMsg) {
	cs.mu.Lock()
	sess := cs.m[req.Stream]
	if sess == nil || sess.dead {
		cs.mu.Unlock()
		releaseData(msg.data)
		cs.respond(WireResponse{ID: req.ID, Error: ErrNoStream.Error(), Code: CodeNoStream})
		return
	}
	select {
	case sess.ch <- msg:
		cs.mu.Unlock()
	default:
		sess.dead = true
		delete(cs.m, sess.sid)
		cs.mu.Unlock()
		close(sess.quit) // worker tears down and drains the mailbox
		releaseData(msg.data)
		cs.respond(WireResponse{
			ID:    req.ID,
			Error: fmt.Sprintf("stream %d chunk queue full (%d pending); stream failed", req.Stream, streamQueueDepth),
			Code:  CodeOverloaded,
		})
	}
}

// kill marks a stream dead and signals its worker to tear down; no-op
// for unknown streams.
func (cs *connStreams) kill(sid uint64) {
	cs.mu.Lock()
	sess := cs.m[sid]
	if sess != nil && !sess.dead {
		sess.dead = true
		delete(cs.m, sid)
	} else {
		sess = nil
	}
	cs.mu.Unlock()
	if sess != nil {
		close(sess.quit)
	}
}

// remove is a worker dropping its own (now terminal) session from the
// table. Idempotent against a concurrent kill/closeAll.
func (cs *connStreams) remove(sess *netStream) {
	cs.mu.Lock()
	sess.dead = true
	delete(cs.m, sess.sid)
	cs.mu.Unlock()
}

// closeAll tears down every session at connection end: whatever killed
// the connection (clean close, idle timeout, chaos conn.drop), no
// stream state survives it. Runs on the read-loop goroutine after the
// loop has exited, so no new messages can race the teardown.
func (cs *connStreams) closeAll() {
	cs.mu.Lock()
	var doomed []*netStream
	for sid, sess := range cs.m {
		if !sess.dead {
			sess.dead = true
			doomed = append(doomed, sess)
		}
		delete(cs.m, sid)
	}
	cs.mu.Unlock()
	for _, sess := range doomed {
		close(sess.quit)
	}
	cs.wg.Wait()
}

// run is one stream's worker: it serializes the stream's operations
// (chunk k+1's carry is chunk k's output), owns the idle TTL, and on
// any terminal event — close, chunk failure, expiry, teardown — frees
// the session and drains the mailbox so every enqueued message still
// gets a response.
func (cs *connStreams) run(sess *netStream) {
	defer cs.wg.Done()
	ttl := cs.ns.ncfg.StreamIdleTTL
	var timer *time.Timer
	var expired <-chan time.Time
	if ttl > 0 {
		timer = time.NewTimer(ttl)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		// A closed quit wins over queued work: the connection is gone,
		// so executing more chunks buys nothing.
		select {
		case <-sess.quit:
			sess.st.Abort(errConnTeardown)
			cs.drain(sess, CodeStreamFailed, ErrStreamFailed.Error())
			return
		default:
		}
		select {
		case <-sess.quit:
			sess.st.Abort(errConnTeardown)
			cs.drain(sess, CodeStreamFailed, ErrStreamFailed.Error())
			return
		case <-expired:
			cs.remove(sess)
			sess.st.Expire()
			cs.drain(sess, CodeNoStream, ErrNoStream.Error())
			return
		case m := <-sess.ch:
			if timer != nil {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(ttl)
			}
			if m.closing {
				total, err := sess.st.Close()
				cs.remove(sess)
				if err != nil {
					cs.respond(WireResponse{ID: m.id, Error: err.Error(), Code: codeForError(err)})
				} else {
					cs.respond(WireResponse{ID: m.id, Total: &total})
				}
				cs.drain(sess, CodeNoStream, ErrNoStream.Error())
				return
			}
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if m.timeoutMS > 0 {
				ctx, cancel = context.WithTimeout(ctx, time.Duration(m.timeoutMS)*time.Millisecond)
			}
			res, err := sess.st.Push(ctx, m.data)
			// Push has consumed the chunk (it reads the carry off res
			// before returning), so its buffer circulates now.
			releaseData(m.data)
			cancel()
			if err != nil {
				// The failing chunk reports the underlying typed error;
				// the stream is dead (Push freed it) so anything still
				// queued gets stream_failed.
				cs.remove(sess)
				cs.respond(WireResponse{ID: m.id, Error: err.Error(), Code: codeForError(err)})
				cs.drain(sess, CodeStreamFailed, ErrStreamFailed.Error())
				return
			}
			cs.respond(WireResponse{ID: m.id, Result: res})
			releaseData(res)
		}
	}
}

// drain answers every message still in a dead session's mailbox. The
// session was removed from the table first, so no new sends race this.
func (cs *connStreams) drain(sess *netStream, code, msg string) {
	for {
		select {
		case m := <-sess.ch:
			releaseData(m.data)
			cs.respond(WireResponse{ID: m.id, Error: msg, Code: code})
		default:
			return
		}
	}
}
