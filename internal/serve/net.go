package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/fault"
)

// releaseData returns a wire-decoded (or kernel-produced) int64 buffer
// to the arena. Non-empty decoded vectors and scan results are always
// arena-backed (Int64Vec.UnmarshalJSON, Server.Scan); empty ones are
// never pooled and are skipped.
func releaseData(data []int64) {
	if len(data) > 0 {
		arena.PutInt64s(data)
	}
}

// DefaultMaxLineBytes is the default cap on one JSON line in either
// direction: NetConfig.MaxLineBytes server-side, and the baseline for
// the client's read buffer (Dial adds headroom on top). Vectors whose
// request or worst-case RESPONSE would exceed the budget must use a
// streaming session instead of a one-shot scan.
const DefaultMaxLineBytes = 16 << 20

// NetConfig tunes the TCP front end's own failure surface — everything
// that can go wrong between a socket and the batch server. The zero
// value is usable: every field has a default applied by Listen.
type NetConfig struct {
	// MaxLineBytes bounds one JSON line on the wire, in BOTH
	// directions. A longer request line gets a structured "too_large"
	// error response (matched to the request id when recognizable) and
	// the connection is closed. A well-formed request whose worst-case
	// response would exceed the same budget (prefix sums have more
	// digits than their inputs) is refused with "too_large" — the
	// connection survives, and a streaming session is the escape hatch.
	// Default DefaultMaxLineBytes (16 MiB).
	MaxLineBytes int
	// MaxConns caps simultaneously-open client connections. A
	// connection beyond the cap receives one "overloaded" error line
	// and is closed. 0 means unlimited (default).
	MaxConns int
	// PerConnInflight caps one connection's unanswered requests. A
	// request over the cap is answered immediately with "overloaded"
	// (retryable) instead of being admitted — one flooding connection
	// exhausts its own window, not the shared queue. A request stops
	// counting when the connection's writer takes up its answer, so a
	// client that never reads cannot grow a pile of unwritten scan
	// answers past the cap (its other answers, refusals included, wait
	// for the writer once maxQueued are queued). 0 = unlimited.
	PerConnInflight int
	// IdleTimeout closes a connection that sends no byte for this
	// long. In-flight responses still drain. Default 0 (no timeout).
	IdleTimeout time.Duration
	// WriteTimeout bounds each answer's socket writes. The connection's
	// writer flushes a whole drained queue at once but re-arms the
	// deadline per answer that reaches the socket, so one client that
	// stops reading cannot park the writer, and the answers queued
	// behind it, forever: past the deadline the connection is closed and
	// the queue is recycled unwritten. Default 30s when zero; < 0
	// disables.
	WriteTimeout time.Duration
	// MaxStreams caps one connection's simultaneously-open streaming
	// scan sessions (each holds a carry and a worker goroutine). An
	// open over the cap is refused with "overloaded". Default 64; < 0
	// disables streaming on this server entirely.
	MaxStreams int
	// StreamIdleTTL expires a stream session that receives no chunk for
	// this long: its carry is freed and later chunks get "no_stream".
	// Keeps abandoned sessions from pinning state on long-lived
	// connections. Default 2 minutes; < 0 disables expiry.
	StreamIdleTTL time.Duration
	// Faults is the chaos hook for the connection-level points
	// (fault.ConnDrop, fault.PartialWrite). Usually the same *fault.Set
	// as Config.Faults. nil = chaos off.
	Faults *fault.Set
}

// withDefaults fills zero fields.
func (c NetConfig) withDefaults() NetConfig {
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = DefaultMaxLineBytes
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 64
	}
	if c.StreamIdleTTL == 0 {
		c.StreamIdleTTL = 2 * time.Minute
	}
	return c
}

// maxRespBytes is the worst-case encoded size of a result line for n
// elements: each int64 is at most 20 characters (sign included) plus a
// comma, and the {"id":...,"result":[...]} envelope plus newline stays
// under 48. The server refuses any scan (one-shot or chunk) whose
// worst case exceeds MaxLineBytes, so a response can never outgrow the
// line budget a client's reader is sized for.
func maxRespBytes(n int) int { return 48 + 21*n }

// NetServer is the TCP front end: a thin newline-delimited-JSON skin
// over an in-process Server, so remote clients' requests fuse into the
// same batches as everyone else's. cmd/scansd is a flag-parsing shell
// around this type; tests start it in-process on a loopback port.
//
// Each connection is one fairness tenant by default (its remote
// address), so the batch server's weighted round-robin keeps a
// flooding connection inside its fair share of every batch.
type NetServer struct {
	be Backend
	// srv is be when be is an in-process *Server (nil otherwise): its
	// one-shot scans are answered from the batch pipeline through a
	// completion hook, and Stats reads its counters.
	srv  *Server
	ncfg NetConfig
	ln   net.Listener

	fpDrop        *fault.Point
	fpPartial     *fault.Point
	fpWireTrunc   *fault.Point
	fpWireCorrupt *fault.Point

	nconns atomic.Int64

	// Writer counters summed over connections (Stats.WireFrames and
	// Stats.WireFlushes).
	wireFrames  atomic.Uint64
	wireFlushes atomic.Uint64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// Listen binds addr (e.g. "127.0.0.1:0") with default network limits.
func Listen(addr string, cfg Config) (*NetServer, error) {
	return ListenNet(addr, cfg, NetConfig{})
}

// ListenNet binds addr and starts accepting connections over the given
// batching and network configs, fronting a fresh in-process Server.
func ListenNet(addr string, cfg Config, ncfg NetConfig) (*NetServer, error) {
	srv := New(cfg)
	ns, err := ListenBackend(addr, srv, ncfg)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return ns, nil
}

// ListenBackend binds addr and serves the wire protocol over an
// arbitrary Backend — an in-process Server or a cluster Coordinator.
// Closing the NetServer closes the backend.
func ListenBackend(addr string, be Backend, ncfg NetConfig) (*NetServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ncfg = ncfg.withDefaults()
	ns := &NetServer{
		be:            be,
		ncfg:          ncfg,
		ln:            ln,
		fpDrop:        ncfg.Faults.Point(fault.ConnDrop),
		fpPartial:     ncfg.Faults.Point(fault.PartialWrite),
		fpWireTrunc:   ncfg.Faults.Point(fault.WireTruncate),
		fpWireCorrupt: ncfg.Faults.Point(fault.WireCorruptLen),
		conns:         make(map[net.Conn]struct{}),
		done:          make(chan struct{}),
	}
	ns.srv, _ = be.(*Server)
	go ns.acceptLoop()
	return ns, nil
}

// Addr returns the bound listen address (useful with port 0).
func (ns *NetServer) Addr() string { return ns.ln.Addr().String() }

// Stats snapshots the underlying batch server's counters plus the wire
// writer's own (WireFrames, WireFlushes). For a non-Server backend
// (ListenBackend) only the writer's counters are filled; ask the
// backend for its own ledger instead.
func (ns *NetServer) Stats() Stats {
	var st Stats
	if ns.srv != nil {
		st = ns.srv.Stats()
	}
	st.WireFrames = ns.wireFrames.Load()
	st.WireFlushes = ns.wireFlushes.Load()
	return st
}

// Close stops accepting, closes every live connection, and drains the
// backend. In-flight requests whose futures were already accepted still
// execute; their responses are lost if their connection is gone, which
// is the standard TCP shutdown contract.
func (ns *NetServer) Close() {
	ns.ln.Close()
	ns.mu.Lock()
	for c := range ns.conns {
		c.Close()
	}
	ns.mu.Unlock()
	<-ns.done
	ns.be.Close()
}

// Kill is the chaos stand-in for kill -9: it slams the listener and
// every live connection and returns immediately — no drain, no waiting,
// and crucially no backend Close, so a coordinator backend's session
// records keep feeding its replication log until the process truly
// dies. Safe to call from within a request handler (Close would
// deadlock there: it waits for the very goroutine calling it). A later
// Close remains valid and performs the graceful half.
func (ns *NetServer) Kill() {
	ns.ln.Close()
	ns.mu.Lock()
	for c := range ns.conns {
		c.Close()
	}
	ns.mu.Unlock()
}

// acceptLoop accepts until the listener closes, enforcing MaxConns: a
// connection over the cap gets one structured "overloaded" line and an
// immediate close, so a well-behaved client knows to back off rather
// than seeing a silent RST.
func (ns *NetServer) acceptLoop() {
	defer close(ns.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			return
		}
		if max := ns.ncfg.MaxConns; max > 0 && ns.nconns.Load() >= int64(max) {
			line, _ := json.Marshal(WireResponse{
				Error: fmt.Sprintf("server at connection limit (%d)", max),
				Code:  CodeOverloaded,
			})
			if ns.ncfg.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(ns.ncfg.WriteTimeout))
			}
			conn.Write(append(line, '\n'))
			conn.Close()
			continue
		}
		ns.nconns.Add(1)
		ns.mu.Lock()
		ns.conns[conn] = struct{}{}
		ns.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns.handle(conn)
			ns.mu.Lock()
			delete(ns.conns, conn)
			ns.mu.Unlock()
			ns.nconns.Add(-1)
		}()
	}
}

// errLineTooLong reports a request line over MaxLineBytes; readLine
// returns it together with the line's retained prefix.
var errLineTooLong = errors.New("line exceeds maximum length")

// readLine reads one newline-terminated line of at most max bytes from
// r. An over-long line is consumed to its newline and reported as
// (prefix, errLineTooLong) where prefix is the first chunk of the line
// — enough for extractID to recover the request id. A final line
// without a trailing newline (client half-closed) is returned as a
// line, matching bufio.Scanner's behavior.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	trim := func(line []byte) []byte {
		if n := len(line); n > 0 && line[n-1] == '\r' {
			return line[:n-1]
		}
		return line
	}
	// idPrefix keeps the head of an over-long line, enough for
	// extractID to recover the request id for the error response.
	idPrefix := func(line []byte) []byte {
		const keep = 1 << 10
		if len(line) > keep {
			return line[:keep]
		}
		return line
	}
	var buf []byte
	for {
		frag, err := r.ReadSlice('\n')
		switch {
		case err == nil:
			line := frag[:len(frag)-1]
			if buf != nil {
				line = append(buf, line...)
			}
			line = trim(line)
			if len(line) > max {
				return idPrefix(line), errLineTooLong
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			buf = append(buf, frag...)
			if len(buf) > max {
				// Over the limit with the newline still unseen: drain
				// the rest of the line so the stream stays parseable
				// for the error response, then report.
				prefix := idPrefix(buf)
				for {
					_, derr := r.ReadSlice('\n')
					if derr == nil {
						return prefix, errLineTooLong
					}
					if !errors.Is(derr, bufio.ErrBufferFull) {
						return prefix, derr
					}
				}
			}
		case errors.Is(err, io.EOF) && len(buf)+len(frag) > 0:
			line := append(buf, frag...)
			if len(line) > max {
				return idPrefix(line), errLineTooLong
			}
			return line, nil
		default:
			return nil, err
		}
	}
}

// connCodec abstracts one connection's wire encoding, selected by the
// negotiation preamble (see negotiate): the legacy newline-JSON codec
// or the binwire binary codec. The request-dispatch state machine in
// serveConn — spec parsing, admission, streams, ownership — is shared,
// and so is the writer (connWriter, which both codecs embed); only the
// byte encoding differs.
type connCodec interface {
	// readRequest blocks for the next request. Protocol-level failures
	// that keep the stream in sync (bad JSON, bad frame payload) are
	// answered and skipped internally; a returned error means the
	// connection is done (any error response was already sent).
	readRequest() (WireRequest, error)
	// respond queues one response for the connection's writer, first
	// waiting while maxQueued answers already wait for it: the read loop
	// and stream workers answer this way, so a peer that never reads
	// stalls them instead of growing the queue.
	respond(WireResponse)
	// respondRelease queues an answer without ever waiting, for the
	// completion hooks executors run: an executor never waits on a
	// client. release runs once the writer takes the answer up, just
	// before its first byte goes to the socket; until then the answer
	// still holds whatever release frees (a PerConnInflight slot), which
	// is what bounds these answers for a peer that never reads.
	respondRelease(resp WireResponse, release func())
	// worstResp / worstRespFloat bound the encoded size of an n-element
	// result, for the response-budget admission gate. The JSON codec's
	// bounds are digit worst cases; the binary codec's are exact.
	worstResp(n int) int
	worstRespFloat(n int) int
	// finish drains the writer and stops it. Called after every
	// responder (pending requests, stream workers) has finished.
	finish()
}

// negotiate routes a new connection to its codec by peeking one byte:
// the binwire Magic's leading NUL can never begin a JSON line, so a NUL
// means a binary client (consume the preamble, echo it as the ack);
// anything else is the legacy JSON protocol, byte-untouched. The peek
// runs under the same idle deadline as any other read.
func (ns *NetServer) negotiate(conn net.Conn, r *bufio.Reader) (bin bool, err error) {
	if ns.ncfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(ns.ncfg.IdleTimeout))
	}
	first, err := r.Peek(1)
	if err != nil {
		return false, err
	}
	if first[0] != binwire.Magic[0] {
		return false, nil
	}
	buf := make([]byte, len(binwire.Magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return false, err
	}
	if string(buf) != binwire.Magic {
		return false, fmt.Errorf("bad negotiation preamble %q", buf)
	}
	if ns.ncfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(ns.ncfg.WriteTimeout))
	}
	if _, err := conn.Write([]byte(binwire.Magic)); err != nil {
		return false, err
	}
	return true, nil
}

// handle negotiates one connection's codec and serves it.
func (ns *NetServer) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	bin, err := ns.negotiate(conn, r)
	if err != nil {
		return
	}
	w := ns.answerWriter(conn, bin)
	go w.run()
	var codec connCodec
	if bin {
		codec = &binConn{connWriter: w, ns: ns, r: r}
	} else {
		codec = &jsonConn{connWriter: w, ns: ns, r: r}
	}
	ns.serveConn(conn, codec)
}

// jsonConn is the legacy newline-JSON codec: one request line in, one
// response line out through the connection's writer.
type jsonConn struct {
	*connWriter
	ns *NetServer
	r  *bufio.Reader
}

func (j *jsonConn) worstResp(n int) int      { return maxRespBytes(n) }
func (j *jsonConn) worstRespFloat(n int) int { return maxRespBytesFloat(n) }

// encodeLine renders one response as a newline-terminated JSON line in
// an arena buffer. Success responses take the strconv fast path —
// byte-identical to encoding/json for these shapes (wire_fast_test.go),
// with zero steady-state allocation; the rest go through json.Marshal.
func encodeLine(resp WireResponse) []byte {
	buf := arena.GetBytes(fastRespSize(resp) + 1)[:0]
	if out, ok := appendWireResponse(buf, resp); ok {
		return append(out, '\n')
	}
	arena.PutBytes(buf)
	line, err := json.Marshal(resp)
	if err != nil {
		// Keep the ID: an unmatchable error line would leave the
		// client's round trip waiting forever.
		line = fmt.Appendf(nil, `{"id":%d,"error":"response marshal failure","code":"internal"}`, resp.ID)
	}
	buf = arena.GetBytes(len(line) + 1)[:0]
	return append(append(buf, line...), '\n')
}

// outFrame is one encoded arena-backed answer queued for the writer,
// with the hook the writer runs as it takes the answer up.
type outFrame struct {
	buf     []byte
	release func()
}

// maxQueued is how many frames may wait for a connection's writer
// before a sender that waits for room (respond, a client's request)
// waits; respondRelease never waits.
const maxQueued = 64

// connWriter is a connection's single writer, at both ends: a
// NetServer's answers on either codec and a Client's requests go
// through one. Senders encode their frame into an arena buffer and
// append it to a mutex-guarded queue; none of them writes to the
// socket. Completion hooks (respondRelease) never wait, so an executor
// never waits on a client; every other sender waits while maxQueued
// frames are queued, so a peer that never reads stalls the senders
// (the read loop, the stream workers, a client's callers) rather than
// growing the queue. One goroutine (run) drains the whole queue at a
// time: it runs each frame's release hook just before writing that
// frame, writes the frames, and flushes once per drained queue, so the
// answers a fused batch resolves for one connection, or the requests
// a client's callers send together, leave in one write. The chaos
// points stay per frame. After a write error or a chaos kill the writer
// closes the connection and keeps draining and recycling buffers until
// finish, so senders never notice a dead connection and the arena
// ledger still closes; the peer's read side reports the failure.
type connWriter struct {
	conn net.Conn
	bin  bool // respond encodes binwire frames, else JSON lines
	// timeout bounds each frame's socket writes (<= 0: none). The chaos
	// points are nil where they do not apply: on a client, and trunc and
	// corrupt on a JSON connection.
	timeout                       time.Duration
	fpPartial, fpTrunc, fpCorrupt *fault.Point
	// frames and flushes count the frames that reached the socket and
	// the flushes that carried them.
	frames, flushes *atomic.Uint64

	mu     sync.Mutex
	q      []outFrame
	closed bool
	room   sync.Cond // on mu; signaled each time the writer takes up the queue
	// kick (capacity 1) wakes the writer; a sender sends only when it
	// finds the queue empty, since any later one rides the same wake-up.
	kick chan struct{}
	done chan struct{} // closed when run returns
}

func newConnWriter(conn net.Conn, frames, flushes *atomic.Uint64) *connWriter {
	w := &connWriter{conn: conn, frames: frames, flushes: flushes,
		kick: make(chan struct{}, 1), done: make(chan struct{})}
	w.room.L = &w.mu
	return w
}

// answerWriter is the writer for one server connection, counting into
// the server's WireFrames/WireFlushes.
func (ns *NetServer) answerWriter(conn net.Conn, bin bool) *connWriter {
	w := newConnWriter(conn, &ns.wireFrames, &ns.wireFlushes)
	w.bin = bin
	w.timeout = ns.ncfg.WriteTimeout
	w.fpPartial = ns.fpPartial
	if bin {
		w.fpTrunc, w.fpCorrupt = ns.fpWireTrunc, ns.fpWireCorrupt
	}
	return w
}

func (w *connWriter) respond(resp WireResponse) { w.send(w.encode(resp), nil, true) }

func (w *connWriter) respondRelease(resp WireResponse, release func()) {
	w.send(w.encode(resp), release, false)
}

// encode renders one answer in the connection's codec.
func (w *connWriter) encode(resp WireResponse) []byte {
	if w.bin {
		return encodeFrame(resp)
	}
	return encodeLine(resp)
}

// send queues one encoded arena frame and the hook to run as the
// writer takes it up, first waiting for room when wait is set. After
// finish it recycles the frame unsent, runs the hook, and reports
// net.ErrClosed.
func (w *connWriter) send(frame []byte, release func(), wait bool) error {
	w.mu.Lock()
	for wait && len(w.q) >= maxQueued && !w.closed {
		w.room.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		if release != nil {
			release()
		}
		arena.PutBytes(frame)
		return net.ErrClosed
	}
	wake := len(w.q) == 0
	w.q = append(w.q, outFrame{frame, release})
	w.mu.Unlock()
	if wake {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// finish marks the queue closed, wakes any sender waiting for room, and
// waits for the writer to drain the queue. A NetServer calls it after
// every responder is done, so nothing is queued behind it; a Client
// calls it once its connection is dead, and later sends fail.
func (w *connWriter) finish() {
	w.mu.Lock()
	w.closed = true
	w.room.Broadcast()
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
}

// run is the writer goroutine: it swaps out the whole queue on each
// wake-up and writes it (see connWriter), until finish.
//
// Each wake-up yields once before the swap. The sender that woke the
// writer put it in its own P's next-run slot, so without the yield the
// writer runs the moment that sender parks: before the other senders
// woken by the same event (one read of a response batch, one fused
// batch resolved) have queued, and it drains a single frame.
func (w *connWriter) run() {
	defer close(w.done)
	bw := bufio.NewWriterSize(w.conn, 64<<10)
	var batch []outFrame
	dead := false
	for {
		<-w.kick
		runtime.Gosched()
		w.mu.Lock()
		batch, w.q = w.q, batch[:0]
		closed := w.closed
		w.room.Broadcast()
		w.mu.Unlock()
		if len(batch) > 0 {
			dead = w.write(bw, batch, dead)
			clear(batch)
		}
		if closed {
			return
		}
	}
}

// write writes one drained queue and flushes it once, recycling every
// buffer; on a dead connection it only runs the release hooks and
// recycles. It reports whether the connection is dead afterwards.
//
// The write deadline is re-armed before each frame that spills the
// buffer to the socket and before the final flush, so each frame's
// socket writes get their own timeout budget however long the drained
// queue is.
func (w *connWriter) write(bw *bufio.Writer, batch []outFrame, dead bool) bool {
	frames := 0
	for _, f := range batch {
		if f.release != nil {
			f.release()
		}
		if !dead {
			if len(f.buf) > bw.Available() {
				w.armDeadline()
			}
			if dead = w.writeFrame(bw, f.buf); !dead {
				frames++
			}
		}
		arena.PutBytes(f.buf)
	}
	if frames > 0 {
		w.armDeadline()
		if err := bw.Flush(); err != nil {
			w.conn.Close()
			return true
		}
		w.frames.Add(uint64(frames))
		w.flushes.Add(1)
	}
	return dead
}

// armDeadline gives the socket writes that follow a fresh timeout.
func (w *connWriter) armDeadline() {
	if w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

// writeFrame buffers one frame, hosting the frame-level chaos points;
// it reports whether the connection died. A chaos kill flushes what it
// tore and closes the connection.
func (w *connWriter) writeFrame(bw *bufio.Writer, frame []byte) (dead bool) {
	switch {
	case w.fpCorrupt.Fire():
		// Chaos: flip bits in the length prefix, emit the damaged frame,
		// and kill the connection (the declared length now lies, so
		// leaving the conn open could strand the client mid-ReadFull
		// waiting for bytes that will never come).
		frame[0] ^= 0xA5
		frame[3] ^= 0x11
		bw.Write(frame)
	case w.fpTrunc.Fire() || w.fpPartial.Fire():
		// Chaos: tear the answer mid-write and kill the connection. The
		// client must treat the torn tail as a dead conn, never as a
		// response. wire.truncate is the binary analogue of
		// conn.partialwrite, which fires on both codecs.
		bw.Write(frame[:len(frame)/2])
	default:
		if _, err := bw.Write(frame); err == nil {
			return false
		}
	}
	bw.Flush()
	w.conn.Close()
	return true
}

func (j *jsonConn) readRequest() (WireRequest, error) {
	for {
		if j.ns.ncfg.IdleTimeout > 0 {
			j.conn.SetReadDeadline(time.Now().Add(j.ns.ncfg.IdleTimeout))
		}
		line, err := readLine(j.r, j.ns.ncfg.MaxLineBytes)
		if errors.Is(err, errLineTooLong) {
			j.respond(WireResponse{
				ID:    extractID(line),
				Error: fmt.Sprintf("request line exceeds %d bytes", j.ns.ncfg.MaxLineBytes),
				Code:  CodeTooLarge,
			})
			return WireRequest{}, err
		}
		if err != nil {
			return WireRequest{}, err
		}
		if len(line) == 0 {
			continue
		}
		req, err := unmarshalWireRequest(line)
		if err != nil {
			// A failed decode can still have populated Data (the error
			// came from a later field); its buffer goes back.
			releaseData(req.Data)
			j.respond(WireResponse{ID: extractID(line), Error: "bad json: " + err.Error(), Code: CodeBadJSON})
			continue
		}
		return req, nil
	}
}

// serveConn reads requests off one negotiated connection, admits each
// to the backend, and lets the answers find their own way back: a
// one-shot scan's answer is encoded and queued for the connection's
// writer by whoever resolves it (see admitScan), so a slow batch never
// blocks later requests from being submitted (that is the whole point
// of the service). Protocol errors — malformed input, oversized
// requests, unknown specs, admission rejections — are answered with a
// structured WireResponse carrying an error code (and the request id
// whenever it is recoverable) rather than a silent close.
//
// Stream messages (type stream_open/stream_chunk/stream_close) are
// routed to the connection's session table; each open stream has one
// worker goroutine serializing its chunks (chunk k+1's carry is chunk
// k's output). Whatever ends the connection — clean close, idle
// timeout, a chaos conn.drop — the deferred closeAll tears every
// session down, so dropped connections leak no stream state.
func (ns *NetServer) serveConn(conn net.Conn, codec connCodec) {
	var (
		pending  sync.WaitGroup
		inflight atomic.Int64
	)
	// LIFO teardown: stream workers (closeAll), then pending scans
	// (pending.Wait), and only then the codec's writer — every responder
	// is done before finish drains the queue and stops.
	defer codec.finish()
	defer pending.Wait()
	tenant := conn.RemoteAddr().String()
	respond := codec.respond
	// A request's slot is freed by the codec's writer as it takes up the
	// answer: before the client can see it, so a client holding its
	// answer is never refused by its own finished request, yet after the
	// answer is off this goroutine's hands, so answers a non-reading
	// client leaves unwritten stay bounded by the cap.
	releaseSlot := func() { inflight.Add(-1) }
	// answer is the completion hook of every scan this connection
	// admits. It recycles the payload (the future is resolved, so
	// nothing reads it any more), queues the encoded answer on the
	// writer, and recycles the result. It runs wherever the outcome
	// lands — an executor, the batcher, a scan goroutine. The closures
	// here are made once per connection, so the request path allocates
	// none.
	answer := func(f *future) {
		releaseData(f.data)
		codec.respondRelease(scanAnswer(f), releaseSlot)
		releaseData(f.res)
		pending.Done()
	}
	cs := newConnStreams(ns, codec, tenant)
	defer cs.closeAll()
	for {
		req, err := codec.readRequest()
		if err != nil {
			return
		}
		if ns.fpDrop.Fire() {
			// Chaos: the network "fails" between two requests.
			releaseData(req.Data)
			return
		}
		switch req.Type {
		case "":
			// One-shot scan: falls through to the submit path below.
		case "stream_open":
			releaseData(req.Data) // opens carry no payload
			cs.open(req)
			continue
		case "stream_chunk":
			cs.chunk(req) // ownership of req.Data passes to the session
			continue
		case "stream_close":
			releaseData(req.Data)
			cs.closeStream(req)
			continue
		case "stream_resume":
			releaseData(req.Data)
			cs.resume(req)
			continue
		case "register_op":
			// Combine-op registration: a control message, answered inline
			// (validation property-tests the program, which is bounded by
			// the VM step budget). The ack carries the content hash the
			// tenant can pin scans with.
			releaseData(req.Data)
			t := req.Tenant
			if t == "" {
				t = tenant
			}
			if or, ok := ns.be.(OpRegistrar); ok {
				hash, rerr := or.RegisterScanOp(t, req.Name, req.Source)
				if rerr != nil {
					respond(WireResponse{ID: req.ID, Error: rerr.Error(), Code: codeForError(rerr)})
				} else {
					respond(WireResponse{ID: req.ID, OpHash: hash})
				}
			} else {
				respond(WireResponse{ID: req.ID, Error: "backend does not accept combine-op registrations", Code: CodeBadRequest})
			}
			continue
		case "heartbeat":
			releaseData(req.Data)
			if ann, ok := ns.be.(Announcer); ok {
				if err := ann.Announce(req.Addr, req.Weight, req.WProto, req.MaxLine); err != nil {
					respond(WireResponse{ID: req.ID, Error: err.Error(), Code: codeForError(err)})
				} else {
					respond(WireResponse{ID: req.ID})
				}
			} else {
				respond(WireResponse{ID: req.ID, Error: "backend does not accept worker announcements", Code: CodeBadRequest})
			}
			continue
		default:
			releaseData(req.Data)
			respond(WireResponse{ID: req.ID, Error: fmt.Sprintf("unknown message type %q", req.Type), Code: CodeBadRequest})
			continue
		}
		spec, err := ParseSpec(req.Op, req.Kind, req.Dir)
		if err != nil {
			releaseData(req.Data)
			respond(WireResponse{ID: req.ID, Error: err.Error(), Code: codeForError(err)})
			continue
		}
		if spec.Op == OpUser {
			// Carry the caller's pin to admission; resolution verifies it
			// there (code "op_hash" on mismatch).
			spec.Hash = req.OpHash
		}
		var isFloat bool
		switch req.Elem {
		case "", ElemInt64:
		case ElemFloat64:
			isFloat = true
		default:
			releaseData(req.Data)
			respond(WireResponse{ID: req.ID, Error: fmt.Sprintf("unknown elem %q", req.Elem), Code: CodeBadRequest})
			continue
		}
		if isFloat && spec.Op == OpUser {
			releaseData(req.Data)
			respond(WireResponse{ID: req.ID, Error: "user combine ops run over int64 words only", Code: CodeBadRequest})
			continue
		}
		worst := codec.worstResp(len(req.Data))
		if isFloat {
			worst = codec.worstRespFloat(len(req.FData))
		}
		if worst > ns.ncfg.MaxLineBytes {
			// The request line fit, but its RESPONSE might not (prefix
			// sums have more digits than inputs). Refuse rather than
			// blow up the client's line reader; unlike an oversized
			// request line the stream is still in sync, so the
			// connection survives. Streaming is the escape hatch.
			releaseData(req.Data)
			respond(WireResponse{
				ID: req.ID,
				Error: fmt.Sprintf("worst-case response (%d bytes) exceeds the %d-byte line budget; use a streaming session",
					worst, ns.ncfg.MaxLineBytes),
				Code: CodeTooLarge,
			})
			continue
		}
		if limit := ns.ncfg.PerConnInflight; limit > 0 && inflight.Add(1) > int64(limit) {
			inflight.Add(-1)
			releaseData(req.Data)
			respond(WireResponse{
				ID:    req.ID,
				Error: fmt.Sprintf("per-connection in-flight cap (%d) exceeded", limit),
				Code:  CodeOverloaded,
			})
			continue
		} else if limit <= 0 {
			inflight.Add(1)
		}
		// The wire timeout is a deadline stamp, not a timer: the batcher
		// reads it at pick time (shedIfDead).
		var deadline time.Time
		if req.TimeoutMS > 0 {
			deadline = time.Now().Add(time.Duration(req.TimeoutMS) * time.Millisecond)
		}
		reqTenant := req.Tenant
		if reqTenant == "" {
			reqTenant = tenant
		}
		r := request{spec: spec, data: req.Data, tenant: reqTenant, deadline: deadline,
			hook: answer, tag: wireTag{id: req.ID, float: isFloat}}
		pending.Add(1)
		ns.admitScan(r, req.FData)
	}
}

// wireTag is what a one-shot scan's answer needs besides its outcome:
// the request id, and whether to map the result back to float64.
type wireTag struct {
	id    uint64
	float bool
}

// scanAnswer builds the response for a resolved scan.
func scanAnswer(f *future) WireResponse {
	id := f.tag.id
	switch {
	case f.err != nil:
		return WireResponse{ID: id, Error: f.err.Error(), Code: codeForError(f.err)}
	case f.tag.float:
		return WireResponse{ID: id, FResult: floatResults(f.spec.Op, f.res)}
	case f.res == nil:
		return WireResponse{ID: id, Result: []int64{}}
	}
	return WireResponse{ID: id, Result: f.res}
}

// resolve hands the outcome of a request served outside the batch
// pipeline to its hook, as a one-off future.
func (r request) resolve(res []int64, err error) {
	r.hook(&future{spec: r.spec, data: r.data, tag: r.tag, res: res, err: err})
}

// deadlineCtx is a context that expires at deadline (never, when zero).
func deadlineCtx(deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), deadline)
}

// admitScan admits one one-shot scan, whose r.hook receives the
// outcome exactly once; the hook owns r.data from then on (and fdata
// is the float payload that replaces it when r.tag.float). With an
// in-process *Server backend the scan is admitted with that hook and
// answered straight from the batch pipeline: no goroutine, no timer.
// Any other backend (a cluster coordinator, whose pieces block on the
// network anyway) runs a goroutine around its blocking Scan.
func (ns *NetServer) admitScan(r request, fdata []float64) {
	if r.tag.float {
		releaseData(r.data) // the float payload rides fdata
		keys, err := floatKeys(r.spec.Op, fdata)
		r.data = keys
		if err != nil {
			r.resolve(nil, err)
			return
		}
	}
	if ns.srv != nil {
		if _, err := ns.srv.submitReq(nil, r); err != nil {
			r.resolve(nil, err)
		}
		return
	}
	go func() {
		ctx, cancel := deadlineCtx(r.deadline)
		res, err := ns.be.Scan(ctx, r.spec, r.data, r.tenant)
		cancel()
		// Any return from Scan — result or error — means the backend is
		// done reading the payload, so the hook may recycle it
		// (DESIGN.md "Arena ownership").
		r.resolve(res, err)
	}()
}

// Client is a line-protocol client for NetServer / cmd/scansd. One
// Client owns one TCP connection and supports any number of concurrent
// Scan calls; a reader goroutine dispatches responses by ID. Server
// error responses come back as errors wrapping the package's typed
// sentinels (ErrOverloaded, ErrInternal, ErrShed,
// context.DeadlineExceeded, ...), so remote callers classify failures
// with errors.Is exactly like in-process ones — the retry policy in
// retry.go keys off that.
type Client struct {
	conn    net.Conn
	maxLine int
	bin     bool
	r       *bufio.Reader
	// w sends every request; frames and flushes are its counters.
	w               *connWriter
	frames, flushes atomic.Uint64

	mu      sync.Mutex
	nextID  uint64
	nextSID uint64
	waiters map[uint64]chan WireResponse
	readErr error
	closed  bool
}

// Wire protocol names for DialMaxLineProto and the cluster/cmd configs.
const (
	// ProtoJSON is the legacy newline-delimited-JSON protocol.
	ProtoJSON = "json"
	// ProtoBin is the binwire length-prefixed binary protocol.
	ProtoBin = "bin"
)

// Dial connects to a scansd address speaking the JSON protocol. The
// client's response reader is sized for a server running the default
// line budget; against a server with a larger MaxLineBytes, use
// DialMaxLineProto with the same value.
func Dial(addr string) (*Client, error) {
	return DialMaxLineProto(addr, DefaultMaxLineBytes, ProtoJSON)
}

// DialBin connects speaking the binary protocol (see DialMaxLineProto).
func DialBin(addr string) (*Client, error) {
	return DialMaxLineProto(addr, DefaultMaxLineBytes, ProtoBin)
}

// negotiateTimeout bounds the binary handshake round trip so a dial
// against a server that accepts but never answers cannot hang forever.
const negotiateTimeout = 10 * time.Second

// DialMaxLineProto dials with an explicit line budget and protocol
// (ProtoJSON or ProtoBin; empty means JSON). maxLineBytes (<= 0 means
// DefaultMaxLineBytes) must be at least the server's MaxLineBytes, or
// large responses will kill the connection client-side (token too
// long) even though the server sent them happily; the reader gets
// headroom on top of the nominal budget so a response at exactly the
// server's limit still fits. For ProtoBin the client sends the binwire
// Magic preamble and waits for the echo; any other answer — a server
// without binwire rejecting the preamble as bad JSON, or a
// connection-scoped rejection such as the server's MaxConns limit —
// fails the dial with that answer's typed error.
func DialMaxLineProto(addr string, maxLineBytes int, proto string) (*Client, error) {
	if maxLineBytes <= 0 {
		maxLineBytes = DefaultMaxLineBytes
	}
	var bin bool
	switch proto {
	case "", ProtoJSON:
	case ProtoBin:
		bin = true
	default:
		return nil, fmt.Errorf("%w: unknown wire protocol %q", ErrBadRequest, proto)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(conn, maxLineBytes)
	if bin {
		if err := c.negotiate(); err != nil {
			conn.Close()
			return nil, err
		}
	}
	go c.w.run()
	go c.readLoop()
	return c, nil
}

// newClient wraps a connected conn; the caller negotiates the codec and
// starts the writer and the read loop.
func newClient(conn net.Conn, maxLineBytes int) *Client {
	c := &Client{
		conn:    conn,
		maxLine: maxLineBytes + 64<<10,
		r:       bufio.NewReaderSize(conn, 64<<10),
		waiters: make(map[uint64]chan WireResponse),
	}
	c.w = newConnWriter(conn, &c.frames, &c.flushes)
	return c
}

// negotiate runs the client half of the binary handshake (see
// NetServer.negotiate). On return with nil error the connection speaks
// the binary protocol; any other outcome closes the dial.
func (c *Client) negotiate() error {
	c.conn.SetDeadline(time.Now().Add(negotiateTimeout))
	defer c.conn.SetDeadline(time.Time{})
	if _, err := c.conn.Write([]byte(binwire.Magic)); err != nil {
		return err
	}
	first, err := c.r.Peek(1)
	if err != nil {
		return err
	}
	if first[0] == binwire.Magic[0] {
		buf := make([]byte, len(binwire.Magic))
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return err
		}
		if string(buf) != binwire.Magic {
			return fmt.Errorf("bad negotiation ack %q", buf)
		}
		c.bin = true
		return nil
	}
	// Not a binary ack: a JSON error line — a server without binwire
	// rejecting the preamble as bad JSON, or the MaxConns overloaded
	// rejection, which is sent before negotiation. Either is this
	// connection's terminal error.
	line, err := readLine(c.r, c.maxLine)
	if err != nil {
		return err
	}
	var resp WireResponse
	jerr := json.Unmarshal(line, &resp)
	releaseData(resp.Result)
	if jerr != nil || resp.Error == "" {
		return fmt.Errorf("unexpected negotiation response %q", line)
	}
	return fmt.Errorf("binary protocol refused: %w", errorForCode(resp.Code, resp.Error))
}

// Close tears down the connection; outstanding Scan calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Scan performs one synchronous round trip. op/kind/dir use the wire
// strings ("sum", "exclusive", "forward", ...); empty kind/dir take
// the defaults. Many goroutines may Scan concurrently on one Client —
// their requests fuse server-side, which is the intended usage.
func (c *Client) Scan(op, kind, dir string, data []int64) ([]int64, error) {
	return c.ScanCtx(context.Background(), op, kind, dir, data)
}

// deadlineMS converts a remaining time budget to the wire's timeout_ms,
// rounding UP to a whole millisecond. Truncation is the wrong direction
// here: a live 999µs budget truncates to 0, which on the wire means "no
// timeout" — a sub-millisecond deadline silently became no deadline at
// all. Returns 0 (no wire timeout) for a spent budget; callers reject
// that case before sending.
func deadlineMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Millisecond - 1) / time.Millisecond)
}

// ScanCtx is Scan with a lifetime: a ctx deadline is forwarded to the
// server as the request's timeout_ms (so the server can shed the
// request unexecuted) and also bounds the local wait for the response.
func (c *Client) ScanCtx(ctx context.Context, op, kind, dir string, data []int64) ([]int64, error) {
	return c.ScanPinned(ctx, op, kind, dir, "", 0, data)
}

// ScanPinned is ScanCtx with an explicit fairness tenant and, for user
// combine ops (op "user:<name>"), a pinned registration hash. The
// tenant ("" = the connection's remote address) lets a coordinator
// relaying many clients' shards through one worker connection preserve
// each origin's fair-share identity. The server refuses to combine with
// any program whose content hash differs from opHash (code "op_hash" →
// ErrOpHash); opHash 0 means unpinned. Cluster coordinators pin every
// user-op piece they dispatch, so a worker holding a stale registration
// can never silently combine with the wrong function.
func (c *Client) ScanPinned(ctx context.Context, op, kind, dir, tenant string, opHash uint64, data []int64) ([]int64, error) {
	req := WireRequest{Op: op, Kind: kind, Dir: dir, Tenant: tenant, OpHash: opHash, Data: data}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		resp.Result = []int64{}
	}
	return resp.Result, nil
}

// RegisterOp registers source as the tenant-scoped combine op name
// ("" tenant = this connection's default fairness tenant, the client's
// remote address) and returns the registration's content hash.
// Rejections come back typed: ErrBadOp wraps every validation failure,
// with the property-test counterexample in the message.
func (c *Client) RegisterOp(ctx context.Context, tenant, name, source string) (uint64, error) {
	resp, err := c.roundTrip(ctx, WireRequest{Type: "register_op", Tenant: tenant, Name: name, Source: source})
	if err != nil {
		return 0, err
	}
	if resp.OpHash == 0 {
		return 0, fmt.Errorf("%w: register_op ack missing content hash (pre-user-op server?)", ErrBadRequest)
	}
	return resp.OpHash, nil
}

// ScanFloats performs one float64 scan round trip (elem "float64" on
// the wire). Supported ops and the exactness contract are documented in
// wirefloat.go: max/min over any non-NaN floats, sum over
// exactly-representable integers; mul and NaN are refused with
// ErrBadRequest.
func (c *Client) ScanFloats(ctx context.Context, op, kind, dir string, data []float64) ([]float64, error) {
	req := WireRequest{Op: op, Kind: kind, Dir: dir, Elem: ElemFloat64, FData: data}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.FResult == nil {
		resp.FResult = []float64{}
	}
	return resp.FResult, nil
}

// roundTrip sends one request (stamping its ID and, when ctx carries a
// deadline, its timeout_ms) and waits for the matching response, which
// may arrive out of order relative to other in-flight requests. A
// response with an error set is returned as a typed error via
// errorForCode.
func (c *Client) roundTrip(ctx context.Context, req WireRequest) (WireResponse, error) {
	p, err := c.startRequest(ctx, req)
	if err != nil {
		return WireResponse{}, err
	}
	return c.awaitResponse(ctx, p)
}

// pendingResp is one in-flight request's response slot: the send half of
// a round trip (startRequest) returns it, the wait half (awaitResponse)
// consumes it. Splitting the round trip lets the windowed stream pump
// keep several chunks in flight while still issuing their sends in
// order from one goroutine (chunk order is the stream's semantics).
type pendingResp struct {
	id uint64
	ch chan WireResponse
}

// startRequest stamps the request's id (and timeout from ctx), registers
// its waiter, and writes it. On error nothing is in flight.
func (c *Client) startRequest(ctx context.Context, req WireRequest) (pendingResp, error) {
	var zero pendingResp
	if dl, ok := ctx.Deadline(); ok {
		ms := deadlineMS(time.Until(dl))
		if ms <= 0 {
			return zero, context.DeadlineExceeded
		}
		req.TimeoutMS = ms
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, c.connErr()
	}
	c.nextID++
	id := c.nextID
	ch := make(chan WireResponse, 1)
	c.waiters[id] = ch
	c.mu.Unlock()
	req.ID = id

	var err error
	if c.bin {
		err = c.sendBin(req)
	} else {
		err = c.sendLine(req)
	}
	if err != nil {
		c.abandonWaiter(id, ch)
		if errors.Is(err, net.ErrClosed) {
			err = c.connErr()
		}
		return zero, err
	}
	return pendingResp{id: id, ch: ch}, nil
}

// connErr is a dead connection's error for its round trips: what ended
// the read loop, or net.ErrClosed.
func (c *Client) connErr() error {
	c.mu.Lock()
	err := c.readErr
	c.mu.Unlock()
	if err == nil {
		err = net.ErrClosed
	}
	return err
}

// awaitResponse waits for a started request's response. An error-coded
// response comes back as a typed error via errorForCode.
func (c *Client) awaitResponse(ctx context.Context, p pendingResp) (WireResponse, error) {
	var zero WireResponse
	select {
	case resp, ok := <-p.ch:
		if !ok {
			return zero, c.connErr()
		}
		if resp.Error != "" {
			return zero, errorForCode(resp.Code, resp.Error)
		}
		return resp, nil
	case <-ctx.Done():
		c.abandonWaiter(p.id, p.ch)
		return zero, ctx.Err()
	}
}

// abandonWaiter retracts a round trip's response slot (ctx expiry or a
// failed send). The lock covers both the map delete and the channel
// drain: readLoop hands responses off under the same lock, so either
// the delete wins (a late response is released by readLoop) or the
// handoff already happened and the drain here owns the buffer — a
// response can never slip into an abandoned channel unreleased.
func (c *Client) abandonWaiter(id uint64, ch chan WireResponse) {
	c.mu.Lock()
	delete(c.waiters, id)
	select {
	case resp, ok := <-ch:
		if ok {
			releaseData(resp.Result)
		}
	default:
	}
	c.mu.Unlock()
}

// sendBin encodes one request as a binwire frame (into an arena buffer
// — zero steady-state allocation) and queues it on the writer.
func (c *Client) sendBin(req WireRequest) error {
	var frame []byte
	switch req.Type {
	case "":
		if name, ok := strings.CutPrefix(req.Op, "user:"); ok {
			frame = arena.GetBytes(binwire.ScanFrameBytes(req.Tenant, len(req.Data)) + binwire.UserOpBytes(name))[:0]
			frame = binwire.AppendScanUser(frame, req.ID,
				binKindByte(req.Kind), binDirByte(req.Dir), name, req.OpHash,
				req.TimeoutMS, req.Tenant, req.Data)
			break
		}
		n := len(req.Data)
		if req.Elem == ElemFloat64 {
			n = len(req.FData)
		}
		frame = arena.GetBytes(binwire.ScanFrameBytes(req.Tenant, n))[:0]
		frame = binwire.AppendScan(frame, req.ID,
			binOpByte(req.Op), binKindByte(req.Kind), binDirByte(req.Dir), binElemByte(req.Elem),
			req.TimeoutMS, req.Tenant, req.Data, req.FData)
	case "stream_open":
		if name, ok := strings.CutPrefix(req.Op, "user:"); ok {
			frame = arena.GetBytes(binwire.StreamOpenFrameBytes() + binwire.UserOpBytes(name))[:0]
			frame = binwire.AppendStreamOpenUser(frame, req.ID, req.Stream,
				binKindByte(req.Kind), binDirByte(req.Dir), name, req.OpHash)
			break
		}
		frame = arena.GetBytes(binwire.StreamOpenFrameBytes())[:0]
		frame = binwire.AppendStreamOpen(frame, req.ID, req.Stream,
			binOpByte(req.Op), binKindByte(req.Kind), binDirByte(req.Dir), binElemByte(req.Elem))
	case "stream_chunk":
		frame = arena.GetBytes(binwire.StreamChunkFrameBytes(len(req.Data)))[:0]
		frame = binwire.AppendStreamChunk(frame, req.ID, req.Stream, req.TimeoutMS, req.Data)
	case "stream_close":
		frame = arena.GetBytes(binwire.StreamCloseFrameBytes())[:0]
		frame = binwire.AppendStreamClose(frame, req.ID, req.Stream)
	case "stream_resume":
		frame = arena.GetBytes(binwire.StreamResumeFrameBytes(req.Resume))[:0]
		frame = binwire.AppendStreamResume(frame, req.ID, req.Stream, req.Seq, req.Resume)
	case "heartbeat":
		frame = arena.GetBytes(binwire.HeartbeatFrameBytes(req.Addr))[:0]
		frame = binwire.AppendHeartbeat(frame, req.ID, req.Addr, req.Weight, req.MaxLine, binProtoByte(req.WProto))
	case "register_op":
		frame = arena.GetBytes(binwire.RegisterOpFrameBytes(req.Tenant, req.Name, req.Source))[:0]
		frame = binwire.AppendRegisterOp(frame, req.ID, req.Tenant, req.Name, req.Source)
	default:
		return fmt.Errorf("%w: unknown message type %q", ErrBadRequest, req.Type)
	}
	return c.w.send(frame, nil, true)
}

// sendLine encodes one request as a JSON line in an arena buffer and
// queues it on the writer. The common shapes take the one-pass
// appender (zero steady-state allocation); the rest go through
// json.Marshal.
func (c *Client) sendLine(req WireRequest) error {
	buf := arena.GetBytes(fastReqSize(req) + 1)[:0]
	line, ok := appendWireRequest(buf, req)
	if !ok {
		arena.PutBytes(buf)
		js, err := json.Marshal(req)
		if err != nil {
			return err
		}
		line = append(arena.GetBytes(len(js) + 1)[:0], js...)
	}
	return c.w.send(append(line, '\n'), nil, true)
}

// dispatch hands one decoded response to its waiter (shared by both
// protocol read loops).
func (c *Client) dispatch(resp WireResponse) {
	c.mu.Lock()
	ch, ok := c.waiters[resp.ID]
	delete(c.waiters, resp.ID)
	if !ok && resp.ID == 0 && resp.Error != "" && c.readErr == nil {
		// A connection-scoped error (e.g. the server's MaxConns
		// rejection) has no request id; surface it as this
		// connection's terminal error so waiters see the typed
		// cause instead of a bare closed-connection error.
		c.readErr = errorForCode(resp.Code, resp.Error)
	}
	if ok {
		// Hand off under the lock (the channel has capacity 1, so
		// this never blocks): a round trip abandoning its waiter on
		// ctx expiry holds the same lock while draining, so exactly
		// one side ends up owning the decoded result buffer.
		ch <- resp
	}
	c.mu.Unlock()
	if !ok {
		// Nobody is waiting (late response after a ctx expiry already
		// drained, or a stray id): the decoded buffer goes back.
		releaseData(resp.Result)
	}
}

// readLines drains the JSON protocol until the connection dies.
func (c *Client) readLines() error {
	for {
		line, err := readLine(c.r, c.maxLine)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			// Sized from the dial-time line budget (server limit +
			// headroom): a response near the server's MaxLineBytes must
			// never kill the connection as over-long client-side.
			return err
		}
		if len(line) == 0 {
			continue
		}
		resp, err := unmarshalWireResponse(line)
		if err != nil {
			// A torn or malformed line answers a round trip it can no
			// longer be matched to: fail the connection, and with it
			// every waiter, as readFrames does.
			return fmt.Errorf("unparseable response line: %w", err)
		}
		c.dispatch(resp)
	}
}

// readFrames drains the binary protocol until the connection dies. Any
// structural damage — bad length prefix, unparseable payload — is a
// connection failure (a binary stream has no resync point), never a
// delivered response.
func (c *Client) readFrames() error {
	for {
		payload, err := binwire.ReadFrame(c.r, c.maxLine)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		bresp, perr := binwire.ParseResponse(payload)
		arena.PutBytes(payload)
		if perr != nil {
			return perr
		}
		resp := WireResponse{ID: bresp.ID, Result: bresp.Result, Error: bresp.Error, Code: bresp.Code}
		switch bresp.Type {
		case binwire.FFloatResult:
			if bresp.FResult == nil {
				bresp.FResult = []float64{}
			}
			resp.FResult = bresp.FResult
		case binwire.FTotal:
			total := bresp.Total
			resp.Total = &total
		case binwire.FAck:
			resp.Resume = bresp.Token
			resp.Window = bresp.Window
			if bresp.Seq > 0 {
				// A resume ack; seq 0 on the wire means "plain open ack"
				// (resumeFrom is 1-based, so 0 is never a real value).
				seq := bresp.Seq
				resp.Seq = &seq
			}
		case binwire.FOpAck:
			resp.OpHash = bresp.OpHash
		}
		c.dispatch(resp)
	}
}

// readLoop dispatches responses by ID until the connection dies, then
// closes it, fails every outstanding waiter and stops the writer.
func (c *Client) readLoop() {
	var err error
	if c.bin {
		err = c.readFrames()
	} else {
		err = c.readLines()
	}
	c.conn.Close()
	defer c.w.finish()
	c.mu.Lock()
	c.closed = true
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.waiters {
		close(ch)
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// DefaultStreamChunk is the chunk size (in elements) StreamScan uses
// when the caller passes chunkElems <= 0: large enough to amortize the
// per-chunk round trip, small enough that a chunk's worst-case response
// (maxRespBytes) stays far inside any sane line budget.
const DefaultStreamChunk = 1 << 15

// ClientStream is one streaming scan session: Send pushes a chunk and
// returns its prefix-scan seeded with everything sent before; Close
// ends the session and returns the fold of the whole stream. A failed
// Send kills the session (the server freed its carry); the error is
// sticky and Close returns it too. Sends are serialized — a stream is
// one logical vector arriving in order, so concurrent Sends would be
// meaningless.
type ClientStream struct {
	c   *Client
	sid uint64
	// token is the resume token from the open ack ("" against a backend
	// without resumable streams); window is the flow-control credit (a
	// server advertising none is treated as 1).
	token  string
	window int

	mu     sync.Mutex
	closed bool
	err    error
}

// ResumeToken returns the stream's resume token, or "" when the backend
// did not offer one (a plain in-process Server has no resume table).
func (s *ClientStream) ResumeToken() string { return s.token }

// Window returns the server's flow-control credit: how many chunk
// requests may be in flight at once (StreamWindow from a NetServer).
func (s *ClientStream) Window() int { return s.window }

// OpenStream starts a streaming session for op/kind/dir (wire strings,
// forward only — the server refuses backward specs with
// ErrStreamUnsupported, because a backward carry depends on chunks that
// have not arrived yet). The open's ack carries the flow-control window
// and, when the backend supports resume, a resume token (see Window /
// ResumeToken).
func (c *Client) OpenStream(ctx context.Context, op, kind, dir string) (*ClientStream, error) {
	c.mu.Lock()
	c.nextSID++
	sid := c.nextSID
	c.mu.Unlock()
	resp, err := c.roundTrip(ctx, WireRequest{Type: "stream_open", Stream: sid, Op: op, Kind: kind, Dir: dir})
	if err != nil {
		return nil, err
	}
	return &ClientStream{c: c, sid: sid, token: resp.Resume, window: resp.Window}, nil
}

// ResumeStream re-attaches to a resumable stream (by the token its open
// ack carried) after a connection or coordinator failure — typically on
// a NEW client dialed at a standby. lastAcked is the count of chunk
// responses the caller received. Returns the re-attached stream and
// resumeFrom, the 1-based index of the next chunk the server expects:
// normally lastAcked+1, but smaller when a standby's replica lagged the
// dead primary's acks — the caller must rewind its output to chunk
// resumeFrom-1 and resend from there (recomputation is bit-identical).
func (c *Client) ResumeStream(ctx context.Context, token string, lastAcked uint64) (*ClientStream, uint64, error) {
	c.mu.Lock()
	c.nextSID++
	sid := c.nextSID
	c.mu.Unlock()
	resp, err := c.roundTrip(ctx, WireRequest{Type: "stream_resume", Stream: sid, Resume: token, Seq: lastAcked})
	if err != nil {
		return nil, 0, err
	}
	if resp.Seq == nil || *resp.Seq == 0 || *resp.Seq > lastAcked+1 {
		return nil, 0, fmt.Errorf("%w: stream_resume ack missing or invalid resume point", ErrInternal)
	}
	return &ClientStream{c: c, sid: sid, token: token, window: resp.Window}, *resp.Seq, nil
}

// Heartbeat announces a worker to a coordinator: addr is the worker's
// dialable address, weight its relative capacity, proto the wire
// protocol the coordinator should dial it with ("json"/"bin", "" = the
// coordinator's default), maxLine its line budget (0 = default). Plain
// servers answer bad_request; scansd's -announce loop sends one of
// these per heartbeat interval.
func (c *Client) Heartbeat(ctx context.Context, addr string, weight float64, proto string, maxLine int) error {
	_, err := c.roundTrip(ctx, WireRequest{Type: "heartbeat", Addr: addr, Weight: weight, WProto: proto, MaxLine: maxLine})
	return err
}

// Send pushes one chunk and returns its scan, seeded with the carry of
// every prior chunk. On error the session is dead server-side; opening
// a fresh stream and resending from the first chunk is the only
// recovery.
func (s *ClientStream) Send(ctx context.Context, chunk []int64) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, fmt.Errorf("%w: stream already closed", ErrNoStream)
	}
	resp, err := s.c.roundTrip(ctx, WireRequest{Type: "stream_chunk", Stream: s.sid, Data: chunk})
	if err != nil {
		s.err = err
		return nil, err
	}
	if resp.Result == nil {
		resp.Result = []int64{}
	}
	return resp.Result, nil
}

// Close ends the session and returns the stream total: the fold of
// every element sent, regardless of kind (for an exclusive scan the
// total is NOT the last result element — it includes the final chunk's
// last input). Closing an already-failed stream returns the sticky
// error.
func (s *ClientStream) Close(ctx context.Context) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, fmt.Errorf("%w: stream already closed", ErrNoStream)
	}
	s.closed = true
	resp, err := s.c.roundTrip(ctx, WireRequest{Type: "stream_close", Stream: s.sid})
	if err != nil {
		s.err = err
		return 0, err
	}
	if resp.Total == nil {
		return 0, fmt.Errorf("%w: stream_close response missing total", ErrInternal)
	}
	return *resp.Total, nil
}

// pump drives a windowed streamed scan over the open stream: chunks
// [from, nchunks) of data are cut at chunkElems and sent with up to
// Window() chunk round trips in flight — the sends issue in order from
// this one goroutine (chunk order IS the stream's semantics), the acks
// come back in the same order, and the client blocks once the window is
// full, so a fast producer can never overrun the server's per-stream
// mailbox. Results append to out in order. Returns the grown out, the
// count of chunks whose responses were received (the caller's new
// lastAcked high-water mark), and the first error; on error every
// still-in-flight chunk is awaited (the server's stream teardown — or
// the dead connection — resolves them) so no response buffer leaks.
func (s *ClientStream) pump(ctx context.Context, data []int64, chunkElems, from int, out []int64) ([]int64, int, error) {
	nch := (len(data) + chunkElems - 1) / chunkElems
	w := s.window
	if w <= 0 {
		w = 1 // no advertised credit: degrade to the lock-step protocol
	}
	var pend []pendingResp
	done, next := from, from
	var firstErr error
	for done < nch {
		for firstErr == nil && next < nch && next-done < w {
			off := next * chunkElems
			end := min(off+chunkElems, len(data))
			p, err := s.c.startRequest(ctx, WireRequest{Type: "stream_chunk", Stream: s.sid, Data: data[off:end]})
			if err != nil {
				firstErr = err
				break
			}
			pend = append(pend, p)
			next++
		}
		if len(pend) == 0 {
			break
		}
		resp, err := s.c.awaitResponse(ctx, pend[0])
		pend = pend[1:]
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		out = append(out, resp.Result...)
		releaseData(resp.Result)
		done++
	}
	for _, p := range pend {
		if resp, err := s.c.awaitResponse(ctx, p); err == nil {
			releaseData(resp.Result)
		}
	}
	if firstErr != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = firstErr
		}
		s.mu.Unlock()
	}
	return out, done, firstErr
}

// StreamScan scans data by streaming it through the server in chunks
// of chunkElems elements (DefaultStreamChunk when <= 0), reassembling
// the chunk results into the full prefix scan — bit-identical to a
// one-shot ScanCtx, but with a bounded per-message footprint, so it
// works for vectors whose one-shot response would blow the line budget
// (the server refuses those with code "too_large"). Vectors that fit in
// a single chunk just take the one-shot path. Chunks are pipelined up
// to the server's advertised flow-control window.
func (c *Client) StreamScan(ctx context.Context, op, kind, dir string, data []int64, chunkElems int) ([]int64, error) {
	if chunkElems <= 0 {
		chunkElems = DefaultStreamChunk
	}
	if len(data) <= chunkElems {
		return c.ScanCtx(ctx, op, kind, dir, data)
	}
	s, err := c.OpenStream(ctx, op, kind, dir)
	if err != nil {
		return nil, err
	}
	// Reassemble into one arena buffer, recycling each chunk's decoded
	// result as it lands — so like every client scan result, the
	// returned slice is arena-backed and owned by the caller.
	out := arena.GetInt64s(len(data))[:0]
	out, _, err = s.pump(ctx, data, chunkElems, 0, out)
	if err != nil {
		arena.PutInt64s(out)
		return nil, err
	}
	if _, err := s.Close(ctx); err != nil {
		arena.PutInt64s(out)
		return nil, err
	}
	return out, nil
}
