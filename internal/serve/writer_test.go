package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/fault"
)

// recConn is the socket side of a connWriter under test: it records
// every Write, and after failAt writes (failAt > 0) fails them all,
// signaling failed on the first failure. Only the methods the writer
// calls are implemented.
type recConn struct {
	net.Conn
	failAt int
	failed chan struct{}

	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
	closed bool
}

func newRecConn(failAt int) *recConn {
	return &recConn{failAt: failAt, failed: make(chan struct{})}
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		if c.writes == c.failAt {
			close(c.failed)
		}
		return 0, errors.New("injected write error")
	}
	return c.buf.Write(p)
}

func (c *recConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

// written returns how many bytes reached the socket so far.
func (c *recConn) written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Len()
}

// writerServer is the part of a NetServer a connWriter reads: its
// config, fault points and counters.
func writerServer(faults *fault.Set) *NetServer {
	ncfg := NetConfig{Faults: faults}.withDefaults()
	return &NetServer{
		ncfg:          ncfg,
		fpPartial:     faults.Point(fault.PartialWrite),
		fpWireTrunc:   faults.Point(fault.WireTruncate),
		fpWireCorrupt: faults.Point(fault.WireCorruptLen),
	}
}

// decodeIDs parses the answers a writer sent and returns their ids.
func decodeIDs(t *testing.T, bin bool, b []byte) []uint64 {
	t.Helper()
	var ids []uint64
	r := bufio.NewReader(bytes.NewReader(b))
	for {
		if bin {
			payload, err := binwire.ReadFrame(r, 1<<20)
			if errors.Is(err, io.EOF) {
				return ids
			}
			if err != nil {
				t.Fatalf("read frame: %v", err)
			}
			resp, err := binwire.ParseResponse(payload)
			arena.PutBytes(payload)
			if err != nil {
				t.Fatalf("parse frame: %v", err)
			}
			arena.PutInt64s(resp.Result)
			ids = append(ids, resp.ID)
			continue
		}
		line, err := r.ReadBytes('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return ids
		}
		if err != nil {
			t.Fatalf("read line: %v", err)
		}
		resp, err := unmarshalWireResponse(line[:len(line)-1])
		if err != nil {
			t.Fatalf("parse line %q: %v", line, err)
		}
		releaseData(resp.Result)
		ids = append(ids, resp.ID)
	}
}

func codecName(bin bool) string {
	if bin {
		return "binwire"
	}
	return "json"
}

// TestConnWriterOneFlushInOrder: answers queued before the writer
// drains leave in queue order in one flush, and each answer's release
// hook runs before its first byte reaches the socket.
func TestConnWriterOneFlushInOrder(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			before := arena.Stats()
			ns := writerServer(nil)
			rc := newRecConn(0)
			w := ns.answerWriter(rc, bin)
			const n = 8
			// The hooks run on the writer goroutine, one after another;
			// finish orders them before the reads below.
			var atRelease []int
			for id := uint64(1); id <= n; id++ {
				w.respondRelease(WireResponse{ID: id, Result: []int64{int64(id), 2 * int64(id)}}, func() {
					atRelease = append(atRelease, rc.written())
				})
			}
			go w.run()
			w.finish()

			if rc.writes != 1 {
				t.Fatalf("%d socket writes for %d queued answers, want 1", rc.writes, n)
			}
			got := decodeIDs(t, bin, rc.buf.Bytes())
			want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answer ids = %v, want %v", got, want)
			}
			if len(atRelease) != n {
				t.Fatalf("%d release hooks ran, want %d", len(atRelease), n)
			}
			for i, b := range atRelease {
				if b != 0 {
					t.Fatalf("release hook %d ran with %d bytes already on the socket", i+1, b)
				}
			}
			if f, fl := ns.wireFrames.Load(), ns.wireFlushes.Load(); f != n || fl != 1 {
				t.Fatalf("WireFrames=%d WireFlushes=%d, want %d and 1", f, fl, n)
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestConnWriterDrainsAfterWriteError: once a write fails, the writer
// closes the connection and keeps draining: every later answer still
// runs its release hook and recycles its buffer, and the arena ledger
// closes.
func TestConnWriterDrainsAfterWriteError(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			before := arena.Stats()
			ns := writerServer(nil)
			rc := newRecConn(1)
			w := ns.answerWriter(rc, bin)
			released := 0 // writer goroutine only; read after finish
			rel := func() { released++ }
			for id := uint64(1); id <= 3; id++ {
				w.respondRelease(WireResponse{ID: id, Result: []int64{int64(id)}}, rel)
			}
			go w.run()
			<-rc.failed
			// The connection is dead; answers keep coming.
			for id := uint64(4); id <= 6; id++ {
				w.respondRelease(WireResponse{ID: id, Result: []int64{int64(id)}}, rel)
			}
			w.respond(WireResponse{ID: 7, Error: "late", Code: CodeInternal})
			w.finish()

			if released != 6 {
				t.Fatalf("%d release hooks ran, want 6", released)
			}
			if !rc.closed {
				t.Fatal("writer left the connection open after a write error")
			}
			if rc.writes != 1 {
				t.Fatalf("%d socket writes, want 1 (nothing after the failure)", rc.writes)
			}
			if f, fl := ns.wireFrames.Load(), ns.wireFlushes.Load(); f != 0 || fl != 0 {
				t.Fatalf("WireFrames=%d WireFlushes=%d after a failed flush, want 0 and 0", f, fl)
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestConnWriterDrainsAfterChaosKill: a chaos point that tears or
// corrupts a frame kills the connection after that frame's bytes, and
// the writer still runs every release hook and recycles every buffer.
func TestConnWriterDrainsAfterChaosKill(t *testing.T) {
	cases := []struct {
		point string
		bin   bool
	}{
		{fault.PartialWrite, false},
		{fault.PartialWrite, true},
		{fault.WireTruncate, true},
		{fault.WireCorruptLen, true},
	}
	for _, tc := range cases {
		t.Run(tc.point+"/"+codecName(tc.bin), func(t *testing.T) {
			before := arena.Stats()
			faults := fault.New(1)
			faults.Arm(tc.point, 1)
			ns := writerServer(faults)
			rc := newRecConn(0)
			w := ns.answerWriter(rc, tc.bin)
			released := 0
			rel := func() { released++ }
			for id := uint64(1); id <= 4; id++ {
				w.respondRelease(WireResponse{ID: id, Result: []int64{int64(id), 5, 6, 7}}, rel)
			}
			go w.run()
			w.finish()

			if released != 4 {
				t.Fatalf("%d release hooks ran, want 4", released)
			}
			if !rc.closed {
				t.Fatal("chaos kill left the connection open")
			}
			if got := faults.Fires(tc.point); got != 1 {
				t.Fatalf("%s fired %d times, want once (the writer evaluates no frame after a kill)", tc.point, got)
			}
			// Only the first answer's torn bytes reached the socket.
			full := encodeLine(WireResponse{ID: 1, Result: []int64{1, 5, 6, 7}})
			if tc.bin {
				arena.PutBytes(full)
				full = encodeFrame(WireResponse{ID: 1, Result: []int64{1, 5, 6, 7}})
			}
			n := len(full)
			arena.PutBytes(full)
			if got := rc.written(); got == 0 || got > n {
				t.Fatalf("%d bytes reached the socket, want the first answer's damaged 1..%d", got, n)
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestNetExecutorNeverBlocksOnSocket: connection A pipelines scans and
// never reads, with no in-flight cap, so its writer is stuck on the
// socket while every one of its answers is computed. Executors answer
// through a queue, so connection B's scans on the same server still
// complete promptly; once A closes, its pending answers drain, and both
// the arena and the Stats ledgers close.
func TestNetExecutorNeverBlocksOnSocket(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			ns := startNetCfg(t, Config{}, NetConfig{})
			before := arena.Stats()

			cli, srv := net.Pipe() // unbuffered: the writer blocks on its first flush
			// Closing A unblocks anything stuck on it, so a failure below
			// still lets the server shut down.
			t.Cleanup(func() { cli.Close() })
			handled := make(chan struct{})
			go func() {
				ns.handle(srv)
				close(handled)
			}()
			cli.SetDeadline(time.Now().Add(20 * time.Second))
			if bin {
				if _, err := cli.Write([]byte(binwire.Magic)); err != nil {
					t.Fatalf("write preamble: %v", err)
				}
				ack := make([]byte, len(binwire.Magic))
				if _, err := io.ReadFull(cli, ack); err != nil {
					t.Fatalf("read preamble ack: %v", err)
				}
			}
			const stuck = 200
			data := []int64{3, 1, 4, 1, 5, 9, 2, 6}
			for id := uint64(1); id <= stuck; id++ {
				var msg []byte
				if bin {
					msg = binwire.AppendScan(nil, id, binOpByte("sum"), binKindByte(""), binDirByte(""),
						binElemByte(""), 0, "", data, nil)
				} else {
					msg = fmt.Appendf(nil, `{"id":%d,"op":"sum","data":[3,1,4,1,5,9,2,6]}`+"\n", id)
				}
				// A pipe write returns once the server has read it.
				if _, err := cli.Write(msg); err != nil {
					t.Fatalf("write request %d: %v", id, err)
				}
			}
			for wait := time.Now().Add(10 * time.Second); ns.Stats().Served < stuck; {
				if time.Now().After(wait) {
					t.Fatalf("A's scans not all computed: %v", ns.Stats())
				}
				time.Sleep(time.Millisecond)
			}

			proto := ProtoJSON
			if bin {
				proto = ProtoBin
			}
			c, err := DialMaxLineProto(ns.Addr(), 0, proto)
			if err != nil {
				t.Fatalf("dial B: %v", err)
			}
			const fresh = 50
			start := time.Now()
			for i := 0; i < fresh; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				res, err := c.ScanCtx(ctx, "sum", "inclusive", "", []int64{int64(i), 1, 1})
				cancel()
				if err != nil {
					t.Fatalf("B scan %d while A is stuck: %v", i, err)
				}
				if want := []int64{int64(i), int64(i) + 1, int64(i) + 2}; !reflect.DeepEqual(res, want) {
					t.Fatalf("B scan %d = %v, want %v", i, res, want)
				}
				releaseData(res)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("B's %d scans took %v while A was stuck", fresh, d)
			}
			c.Close()

			cli.Close()
			<-handled
			ns.Close()
			st := ns.Stats()
			if st.Served != stuck+fresh {
				t.Fatalf("served %d, want %d (%v)", st.Served, stuck+fresh, st)
			}
			if got := st.Served + st.DeadlineDrops + st.Shed + st.PanicFailed + st.CorruptDrops; got != st.Requests {
				t.Fatalf("Stats ledger does not close: outcomes %d != requests %d (%v)", got, st.Requests, st)
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestNetWireDeadlineDrop: a timeout_ms scan queued behind slow kernel
// passes is dropped at pick time, unexecuted: answered with code
// deadline, counted exactly once in DeadlineDrops, never served. One
// executor, one request per batch and a 100 ms kernel keep it queued
// well past its 20 ms budget.
func TestNetWireDeadlineDrop(t *testing.T) {
	faults := fault.New(3)
	faults.ArmSleep(fault.KernelSlow, 1, 100*time.Millisecond)
	ns := startNet(t, Config{Faults: faults, Executors: 1, MaxBatchRequests: 1})
	conn, r := rawConn(t, ns.Addr())
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// One write: the three slow scans fill the executor, its hand-off
	// slot and the batcher, so the fourth waits in the queue.
	lines := `{"id":1,"op":"sum","data":[1,2]}` + "\n" +
		`{"id":2,"op":"sum","data":[3,4]}` + "\n" +
		`{"id":3,"op":"sum","data":[5,6]}` + "\n" +
		`{"id":4,"op":"sum","data":[7,8],"timeout_ms":20}` + "\n"
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := map[uint64]WireResponse{}
	for i := 0; i < 4; i++ {
		resp := readResp(t, r)
		got[resp.ID] = resp
	}
	if resp := got[4]; resp.Code != CodeDeadline || resp.Result != nil {
		t.Fatalf("timed-out scan answered %+v, want code %q and no result", resp, CodeDeadline)
	}
	for id := uint64(1); id <= 3; id++ {
		if resp := got[id]; resp.Code != "" || len(resp.Result) != 2 {
			t.Fatalf("scan %d answered %+v, want a result", id, resp)
		}
	}
	st := ns.Stats()
	if st.DeadlineDrops != 1 || st.Served != 3 || st.Requests != 4 {
		t.Fatalf("stats = %v, want 4 requests, 3 served, exactly 1 deadline drop", st)
	}
}

// TestConnWriterBoundsNonReadingClient: a client that never reads and
// keeps sending finds the server's read loop stalled, with the writer's
// queue held at maxQueued plus the in-flight cap, instead of a queue
// that grows as fast as it sends. The refusals case sends scans past
// PerConnInflight (and, on JSON, malformed lines); the stream case
// sends chunks to one stream, whose worker waits for room and whose
// mailbox then fills. Once the client closes, everything drains and
// the arena ledger closes.
func TestConnWriterBoundsNonReadingClient(t *testing.T) {
	cases := []struct {
		name   string
		bin    bool
		stream bool
	}{
		{"refusals/json", false, false},
		{"refusals/binwire", true, false},
		{"stream/json", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 1
			ns := startNetCfg(t, Config{}, NetConfig{PerConnInflight: limit})
			before := arena.Stats()
			cli, srv := net.Pipe() // unbuffered: the writer blocks on its first flush
			t.Cleanup(func() { cli.Close() })
			// handle's steps without the negotiation, keeping the writer
			// in reach.
			w := ns.answerWriter(srv, tc.bin)
			go w.run()
			var codec connCodec = &jsonConn{connWriter: w, ns: ns, r: bufio.NewReaderSize(srv, 64<<10)}
			if tc.bin {
				codec = &binConn{connWriter: w, ns: ns, r: bufio.NewReaderSize(srv, 64<<10)}
			}
			served := make(chan struct{})
			go func() {
				ns.serveConn(srv, codec)
				srv.Close()
				close(served)
			}()

			msg := func(id uint64) []byte {
				switch {
				case tc.stream && id == 1:
					return []byte(`{"id":1,"type":"stream_open","stream":7,"op":"sum"}` + "\n")
				case tc.stream:
					return fmt.Appendf(nil, `{"id":%d,"type":"stream_chunk","stream":7,"data":[1,2,3]}`+"\n", id)
				case tc.bin:
					return binwire.AppendScan(nil, id, binOpByte("sum"), binKindByte(""), binDirByte(""),
						binElemByte(""), 0, "", []int64{1, 2}, nil)
				case id%2 == 0:
					return []byte("{bad\n")
				}
				return fmt.Appendf(nil, `{"id":%d,"op":"sum","data":[1,2]}`+"\n", id)
			}
			// A pipe write returns once the server has read it, so the
			// first write that times out finds the read loop stalled.
			const tries = 4000
			sent := 0
			for id := uint64(1); id <= tries; id++ {
				cli.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
				if _, err := cli.Write(msg(id)); err != nil {
					if !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("write %d: %v", id, err)
					}
					break
				}
				sent++
			}
			if sent == tries {
				t.Fatalf("read loop took all %d messages from a client that never reads", tries)
			}
			w.mu.Lock()
			queued := len(w.q)
			w.mu.Unlock()
			if queued > maxQueued+limit {
				t.Fatalf("%d answers queued for a client that never reads, want <= %d", queued, maxQueued+limit)
			}
			if sent > 4*maxQueued {
				t.Fatalf("read loop took %d messages before stalling, want <= %d", sent, 4*maxQueued)
			}

			t.Logf("read loop stalled after %d messages with %d answers queued", sent, queued)

			cli.Close()
			<-served
			ns.Close()
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestConnWriterDeadlinePerWrite: WriteTimeout bounds each answer's
// socket writes, not the whole drained queue. A client that reads
// steadily but slowly, one 64 KiB read every 100 ms, is owed ten 40 KB
// answers in one drain: about 700 ms of writing in all, every write
// done well inside a 400 ms WriteTimeout. It gets every answer, and the
// connection stays open.
func TestConnWriterDeadlinePerWrite(t *testing.T) {
	ns := writerServer(nil)
	ns.ncfg.WriteTimeout = 400 * time.Millisecond
	cli, srv := net.Pipe()
	defer cli.Close()
	w := ns.answerWriter(srv, false)
	const n = 10
	data := make([]int64, 5000)
	for i := range data {
		data[i] = 1000000 + int64(i)
	}
	want := 0
	for id := uint64(1); id <= n; id++ {
		line := encodeLine(WireResponse{ID: id, Result: data})
		want += len(line)
		arena.PutBytes(line)
		w.respond(WireResponse{ID: id, Result: data})
	}
	go w.run()

	got := make([]byte, 0, want)
	buf := make([]byte, 64<<10)
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	for len(got) < want {
		time.Sleep(100 * time.Millisecond)
		k, err := cli.Read(buf)
		if err != nil {
			t.Fatalf("read after %d of %d bytes: %v (the writer gave up on a client that reads)", len(got), want, err)
		}
		got = append(got, buf[:k]...)
	}
	w.finish()
	if ids := decodeIDs(t, false, got); len(ids) != n {
		t.Fatalf("%d answers decoded, want %d", len(ids), n)
	}
	if f, fl := ns.wireFrames.Load(), ns.wireFlushes.Load(); f != n || fl != 1 {
		t.Fatalf("WireFrames=%d WireFlushes=%d, want %d and 1", f, fl, n)
	}
}

// blockConn is a recConn whose reads block until it is closed, like a
// socket whose peer never answers.
type blockConn struct {
	*recConn
	shut chan struct{}
	once sync.Once
}

func newBlockConn(failAt int) *blockConn {
	return &blockConn{recConn: newRecConn(failAt), shut: make(chan struct{})}
}

func (c *blockConn) Read([]byte) (int, error) {
	<-c.shut
	return 0, net.ErrClosed
}

func (c *blockConn) Close() error {
	c.once.Do(func() { close(c.shut) })
	return c.recConn.Close()
}

// requestIDs parses the requests a client's writer sent and returns
// their ids, checking each carries the payload {id, -id}.
func requestIDs(t *testing.T, bin bool, b []byte) []uint64 {
	t.Helper()
	var ids []uint64
	r := bufio.NewReader(bytes.NewReader(b))
	for {
		var id uint64
		var data []int64
		if bin {
			payload, err := binwire.ReadFrame(r, 1<<20)
			if errors.Is(err, io.EOF) {
				return ids
			}
			if err != nil {
				t.Fatalf("read frame: %v", err)
			}
			q, err := binwire.ParseRequest(payload)
			arena.PutBytes(payload)
			if err != nil {
				t.Fatalf("parse frame: %v", err)
			}
			id, data = q.ID, q.Data
		} else {
			line, err := r.ReadBytes('\n')
			if errors.Is(err, io.EOF) && len(line) == 0 {
				return ids
			}
			if err != nil {
				t.Fatalf("read line: %v", err)
			}
			req, err := unmarshalWireRequest(line[:len(line)-1])
			if err != nil {
				t.Fatalf("parse line %q: %v", line, err)
			}
			id, data = req.ID, req.Data
		}
		if want := []int64{int64(id), -int64(id)}; !reflect.DeepEqual(data, want) {
			t.Fatalf("request %d carried %v, want %v", id, data, want)
		}
		releaseData(data)
		ids = append(ids, id)
	}
}

// clientScan is the request the client writer tests send.
func clientScan(i int) WireRequest {
	return WireRequest{Op: "sum", Data: []int64{int64(i), -int64(i)}}
}

// TestClientWriterOneFlushInOrder: requests a client's callers queue
// before its writer drains leave in order, in one flush.
func TestClientWriterOneFlushInOrder(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			before := arena.Stats()
			rc := newRecConn(0)
			c := newClient(rc, DefaultMaxLineBytes)
			c.bin = bin
			const n = 8
			for i := 1; i <= n; i++ {
				if _, err := c.startRequest(context.Background(), clientScan(i)); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			go c.w.run()
			c.w.finish()

			if rc.writes != 1 {
				t.Fatalf("%d socket writes for %d queued requests, want 1", rc.writes, n)
			}
			got := requestIDs(t, bin, rc.buf.Bytes())
			if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
				t.Fatalf("request ids = %v, want %v", got, want)
			}
			if f, fl := c.frames.Load(), c.flushes.Load(); f != n || fl != 1 {
				t.Fatalf("client frames=%d flushes=%d, want %d and 1", f, fl, n)
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestClientWriterErrorFailsRoundTrips: a write error closes the
// connection, which fails every round trip, those already on the wire
// and those still queued, as a connection failure; later requests fail
// at once, the writer goroutine exits and the arena ledger closes.
func TestClientWriterErrorFailsRoundTrips(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			before := arena.Stats()
			bc := newBlockConn(2) // the first flush succeeds, every later write fails
			c := newClient(bc, DefaultMaxLineBytes)
			c.bin = bin
			ctx := context.Background()
			var pending []pendingResp
			// Once the failing write has closed the connection, a request
			// fails at once; until then it is queued.
			start := func(from, to int, mayFail bool) {
				for i := from; i <= to; i++ {
					p, err := c.startRequest(ctx, clientScan(i))
					switch {
					case err == nil:
						pending = append(pending, p)
					case !mayFail || !errors.Is(err, net.ErrClosed):
						t.Fatalf("request %d: %v", i, err)
					}
				}
			}
			start(1, 3, false)
			go c.w.run()
			go c.readLoop()
			for c.flushes.Load() == 0 {
				runtime.Gosched()
			}
			start(4, 6, true) // queued behind the failing write
			<-bc.failed
			// Bounded, so a connection the write error left open fails
			// the test instead of hanging it.
			wait, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			for i, p := range pending {
				if _, err := c.awaitResponse(wait, p); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("round trip %d: err %v, want the connection's failure", i+1, err)
				}
			}
			select {
			case <-c.w.done:
			case <-time.After(10 * time.Second):
				t.Fatal("client writer still running after its connection died")
			}
			if _, err := c.startRequest(ctx, clientScan(7)); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("request on a dead connection: err %v, want the connection's failure", err)
			}
			if !bc.closed {
				t.Fatal("write error left the connection open")
			}
			after := arena.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
			}
		})
	}
}

// TestClientWriterBoundsNonReadingServer: against a server that never
// reads, a client's writer holds its first flush and the callers behind
// it wait once maxQueued requests are queued; Close then fails them
// with the connection's error.
func TestClientWriterBoundsNonReadingServer(t *testing.T) {
	before := arena.Stats()
	cli, srv := net.Pipe() // unbuffered: the writer blocks on its first flush
	defer srv.Close()
	c := newClient(cli, DefaultMaxLineBytes)
	go c.w.run()
	go c.readLoop()

	// One caller sends more than the writer's batch (at most maxQueued)
	// and the queue (maxQueued) can hold, so it must wait.
	const total = 2*maxQueued + 1
	var pending []pendingResp
	var sendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(pending) < total {
			p, err := c.startRequest(context.Background(), clientScan(len(pending)+1))
			if err != nil {
				sendErr = err
				return
			}
			pending = append(pending, p)
		}
	}()
	queued := func() int {
		c.w.mu.Lock()
		defer c.w.mu.Unlock()
		return len(c.w.q)
	}
	for q := 0; q < maxQueued; q = queued() {
		select {
		case <-done:
			t.Fatalf("all %d requests left their caller against a server that never reads", total)
		default:
		}
		runtime.Gosched()
	}
	for range 1000 {
		if q := queued(); q > maxQueued {
			t.Fatalf("%d requests queued for a server that never reads, want <= %d", q, maxQueued)
		}
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatalf("the caller finished all %d sends against a server that never reads", total)
	default:
	}

	// Close unblocks the caller; every request it sent, and the one it
	// waited to send unless the dead writer took that too, fails as a
	// connection failure.
	c.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left a caller waiting for room")
	}
	// A pipe reports its close as io.ErrClosedPipe, not net.ErrClosed.
	connErr := c.connErr()
	if sendErr != nil && sendErr != connErr {
		t.Fatalf("send after Close: %v, want the connection's failure %v", sendErr, connErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, p := range pending {
		if _, err := c.awaitResponse(ctx, p); err != connErr {
			t.Fatalf("round trip %d after Close: err %v, want the connection's failure %v", i+1, err, connErr)
		}
	}
	t.Logf("caller sent %d requests before Close, send error %v", len(pending), sendErr)
	select {
	case <-c.w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("client writer still running after Close")
	}
	after := arena.Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("arena ledger does not close: %d gets != %d puts", gets, puts)
	}
}

// TestClientBadResponseLineFailsRoundTrip: a reply line the JSON client
// cannot parse fails the connection, and with it the round trip the
// line answered, instead of leaving that round trip waiting forever on
// a context with no deadline.
func TestClientBadResponseLineFailsRoundTrip(t *testing.T) {
	srv, conn := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := bufio.NewReader(srv).ReadBytes('\n'); err == nil {
			srv.Write([]byte(`{"id":1,"result":0,1]}` + "\n"))
		}
	}()
	c := newClient(conn, DefaultMaxLineBytes)
	go c.w.run()
	go c.readLoop()
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.ScanCtx(context.Background(), "sum", "", "", []int64{1, 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a malformed reply line answered the scan")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round trip still waiting 10 s after its reply line failed to parse")
	}
}
