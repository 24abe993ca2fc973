package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
	"scans/internal/fault"
)

// dialBinT dials the binary protocol and closes the client when the
// test ends.
func dialBinT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialBin(addr)
	if err != nil {
		t.Fatalf("DialBin: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawBinConn dials and runs the binary handshake by hand, returning the
// negotiated connection for frame-level tests.
func rawBinConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, r := rawConn(t, addr)
	if _, err := conn.Write([]byte(binwire.Magic)); err != nil {
		t.Fatalf("write magic: %v", err)
	}
	ack := make([]byte, len(binwire.Magic))
	if _, err := io.ReadFull(r, ack); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	if string(ack) != binwire.Magic {
		t.Fatalf("bad ack %q", ack)
	}
	return conn, r
}

// readBinResp reads and decodes one response frame off a raw conn.
func readBinResp(t *testing.T, r *bufio.Reader) binwire.Response {
	t.Helper()
	payload, err := binwire.ReadFrame(r, 1<<20)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := binwire.ParseResponse(payload)
	arena.PutBytes(payload)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return resp
}

// TestBinScanMatchesJSON drives every spec through a binary client and
// a JSON client against one server and requires identical results: the
// codecs are transport, not semantics.
func TestBinScanMatchesJSON(t *testing.T) {
	ns := startNet(t, Config{})
	bc := dialBinT(t, ns.Addr())
	jc, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer jc.Close()

	rng := rand.New(rand.NewSource(11))
	for _, op := range []string{"sum", "max", "min", "mul"} {
		for _, kind := range []string{"inclusive", "exclusive"} {
			for _, dir := range []string{"forward", "backward"} {
				for _, n := range []int{0, 1, 7, 1000} {
					data := randomData(rng, n)
					bres, berr := bc.Scan(op, kind, dir, data)
					jres, jerr := jc.Scan(op, kind, dir, data)
					if (berr == nil) != (jerr == nil) {
						t.Fatalf("%s/%s/%s n=%d: bin err %v vs json err %v", op, kind, dir, n, berr, jerr)
					}
					if berr != nil {
						continue
					}
					if len(bres) != len(jres) {
						t.Fatalf("%s/%s/%s n=%d: bin %d elems vs json %d", op, kind, dir, n, len(bres), len(jres))
					}
					for i := range bres {
						if bres[i] != jres[i] {
							t.Fatalf("%s/%s/%s n=%d: element %d: bin %d vs json %d", op, kind, dir, n, i, bres[i], jres[i])
						}
					}
					releaseData(bres)
					releaseData(jres)
				}
			}
		}
	}
}

// TestBinFloatScanMatchesJSON covers the float64 payload path with the
// values JSON encodes via special tokens: results must match the JSON
// codec bitwise (NaN payloads and infinity signs included).
func TestBinFloatScanMatchesJSON(t *testing.T) {
	ns := startNet(t, Config{})
	bc := dialBinT(t, ns.Addr())
	jc, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer jc.Close()

	// sum demands exactly-representable integers; max/min take infinities
	// (NaN has no position in the float order and is rejected — checked
	// below). Exclusive max/min scans emit the identity as ∓Inf, so both
	// directions of the special-token codec get exercised.
	inputs := map[string][]float64{
		"sum": {1, -3, 4096, 0, 1 << 51},
		"max": {1.5, math.Inf(1), -2.25, math.Inf(-1), -0.0, 1e300},
		"min": {1.5, math.Inf(1), -2.25, math.Inf(-1), -0.0, 1e300},
	}
	for op, data := range inputs {
		for _, kind := range []string{"inclusive", "exclusive"} {
			bres, berr := bc.ScanFloats(context.Background(), op, kind, "forward", data)
			jres, jerr := jc.ScanFloats(context.Background(), op, kind, "forward", data)
			if berr != nil || jerr != nil {
				t.Fatalf("%s/%s: bin err %v, json err %v", op, kind, berr, jerr)
			}
			if len(bres) != len(jres) {
				t.Fatalf("%s/%s: bin %d elems vs json %d", op, kind, len(bres), len(jres))
			}
			for i := range bres {
				if math.Float64bits(bres[i]) != math.Float64bits(jres[i]) {
					t.Fatalf("%s/%s: element %d: bin %x vs json %x", op, kind, i, math.Float64bits(bres[i]), math.Float64bits(jres[i]))
				}
			}
		}
	}
	// NaN input is rejected identically through both codecs.
	nan := []float64{1, math.NaN()}
	if _, err := bc.ScanFloats(context.Background(), "max", "inclusive", "forward", nan); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN over bin: %v, want ErrBadRequest", err)
	}
	if _, err := jc.ScanFloats(context.Background(), "max", "inclusive", "forward", nan); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN over json: %v, want ErrBadRequest", err)
	}
}

// TestBinStreaming runs a full streaming session (open, chunks, close
// with total) over the binary protocol, checking the carry against a
// one-shot scan of the concatenated data.
func TestBinStreaming(t *testing.T) {
	ns := startNet(t, Config{})
	bc := dialBinT(t, ns.Addr())

	ctx := context.Background()
	st, err := bc.OpenStream(ctx, "sum", "inclusive", "forward")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	rng := rand.New(rand.NewSource(23))
	var all []int64
	for chunk := 0; chunk < 5; chunk++ {
		data := randomData(rng, 100+chunk)
		all = append(all, data...)
		res, err := st.Send(ctx, data)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		// Each chunk's output must continue the running prefix sum.
		var want int64
		for _, v := range all[:len(all)-len(data)] {
			want += v
		}
		for i, v := range data {
			want += v
			if res[i] != want {
				t.Fatalf("chunk %d element %d: got %d want %d", chunk, i, res[i], want)
			}
		}
		releaseData(res)
	}
	total, err := st.Close(ctx)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	var want int64
	for _, v := range all {
		want += v
	}
	if total != want {
		t.Fatalf("total %d want %d", total, want)
	}

	// StreamScan exercises the same frames through the convenience path.
	data := randomData(rng, 2048)
	got, err := bc.StreamScan(ctx, "sum", "exclusive", "forward", data, 300)
	if err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	var acc int64
	for i, v := range data {
		if got[i] != acc {
			t.Fatalf("StreamScan element %d: got %d want %d", i, got[i], acc)
		}
		acc += v
	}
	releaseData(got)
}

// TestBinErrorParity: spec validation happens server-side in ParseSpec
// for both codecs, so a bad spec over binary must yield the same typed
// error a JSON client gets.
func TestBinErrorParity(t *testing.T) {
	ns := startNet(t, Config{})
	bc := dialBinT(t, ns.Addr())
	jc, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer jc.Close()

	cases := []struct {
		name          string
		op, kind, dir string
	}{
		{"bad-op", "bogus", "inclusive", "forward"},
		{"bad-kind", "sum", "sideways", "forward"},
		{"bad-dir", "sum", "inclusive", "up"},
	}
	for _, tc := range cases {
		_, berr := bc.Scan(tc.op, tc.kind, tc.dir, []int64{1, 2})
		_, jerr := jc.Scan(tc.op, tc.kind, tc.dir, []int64{1, 2})
		if !errors.Is(berr, ErrBadRequest) {
			t.Fatalf("%s: bin error %v, want ErrBadRequest", tc.name, berr)
		}
		if !errors.Is(jerr, ErrBadRequest) {
			t.Fatalf("%s: json error %v, want ErrBadRequest", tc.name, jerr)
		}
	}
	// mul over floats is rejected (no exact float product path).
	if _, err := bc.ScanFloats(context.Background(), "mul", "inclusive", "forward", []float64{1, 2}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("float mul over bin: %v, want ErrBadRequest", err)
	}
}

// TestBinFrameTooBig: an over-budget frame gets a too_large response
// with the id salvaged from the length-prefixed ruins, then the
// connection dies — binary framing has no resync point after a length
// violation.
func TestBinFrameTooBig(t *testing.T) {
	ns := startNetCfg(t, Config{}, NetConfig{MaxLineBytes: 4096})
	bc := dialBinT(t, ns.Addr())

	_, err := bc.Scan("sum", "inclusive", "forward", make([]int64, 1024))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized frame: got %v, want ErrBadRequest (too_large)", err)
	}
	// The server closed the connection after answering.
	if _, err := bc.Scan("sum", "inclusive", "forward", []int64{1}); err == nil {
		t.Fatal("connection survived a length violation")
	}
}

// TestBinBadPayloadKeepsConn: payload damage inside an intact frame is
// the binary analogue of bad_json — answered and skipped, connection
// kept. The follow-up request on the same connection must still work.
func TestBinBadPayloadKeepsConn(t *testing.T) {
	ns := startNet(t, Config{})
	conn, r := rawBinConn(t, ns.Addr())

	// An intact frame whose payload declares an unknown type byte.
	bad := []byte{9, 0, 0, 0, 0x7F, 1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := conn.Write(bad); err != nil {
		t.Fatalf("write bad frame: %v", err)
	}
	resp := readBinResp(t, r)
	if resp.Type != binwire.FError || resp.Code != CodeBadFrame {
		t.Fatalf("bad payload: got %+v, want %s", resp, CodeBadFrame)
	}

	// Framing is still in sync: a valid scan on the same conn succeeds.
	frame := binwire.AppendScan(nil, 7, 0, 1, 0, binwire.ElemInt64, 0, "", []int64{1, 2, 3}, nil)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write good frame: %v", err)
	}
	resp = readBinResp(t, r)
	if resp.Type != binwire.FResult || resp.ID != 7 || len(resp.Result) != 3 ||
		resp.Result[0] != 1 || resp.Result[1] != 3 || resp.Result[2] != 6 {
		t.Fatalf("scan after bad payload: got %+v", resp)
	}
	releaseData(resp.Result)

	// A zero-length frame is length-level damage: answered bad_frame,
	// then the connection dies.
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatalf("write zero frame: %v", err)
	}
	resp = readBinResp(t, r)
	if resp.Type != binwire.FError || resp.Code != CodeBadFrame {
		t.Fatalf("zero-length frame: got %+v, want %s", resp, CodeBadFrame)
	}
	if _, err := binwire.ReadFrame(r, 1<<20); err == nil {
		t.Fatal("connection survived length-level damage")
	}
}

// TestBinStreamOpenAnsweredWithAck pins the single stream-open frame:
// a plain FStreamOpen on a plain NetServer is answered with FAck
// carrying the flow-control window (and no resume token — an
// in-process Server has no resume table). TestStreamFlowControlWindow
// checks the same window through Client.OpenStream.
func TestBinStreamOpenAnsweredWithAck(t *testing.T) {
	ns := startNet(t, Config{})
	conn, r := rawBinConn(t, ns.Addr())
	frame := binwire.AppendStreamOpen(nil, 7, 1, 0, 1, 0, binwire.ElemInt64)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write FStreamOpen: %v", err)
	}
	resp := readBinResp(t, r)
	if resp.Type != binwire.FAck || resp.ID != 7 || resp.Window != StreamWindow || resp.Token != "" {
		t.Fatalf("FStreamOpen answer = %+v, want FAck id 7 window %d no token", resp, StreamWindow)
	}
}

// TestBinDialRefusedByJSONOnlyServer runs a binary dial against a fake
// JSON-only server: one that treats the Magic preamble as a garbage
// JSON line. The dial must fail with the server's bad_json answer
// instead of degrading to JSON on the same connection.
func TestBinDialRefusedByJSONOnlyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		// The magic arrives as one newline-terminated garbage "line".
		if _, err := r.ReadString('\n'); err != nil {
			return
		}
		fmt.Fprintf(conn, `{"id":0,"error":"request is not valid JSON","code":%q}`+"\n", CodeBadJSON)
		// Hold the connection open until the client hangs up, so the
		// dial error comes from the answer, not from an EOF.
		io.Copy(io.Discard, r)
	}()

	c, err := DialBin(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("DialBin against a JSON-only server succeeded; want an error, not a JSON downgrade")
	}
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("DialBin against a JSON-only server = %v, want the bad_json answer (ErrBadRequest)", err)
	}
}

// TestBinMultiplexing is the mux acceptance test: one binary
// connection, 65 concurrent in-flight requests, responses completing
// out of submission order.
//
// Phase 1 pins the in-flight count: with fusion disabled and every
// batch's kernel pass slowed, no response can arrive until well after
// all 65 submissions are on the wire, so the peak concurrent-waiter
// count must reach 65 — 65 unanswered requests multiplexed on one
// socket.
//
// Phase 2 pins reordering deterministically: a slow request is
// submitted first, a fast one second, and the fast one must return
// while the slow one is still in flight.
func TestBinMultiplexing(t *testing.T) {
	faults := fault.New(1)
	ns := startNet(t, Config{MaxBatchRequests: 1, Executors: 8, Faults: faults})
	bc := dialBinT(t, ns.Addr())

	const concurrent = 65
	faults.ArmSleep(fault.KernelSlow, 1, 60*time.Millisecond)

	var (
		inflight, peak atomic.Int64
		mu             sync.Mutex
		order          []int
		wg             sync.WaitGroup
	)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer inflight.Add(-1)
			res, err := bc.Scan("sum", "inclusive", "forward", []int64{int64(i), 1})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(res) != 2 || res[0] != int64(i) || res[1] != int64(i)+1 {
				t.Errorf("request %d: got %v", i, res)
			}
			releaseData(res)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p < concurrent {
		t.Fatalf("peak in-flight %d, want %d on one connection", p, concurrent)
	}
	if len(order) != concurrent {
		t.Fatalf("only %d of %d responses arrived", len(order), concurrent)
	}

	// Phase 2: deterministic out-of-order completion. The first request
	// is submitted while the kernel is slowed 120ms; the chaos is then
	// disarmed and a second request submitted, which must complete while
	// the first still waits on its batch.
	faults.ArmSleep(fault.KernelSlow, 1, 120*time.Millisecond)
	var slowDone atomic.Bool
	done := make(chan error, 1)
	go func() {
		res, err := bc.Scan("sum", "inclusive", "forward", []int64{1, 2, 3})
		slowDone.Store(true)
		releaseData(res)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // slow request is in its kernel sleep now
	faults.Disarm(fault.KernelSlow)
	fast, err := bc.Scan("sum", "inclusive", "forward", []int64{9})
	if err != nil {
		t.Fatalf("fast request: %v", err)
	}
	releaseData(fast)
	if slowDone.Load() {
		t.Fatal("slow request finished before the fast one submitted after it: no reordering observed")
	}
	if err := <-done; err != nil {
		t.Fatalf("slow request: %v", err)
	}
}
