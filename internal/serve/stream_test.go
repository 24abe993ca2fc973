package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"scans/internal/fault"
)

// fold computes the reference stream total: the op applied across all
// of data (identity for an empty stream).
func fold(op Op, data []int64) int64 {
	acc := Identity(op)
	for _, v := range data {
		acc = Combine(op, acc, v)
	}
	return acc
}

// waitStats polls until cond holds or the deadline hits — for
// assertions about worker-goroutine side effects (TTL expiry, conn
// teardown) that land asynchronously.
func waitStats(t *testing.T, stats func() Stats, cond func(Stats) bool, what string) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats: %v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamMatchesOneShot is the core acceptance property: a vector
// split into arbitrary chunks and pushed through a stream yields, chunk
// by chunk, exactly the slices of the one-shot scan — bit-identical,
// for every forward spec — and Close returns the fold of the whole
// vector.
func TestStreamMatchesOneShot(t *testing.T) {
	srv := New(Config{MaxWait: 50 * time.Microsecond})
	defer srv.Close()
	rng := rand.New(rand.NewSource(11))
	for _, spec := range allSpecs() {
		if spec.Dir == Backward {
			continue
		}
		for _, n := range []int{1, 2, 5, 17, 64, 257} {
			data := randomData(rng, n)
			want := directScan(spec, data)
			st, err := srv.OpenStream(spec, "")
			if err != nil {
				t.Fatalf("%v n=%d: OpenStream: %v", spec, n, err)
			}
			var got []int64
			for off := 0; off < n; {
				if rng.Intn(8) == 0 {
					// Empty chunks are no-ops and must not disturb the carry.
					if res, err := st.Push(context.Background(), nil); err != nil || len(res) != 0 {
						t.Fatalf("%v n=%d: empty Push = (%v, %v)", spec, n, res, err)
					}
				}
				sz := 1 + rng.Intn(n-off)
				res, err := st.Push(context.Background(), data[off:off+sz])
				if err != nil {
					t.Fatalf("%v n=%d off=%d: Push: %v", spec, n, off, err)
				}
				got = append(got, res...)
				off += sz
			}
			total, err := st.Close()
			if err != nil {
				t.Fatalf("%v n=%d: Close: %v", spec, n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v n=%d: streamed = %v, one-shot = %v", spec, n, got, want)
			}
			if wantTotal := fold(spec.Op, data); total != wantTotal {
				t.Fatalf("%v n=%d: total = %d, want %d", spec, n, total, wantTotal)
			}
		}
	}
}

// FuzzStreamedScanMatchesOneShot fuzzes the same property across ops,
// kinds, chunk sizes, and payloads.
func FuzzStreamedScanMatchesOneShot(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(3), []byte{1, 2, 3, 4, 5})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0xFF, 0x80, 0x7F})
	f.Add(uint8(3), uint8(0), uint8(7), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(2), uint8(1), uint8(16), []byte{})
	srv := New(Config{MaxWait: 20 * time.Microsecond})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, opb, kindb, chunkb uint8, raw []byte) {
		spec := Spec{
			Op:   Op(opb % uint8(opCount)),
			Kind: Kind(kindb % uint8(kindCount)),
			Dir:  Forward,
		}
		data := make([]int64, len(raw))
		for i, b := range raw {
			data[i] = int64(int8(b))
		}
		chunk := 1 + int(chunkb%31)
		want := directScan(spec, data)
		st, err := srv.OpenStream(spec, "")
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		got := []int64{}
		for off := 0; off < len(data); off += chunk {
			end := min(off+chunk, len(data))
			res, err := st.Push(context.Background(), data[off:end])
			if err != nil {
				t.Fatalf("Push at %d: %v", off, err)
			}
			got = append(got, res...)
		}
		total, err := st.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if len(data) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %v chunk %d: streamed %v != one-shot %v (data %v)", spec, chunk, got, want, data)
		}
		if wantTotal := fold(spec.Op, data); total != wantTotal {
			t.Fatalf("spec %v: total = %d, want %d", spec, total, wantTotal)
		}
	})
}

func TestStreamExclusiveCarrySemantics(t *testing.T) {
	// Pinned example: exclusive sum of [1,2,3 | 4,5] streamed in two
	// chunks. Chunk 2's first output is the fold of ALL of chunk 1 (6),
	// not chunk 1's last output (3) — the classic off-by-one an
	// exclusive carry invites. Total includes the final element.
	srv := New(Config{MaxWait: 20 * time.Microsecond})
	defer srv.Close()
	st, err := srv.OpenStream(Spec{Op: OpSum, Kind: Exclusive, Dir: Forward}, "")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	r1, err := st.Push(context.Background(), []int64{1, 2, 3})
	if err != nil || !reflect.DeepEqual(r1, []int64{0, 1, 3}) {
		t.Fatalf("chunk 1 = (%v, %v), want [0 1 3]", r1, err)
	}
	r2, err := st.Push(context.Background(), []int64{4, 5})
	if err != nil || !reflect.DeepEqual(r2, []int64{6, 10}) {
		t.Fatalf("chunk 2 = (%v, %v), want [6 10]", r2, err)
	}
	total, err := st.Close()
	if err != nil || total != 15 {
		t.Fatalf("total = (%d, %v), want 15", total, err)
	}
}

func TestStreamBackwardRejected(t *testing.T) {
	srv := New(Config{MaxWait: 20 * time.Microsecond})
	defer srv.Close()
	_, err := srv.OpenStream(Spec{Op: OpSum, Kind: Inclusive, Dir: Backward}, "")
	if !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("backward OpenStream err = %v, want ErrStreamUnsupported", err)
	}
	// The rejection is a bad-request (not retryable), per the documented
	// contract: a backward carry would depend on chunks not yet arrived.
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ErrStreamUnsupported must wrap ErrBadRequest, got %v", err)
	}
	if (RetryPolicy{}).Retryable(err) {
		t.Fatal("backward-stream rejection must not be retryable")
	}
}

func TestStreamOpsAfterCloseAndDoubleClose(t *testing.T) {
	srv := New(Config{MaxWait: 20 * time.Microsecond})
	defer srv.Close()
	st, _ := srv.OpenStream(Spec{Op: OpSum}, "")
	if _, err := st.Push(context.Background(), []int64{1}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if _, err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := st.Push(context.Background(), []int64{2}); !errors.Is(err, ErrNoStream) {
		t.Fatalf("Push after Close = %v, want ErrNoStream", err)
	}
	if _, err := st.Close(); !errors.Is(err, ErrNoStream) {
		t.Fatalf("double Close = %v, want ErrNoStream", err)
	}
}

// TestStreamChunkFailureKillsStream: a chunk that dies to an isolated
// kernel panic reports ErrInternal, and every later operation on the
// stream — including Close — reports ErrStreamFailed; the session's
// state is freed (ledger shows it failed, active back to zero).
func TestStreamChunkFailureKillsStream(t *testing.T) {
	faults := fault.New(1)
	srv := New(Config{MaxWait: 20 * time.Microsecond, Faults: faults})
	defer srv.Close()
	st, err := srv.OpenStream(Spec{Op: OpSum, Kind: Inclusive, Dir: Forward}, "")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := st.Push(context.Background(), []int64{1, 2}); err != nil {
		t.Fatalf("healthy Push: %v", err)
	}
	faults.Arm(fault.KernelPanic, 1)
	if _, err := st.Push(context.Background(), []int64{3}); !errors.Is(err, ErrInternal) {
		t.Fatalf("panicked Push = %v, want ErrInternal", err)
	}
	faults.DisarmAll()
	if _, err := st.Push(context.Background(), []int64{4}); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("Push after failure = %v, want ErrStreamFailed", err)
	}
	if _, err := st.Close(); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("Close after failure = %v, want ErrStreamFailed", err)
	}
	stats := srv.Stats()
	if stats.StreamsFailed != 1 || stats.StreamsActive != 0 {
		t.Fatalf("ledger after failure: %v, want failed=1 active=0", stats)
	}
}

func TestClientStreamScanWire(t *testing.T) {
	ns := startNet(t, Config{MaxWait: 50 * time.Microsecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []string{"exclusive", "inclusive"} {
		data := randomData(rng, 1000)
		want := directScan(mustSpec(t, "sum", kind, "forward"), data)
		got, err := c.StreamScan(context.Background(), "sum", kind, "", data, 64)
		if err != nil {
			t.Fatalf("StreamScan(%s): %v", kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("StreamScan(%s) diverges from one-shot reference", kind)
		}
	}
	// Explicit session: per-chunk results and the total.
	s, err := c.OpenStream(context.Background(), "max", "inclusive", "")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if res, err := s.Send(context.Background(), []int64{3, 9, 2}); err != nil || !reflect.DeepEqual(res, []int64{3, 9, 9}) {
		t.Fatalf("Send 1 = (%v, %v)", res, err)
	}
	if res, err := s.Send(context.Background(), []int64{5, 11}); err != nil || !reflect.DeepEqual(res, []int64{9, 11}) {
		t.Fatalf("Send 2 = (%v, %v)", res, err)
	}
	total, err := s.Close(context.Background())
	if err != nil || total != 11 {
		t.Fatalf("Close = (%d, %v), want 11", total, err)
	}
	if _, err := s.Send(context.Background(), []int64{1}); !errors.Is(err, ErrNoStream) {
		t.Fatalf("Send after Close = %v, want ErrNoStream", err)
	}
}

func mustSpec(t *testing.T, op, kind, dir string) Spec {
	t.Helper()
	spec, err := ParseSpec(op, kind, dir)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sendLine marshals v and writes it as one protocol line.
func sendLine(t *testing.T, conn net.Conn, v any) {
	t.Helper()
	line, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestNetStreamProtocolErrors(t *testing.T) {
	ns := startNet(t, Config{MaxWait: 20 * time.Microsecond})
	conn, r := rawConn(t, ns.Addr())

	// Chunk for a stream that was never opened.
	sendLine(t, conn, WireRequest{ID: 1, Type: "stream_chunk", Stream: 5, Data: []int64{1}})
	if resp := readResp(t, r); resp.Code != CodeNoStream {
		t.Fatalf("chunk on unopened stream: code %q, want %q", resp.Code, CodeNoStream)
	}
	// Close for a stream that was never opened.
	sendLine(t, conn, WireRequest{ID: 2, Type: "stream_close", Stream: 5})
	if resp := readResp(t, r); resp.Code != CodeNoStream {
		t.Fatalf("close on unopened stream: code %q, want %q", resp.Code, CodeNoStream)
	}
	// Backward specs cannot stream; the wire carries the dedicated code
	// and the client maps it back to the typed sentinel.
	sendLine(t, conn, WireRequest{ID: 3, Type: "stream_open", Stream: 1, Op: "sum", Dir: "backward"})
	resp := readResp(t, r)
	if resp.Code != CodeStreamUnsupported {
		t.Fatalf("backward stream_open: code %q, want %q", resp.Code, CodeStreamUnsupported)
	}
	if err := errorForCode(resp.Code, resp.Error); !errors.Is(err, ErrStreamUnsupported) || !errors.Is(err, ErrBadRequest) {
		t.Fatalf("decoded backward rejection %v, want ErrStreamUnsupported wrapping ErrBadRequest", err)
	}
	// Duplicate stream id on one connection.
	sendLine(t, conn, WireRequest{ID: 4, Type: "stream_open", Stream: 7, Op: "sum"})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("open: %v", resp.Error)
	}
	sendLine(t, conn, WireRequest{ID: 5, Type: "stream_open", Stream: 7, Op: "sum"})
	if resp := readResp(t, r); resp.Code != CodeBadRequest {
		t.Fatalf("duplicate open: code %q, want %q", resp.Code, CodeBadRequest)
	}
	// Unknown message type.
	sendLine(t, conn, WireRequest{ID: 6, Type: "stream_frobnicate", Stream: 7})
	if resp := readResp(t, r); resp.Code != CodeBadRequest {
		t.Fatalf("unknown type: code %q, want %q", resp.Code, CodeBadRequest)
	}
}

func TestNetStreamCapAndDisable(t *testing.T) {
	ns := startNetCfg(t, Config{MaxWait: 20 * time.Microsecond}, NetConfig{MaxStreams: 2})
	conn, r := rawConn(t, ns.Addr())
	for sid := uint64(1); sid <= 2; sid++ {
		sendLine(t, conn, WireRequest{ID: sid, Type: "stream_open", Stream: sid, Op: "sum"})
		if resp := readResp(t, r); resp.Error != "" {
			t.Fatalf("open %d: %v", sid, resp.Error)
		}
	}
	sendLine(t, conn, WireRequest{ID: 3, Type: "stream_open", Stream: 3, Op: "sum"})
	resp := readResp(t, r)
	if resp.Code != CodeOverloaded {
		t.Fatalf("over-cap open: code %q, want %q", resp.Code, CodeOverloaded)
	}
	if err := errorForCode(resp.Code, resp.Error); !(RetryPolicy{}).Retryable(err) {
		t.Fatal("over-cap open must be retryable (slots free up)")
	}
	// Closing one stream frees a slot.
	sendLine(t, conn, WireRequest{ID: 4, Type: "stream_close", Stream: 1})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("close: %v", resp.Error)
	}
	sendLine(t, conn, WireRequest{ID: 5, Type: "stream_open", Stream: 3, Op: "sum"})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("open after free: %v", resp.Error)
	}

	// MaxStreams < 0 disables streaming wholesale.
	ns2 := startNetCfg(t, Config{MaxWait: 20 * time.Microsecond}, NetConfig{MaxStreams: -1})
	conn2, r2 := rawConn(t, ns2.Addr())
	sendLine(t, conn2, WireRequest{ID: 1, Type: "stream_open", Stream: 1, Op: "sum"})
	if resp := readResp(t, r2); resp.Code != CodeBadRequest {
		t.Fatalf("disabled streaming open: code %q, want %q", resp.Code, CodeBadRequest)
	}
}

func TestNetStreamIdleTTL(t *testing.T) {
	ns := startNetCfg(t, Config{MaxWait: 20 * time.Microsecond}, NetConfig{StreamIdleTTL: 30 * time.Millisecond})
	conn, r := rawConn(t, ns.Addr())
	sendLine(t, conn, WireRequest{ID: 1, Type: "stream_open", Stream: 1, Op: "sum"})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("open: %v", resp.Error)
	}
	sendLine(t, conn, WireRequest{ID: 2, Type: "stream_chunk", Stream: 1, Data: []int64{1, 2}})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("chunk: %v", resp.Error)
	}
	// Go idle past the TTL: the session's carry is freed server-side...
	waitStats(t, ns.Stats, func(s Stats) bool { return s.StreamsExpired == 1 && s.StreamsActive == 0 },
		"idle stream to expire")
	// ...and a late chunk gets no_stream, not a silent wrong-carry scan.
	sendLine(t, conn, WireRequest{ID: 3, Type: "stream_chunk", Stream: 1, Data: []int64{3}})
	if resp := readResp(t, r); resp.Code != CodeNoStream {
		t.Fatalf("post-TTL chunk: code %q, want %q", resp.Code, CodeNoStream)
	}
}

// TestNetResponseBudget is the response-blowout regression: a server
// with a small line budget must refuse (not emit) one-shot responses
// that could exceed it — leaving the connection usable — and the same
// vector must go through fine as a stream of small chunks.
func TestNetResponseBudget(t *testing.T) {
	const budget = 4096
	ns := startNetCfg(t, Config{MaxWait: 20 * time.Microsecond}, NetConfig{MaxLineBytes: budget})
	c, err := DialMaxLineProto(ns.Addr(), budget, ProtoJSON)
	if err != nil {
		t.Fatalf("DialMaxLineProto: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(5))
	big := randomData(rng, 300) // worst-case response 48+21*300 > 4096; request line itself fits
	if maxRespBytes(len(big)) <= budget {
		t.Fatal("test vector too small to trip the response budget")
	}
	_, err = c.Scan("sum", "", "", big)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("over-budget one-shot = %v, want ErrBadRequest (too_large)", err)
	}
	if !strings.Contains(err.Error(), "stream") {
		t.Fatalf("refusal should point at streaming, got %q", err)
	}
	// The connection survived the refusal.
	if got, err := c.Scan("sum", "inclusive", "", []int64{1, 2, 3}); err != nil || !reflect.DeepEqual(got, []int64{1, 3, 6}) {
		t.Fatalf("scan after refusal = (%v, %v)", got, err)
	}
	// Streaming is the documented escape hatch for the same vector.
	want := directScan(mustSpec(t, "sum", "exclusive", "forward"), big)
	got, err := c.StreamScan(context.Background(), "sum", "", "", big, 100)
	if err != nil {
		t.Fatalf("StreamScan under small budget: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed result diverges from reference under small budget")
	}
	// An oversized single CHUNK is refused too — and fails its stream,
	// because skipping it would corrupt the carry.
	s, err := c.OpenStream(context.Background(), "sum", "", "")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := s.Send(context.Background(), big); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized chunk = %v, want ErrBadRequest (too_large)", err)
	}
	if _, err := s.Send(context.Background(), []int64{1}); err == nil {
		t.Fatal("stream must be dead after an oversized chunk")
	}
	waitStats(t, ns.Stats, func(s Stats) bool { return s.StreamsActive == 0 },
		"killed stream to leave the ledger")
}

// TestNetStreamSessionFreedOnConnClose: a client that vanishes with
// streams open (the conn.drop case) must leak no session state — the
// server aborts the streams and the active gauge returns to zero.
func TestNetStreamSessionFreedOnConnClose(t *testing.T) {
	ns := startNet(t, Config{MaxWait: 20 * time.Microsecond})
	conn, r := rawConn(t, ns.Addr())
	for sid := uint64(1); sid <= 3; sid++ {
		sendLine(t, conn, WireRequest{ID: sid, Type: "stream_open", Stream: sid, Op: "sum"})
		if resp := readResp(t, r); resp.Error != "" {
			t.Fatalf("open %d: %v", sid, resp.Error)
		}
	}
	sendLine(t, conn, WireRequest{ID: 10, Type: "stream_chunk", Stream: 2, Data: []int64{1, 2, 3}})
	if resp := readResp(t, r); resp.Error != "" {
		t.Fatalf("chunk: %v", resp.Error)
	}
	if st := ns.Stats(); st.StreamsActive != 3 {
		t.Fatalf("active = %d, want 3", st.StreamsActive)
	}
	conn.Close() // abrupt: no stream_close for any of them
	st := waitStats(t, ns.Stats, func(s Stats) bool { return s.StreamsActive == 0 },
		"sessions to be freed after abrupt close")
	if st.StreamsFailed != 3 {
		t.Fatalf("failed = %d, want 3 (aborted by conn teardown); stats %v", st.StreamsFailed, st)
	}
	if st.StreamsOpened != st.StreamsClosed+st.StreamsFailed+st.StreamsExpired {
		t.Fatalf("stream ledger does not close: %v", st)
	}
}
