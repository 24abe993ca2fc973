package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scans/internal/binwire"
	"scans/internal/fault"
)

// startNet spins up a NetServer on a loopback port for tests.
func startNet(t *testing.T, cfg Config) *NetServer {
	t.Helper()
	return startNetCfg(t, cfg, NetConfig{})
}

// startNetCfg is startNet with explicit network limits.
func startNetCfg(t *testing.T, cfg Config, ncfg NetConfig) *NetServer {
	t.Helper()
	ns, err := ListenNet("127.0.0.1:0", cfg, ncfg)
	if err != nil {
		t.Fatalf("ListenNet: %v", err)
	}
	t.Cleanup(ns.Close)
	return ns
}

// rawConn dials the server without the Client wrapper, for tests that
// need to send broken lines and inspect raw responses.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// readResp reads one WireResponse line off a raw connection.
func readResp(t *testing.T, r *bufio.Reader) WireResponse {
	t.Helper()
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp WireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	return resp
}

func TestNetRoundTripSmoke(t *testing.T) {
	// The acceptance smoke test: server started in-process, the load
	// generator's client dials it, scans round-trip with exact results.
	ns := startNet(t, Config{MaxWait: 100 * time.Microsecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	got, err := c.Scan("sum", "", "", []int64{2, 1, 2, 3, 5, 8})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if want := []int64{0, 2, 3, 5, 8, 13}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sum scan = %v, want %v", got, want)
	}

	got, err = c.Scan("max", "inclusive", "backward", []int64{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatalf("backward max Scan: %v", err)
	}
	if want := []int64{5, 5, 5, 5, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("backward inclusive max = %v, want %v", got, want)
	}

	if got, err := c.Scan("min", "", "", []int64{}); err != nil || len(got) != 0 {
		t.Fatalf("empty scan = (%v, %v), want ([], nil)", got, err)
	}

	if st := ns.Stats(); st.Requests < 3 {
		t.Fatalf("server stats saw %d requests, want >= 3", st.Requests)
	}
}

func TestNetBadRequests(t *testing.T) {
	ns := startNet(t, Config{})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Scan("xor", "", "", []int64{1}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op over the wire = %v, want unknown-op error", err)
	}
	// The connection must survive a bad request.
	if _, err := c.Scan("sum", "", "", []int64{1, 1}); err != nil {
		t.Fatalf("scan after bad request: %v", err)
	}
}

func TestNetConcurrentClientsAgainstReference(t *testing.T) {
	// Several connections × several goroutines each, all fusing into
	// the same server; every response must match the serial reference.
	ns := startNet(t, Config{MaxWait: 200 * time.Microsecond})
	specs := allSpecs()
	const conns, perConn, reqs = 3, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	for ci := 0; ci < conns; ci++ {
		c, err := Dial(ns.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		for g := 0; g < perConn; g++ {
			wg.Add(1)
			go func(seed int64, c *Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < reqs; i++ {
					spec := specs[rng.Intn(len(specs))]
					data := randomData(rng, 1+rng.Intn(32))
					if spec.Op == OpMul {
						for j := range data {
							data[j] = 2*(data[j]&1) - 1
						}
					}
					got, err := c.Scan(spec.Op.String(), spec.Kind.String(), spec.Dir.String(), data)
					if err != nil {
						errs <- err
						return
					}
					if want := directScan(spec, data); !reflect.DeepEqual(got, want) {
						errs <- &mismatchError{spec: spec}
						return
					}
				}
			}(int64(ci*100+g), c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ spec Spec }

func (e *mismatchError) Error() string {
	return "wire result differs from direct kernel for " + e.spec.String()
}

func TestNetMalformedJSONGetsStructuredError(t *testing.T) {
	// A malformed line must produce a structured error response carrying
	// the recoverable request id and a machine code — and the connection
	// must survive to serve the next request.
	ns := startNet(t, Config{})
	conn, r := rawConn(t, ns.Addr())

	if _, err := conn.Write([]byte(`{"id":7,"op":"sum","data":[1,2` + "\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp := readResp(t, r)
	if resp.ID != 7 || resp.Code != CodeBadJSON || resp.Error == "" {
		t.Fatalf("malformed-line response = %+v, want id=7 code=%q", resp, CodeBadJSON)
	}

	if _, err := conn.Write([]byte(`{"id":8,"op":"sum","data":[1,2]}` + "\n")); err != nil {
		t.Fatalf("write after bad line: %v", err)
	}
	resp = readResp(t, r)
	if resp.ID != 8 || resp.Error != "" || !reflect.DeepEqual([]int64(resp.Result), []int64{0, 1}) {
		t.Fatalf("request after bad line = %+v, want served result", resp)
	}
}

func TestNetOversizedLineGetsStructuredError(t *testing.T) {
	// A line over MaxLineBytes must be answered with a too_large error
	// matched to the request id (recovered from the line prefix), then
	// the connection closes.
	ns := startNetCfg(t, Config{}, NetConfig{MaxLineBytes: 1 << 12})
	conn, r := rawConn(t, ns.Addr())

	line := []byte(`{"id":99,"op":"sum","data":[`)
	for len(line) < 1<<14 {
		line = append(line, []byte("1234567,")...)
	}
	line = append(line, []byte("1]}\n")...)
	if _, err := conn.Write(line); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp := readResp(t, r)
	if resp.ID != 99 || resp.Code != CodeTooLarge {
		t.Fatalf("oversized-line response = %+v, want id=99 code=%q", resp, CodeTooLarge)
	}
	// Connection is closed after the reply.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}

func TestNetPerConnInflightCap(t *testing.T) {
	// With a slow kernel and an in-flight cap of 1, a second request on
	// the same connection while the first executes must be rejected with
	// a retryable overloaded error — and served fine once the first
	// completes.
	faults := fault.New(1)
	faults.ArmSleep(fault.KernelSlow, 1, 150*time.Millisecond)
	ns := startNetCfg(t, Config{Faults: faults}, NetConfig{PerConnInflight: 1})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Scan("sum", "", "", []int64{1, 2, 3})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first request occupy its slot
	if _, err := c.Scan("sum", "", "", []int64{4, 5}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second in-flight scan err = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first scan: %v", err)
	}
	faults.DisarmAll()
	if _, err := c.Scan("sum", "", "", []int64{4, 5}); err != nil {
		t.Fatalf("scan after cap release: %v", err)
	}
}

func TestNetPerConnInflightCapNonReadingClient(t *testing.T) {
	// A client that pipelines requests and never reads its socket is
	// still held to PerConnInflight: an answer keeps its slot until the
	// connection's writer takes it up, and that writer blocks on the
	// first answer nobody reads (net.Pipe is unbuffered). Each request
	// is sent once the one before it has been computed, so a slot freed
	// any earlier than the writer would let every request in. With a cap
	// of two, one taken-up answer plus two held slots is all the server
	// may owe, so the fourth request must be refused.
	for _, bin := range []bool{false, true} {
		name := "json"
		if bin {
			name = "binwire"
		}
		t.Run(name, func(t *testing.T) {
			ns := startNetCfg(t, Config{}, NetConfig{PerConnInflight: 2})
			cli, srv := net.Pipe()
			served := make(chan struct{})
			go func() {
				ns.handle(srv)
				close(served)
			}()
			defer func() {
				cli.Close()
				<-served
			}()
			cli.SetDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(cli)
			if bin {
				if _, err := cli.Write([]byte(binwire.Magic)); err != nil {
					t.Fatalf("write preamble: %v", err)
				}
				ack := make([]byte, len(binwire.Magic))
				if _, err := io.ReadFull(r, ack); err != nil {
					t.Fatalf("read preamble ack: %v", err)
				}
			}
			const n = 4
			for id := uint64(1); id <= n; id++ {
				var msg []byte
				if bin {
					msg = binwire.AppendScan(nil, id, binOpByte("sum"), binKindByte(""), binDirByte(""),
						binElemByte(""), 0, "", []int64{1, 2}, nil)
				} else {
					msg = fmt.Appendf(nil, `{"id":%d,"op":"sum","data":[1,2]}`+"\n", id)
				}
				// A pipe write returns once the server has read it.
				if _, err := cli.Write(msg); err != nil {
					t.Fatalf("write request %d: %v", id, err)
				}
				// Wait for it to be computed; a refused request never is.
				for wait := time.Now().Add(500 * time.Millisecond); ns.srv.Stats().Served < id && time.Now().Before(wait); {
					time.Sleep(time.Millisecond)
				}
			}
			overloaded := 0
			for i := 0; i < n; i++ {
				var resp WireResponse
				if bin {
					payload, err := binwire.ReadFrame(r, 1<<20)
					if err != nil {
						t.Fatalf("read frame %d: %v", i, err)
					}
					bresp, err := binwire.ParseResponse(payload)
					if err != nil {
						t.Fatalf("parse frame %d: %v", i, err)
					}
					resp = WireResponse{ID: bresp.ID, Code: bresp.Code, Error: bresp.Error}
				} else {
					resp = readResp(t, r)
				}
				if resp.Code == CodeOverloaded {
					overloaded++
				} else if resp.Code != "" {
					t.Fatalf("response %d: %+v", i, resp)
				}
			}
			if overloaded == 0 {
				t.Fatalf("all %d requests admitted while no answer was read; want >= 1 %q", n, CodeOverloaded)
			}
		})
	}
}

func TestNetMaxConns(t *testing.T) {
	ns := startNetCfg(t, Config{}, NetConfig{MaxConns: 1})
	c1, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer c1.Close()
	if _, err := c1.Scan("sum", "", "", []int64{1}); err != nil {
		t.Fatalf("scan on conn 1: %v", err)
	}
	// Second connection: one structured overloaded line, then close.
	conn, r := rawConn(t, ns.Addr())
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp := readResp(t, r)
	if resp.Code != CodeOverloaded {
		t.Fatalf("over-limit conn response = %+v, want code=%q", resp, CodeOverloaded)
	}
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Fatal("over-limit connection left open")
	}
	// The first connection is unaffected.
	if _, err := c1.Scan("sum", "", "", []int64{2}); err != nil {
		t.Fatalf("scan on conn 1 after rejection: %v", err)
	}
}

func TestNetClientTypedErrors(t *testing.T) {
	// The Client maps wire codes back to the package's typed errors.
	ns := startNet(t, Config{})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Scan("xor", "", "", []int64{1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op err = %v, want ErrBadRequest", err)
	}
}

func TestNetClientCtxDeadline(t *testing.T) {
	// A client-side deadline bounds the wait even when the server is
	// stalled by a slow kernel; the error is context.DeadlineExceeded
	// whether it fires locally or is shed server-side.
	faults := fault.New(2)
	faults.ArmSleep(fault.KernelSlow, 1, 300*time.Millisecond)
	ns := startNet(t, Config{Faults: faults})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.ScanCtx(ctx, "sum", "", "", []int64{1, 2, 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ScanCtx err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
}

func TestNetIdleTimeoutClosesConnection(t *testing.T) {
	ns := startNetCfg(t, Config{}, NetConfig{IdleTimeout: 50 * time.Millisecond})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Scan("sum", "", "", []int64{1, 2}); err != nil {
		t.Fatalf("scan before idle: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Scan("sum", "", "", []int64{1, 2}); err == nil {
		t.Fatal("scan on idle-closed connection succeeded")
	}
}
