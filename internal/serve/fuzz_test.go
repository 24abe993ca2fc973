package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
)

// FuzzBinwireMatchesJSON drives fuzz-derived request sequences through
// a JSON client and a binary client against one server and requires the
// two codecs to be indistinguishable: identical results (bitwise for
// floats) and identical error classification. It also throws framed
// fuzz garbage at the binary listener, which must answer every intact
// frame and survive.
//
// One documented divergence is tolerated: too_large. JSON spends up to
// 21 bytes per element against the line budget where binary spends
// exactly 8 against the frame budget, so near the budget JSON refuses
// vectors binary happily serves. That is the protocol's selling point,
// not a bug — the fuzz only forgives it in that direction and only in
// the size band where the budgets genuinely part ways.

// fuzzBudget is the server's MaxLineBytes during fuzzing: small enough
// that fuzz-sized vectors can reach too_large on the JSON side.
const fuzzBudget = 1 << 14

// fuzzDivergeMin is the smallest element count where the JSON response
// budget (48 + 21n > fuzzBudget) can fire while binary's exact sizing
// does not.
const fuzzDivergeMin = (fuzzBudget - 48) / 21

var (
	fuzzSrvOnce sync.Once
	fuzzSrvAddr string
)

// fuzzServer starts the shared fuzz server once per worker process (it
// lives until the process exits — fuzz workers have no clean shutdown
// hook, and one listener serves every iteration).
func fuzzServer(f *testing.F) string {
	fuzzSrvOnce.Do(func() {
		ns, err := ListenNet("127.0.0.1:0", Config{}, NetConfig{MaxLineBytes: fuzzBudget})
		if err != nil {
			f.Fatalf("fuzz server: %v", err)
		}
		fuzzSrvAddr = ns.Addr()
	})
	return fuzzSrvAddr
}

// fuzzScript doles out fuzz bytes as operation codes and parameters.
type fuzzScript struct {
	b   []byte
	off int
}

func (s *fuzzScript) left() int { return len(s.b) - s.off }

func (s *fuzzScript) byte() byte {
	if s.off >= len(s.b) {
		return 0
	}
	v := s.b[s.off]
	s.off++
	return v
}

func (s *fuzzScript) u16() int {
	return int(s.byte()) | int(s.byte())<<8
}

func (s *fuzzScript) take(n int) []byte {
	if n > s.left() {
		n = s.left()
	}
	v := s.b[s.off : s.off+n]
	s.off += n
	return v
}

// errClass collapses an error to its classification: what a client
// program could branch on. Message text is not part of the contract —
// the codecs may phrase transport-adjacent errors differently — but
// the typed sentinel must match.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadRequest):
		return "bad_request"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrNoStream):
		return "no_stream"
	case errors.Is(err, ErrStreamFailed):
		return "stream_failed"
	case errors.Is(err, ErrStreamUnsupported):
		return "stream_unsupported"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "other:" + err.Error()
	}
}

var fuzzOps = []string{"sum", "max", "min", "mul", "bogus"}
var fuzzKinds = []string{"inclusive", "exclusive", ""}
var fuzzDirs = []string{"forward", "backward", ""}

func FuzzBinwireMatchesJSON(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 2, 3})
	f.Add([]byte{1, 5, 0, 0xFF, 0x7F, 2, 2})
	f.Add([]byte{2, 3, 0, 1, 0, 100, 200, 3, 0x81})
	f.Add([]byte{3, 0, 0, 0, 4, 0, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 0xFF, 0xFF, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	addr := fuzzServer(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		jc, err := DialMaxLineProto(addr, fuzzBudget, ProtoJSON)
		if err != nil {
			t.Skip("dial json:", err)
		}
		defer jc.Close()
		bc, err := DialMaxLineProto(addr, fuzzBudget, ProtoBin)
		if err != nil {
			t.Skip("dial bin:", err)
		}
		defer bc.Close()

		script := &fuzzScript{b: data}
		rng := rand.New(rand.NewSource(int64(len(data))*2654435761 + int64(script.byte())))
		for ops := 0; ops < 8 && script.left() > 0; ops++ {
			switch script.byte() % 4 {
			case 0:
				fuzzIntScan(t, script, rng, jc, bc)
			case 1:
				fuzzFloatScan(t, script, rng, jc, bc)
			case 2:
				fuzzStream(t, script, rng, jc, bc)
			case 3:
				fuzzRawFrame(t, script, addr)
			}
		}
	})
}

// compareScanErrs enforces identical classification, forgiving only the
// documented too_large divergence: JSON refusing (bad_request) a vector
// binary served, at sizes where the budgets part ways.
func compareScanErrs(t *testing.T, what string, n int, jerr, berr error) (proceed bool) {
	t.Helper()
	jc, bc := errClass(jerr), errClass(berr)
	if jc == bc {
		return jc == "ok"
	}
	if n >= fuzzDivergeMin && jc == "bad_request" && bc == "ok" {
		return false
	}
	t.Fatalf("%s (n=%d): json %s vs bin %s (%v / %v)", what, n, jc, bc, jerr, berr)
	return false
}

func fuzzIntScan(t *testing.T, s *fuzzScript, rng *rand.Rand, jc, bc *Client) {
	op := fuzzOps[int(s.byte())%len(fuzzOps)]
	kind := fuzzKinds[int(s.byte())%len(fuzzKinds)]
	dir := fuzzDirs[int(s.byte())%len(fuzzDirs)]
	n := s.u16() % 1200
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63n(41) - 20
	}
	jres, jerr := jc.Scan(op, kind, dir, data)
	bres, berr := bc.Scan(op, kind, dir, data)
	if compareScanErrs(t, "int scan "+op, n, jerr, berr) {
		if len(jres) != len(bres) {
			t.Fatalf("int scan %s n=%d: json %d elems vs bin %d", op, n, len(jres), len(bres))
		}
		for i := range jres {
			if jres[i] != bres[i] {
				t.Fatalf("int scan %s n=%d elem %d: json %d vs bin %d", op, n, i, jres[i], bres[i])
			}
		}
	}
	releaseData(jres)
	releaseData(bres)
}

func fuzzFloatScan(t *testing.T, s *fuzzScript, rng *rand.Rand, jc, bc *Client) {
	op := fuzzOps[int(s.byte())%len(fuzzOps)]
	kind := fuzzKinds[int(s.byte())%len(fuzzKinds)]
	n := s.u16() % 400
	data := make([]float64, n)
	for i := range data {
		// A mix that exercises every server verdict: exact ints (sum's
		// happy path), fractions (sum rejects), ±Inf (order ops take,
		// sum rejects), NaN (all reject).
		switch rng.Intn(8) {
		case 0:
			data[i] = math.Inf(1)
		case 1:
			data[i] = math.Inf(-1)
		case 2:
			data[i] = math.NaN()
		case 3:
			data[i] = rng.Float64() * 100
		default:
			data[i] = float64(rng.Intn(201) - 100)
		}
	}
	ctx := context.Background()
	jres, jerr := jc.ScanFloats(ctx, op, kind, "forward", data)
	bres, berr := bc.ScanFloats(ctx, op, kind, "forward", data)
	if compareScanErrs(t, "float scan "+op, n, jerr, berr) {
		if len(jres) != len(bres) {
			t.Fatalf("float scan %s n=%d: json %d elems vs bin %d", op, n, len(jres), len(bres))
		}
		for i := range jres {
			if math.Float64bits(jres[i]) != math.Float64bits(bres[i]) {
				t.Fatalf("float scan %s n=%d elem %d: json %x vs bin %x",
					op, n, i, math.Float64bits(jres[i]), math.Float64bits(bres[i]))
			}
		}
	}
}

func fuzzStream(t *testing.T, s *fuzzScript, rng *rand.Rand, jc, bc *Client) {
	op := fuzzOps[int(s.byte())%len(fuzzOps)]
	kind := fuzzKinds[int(s.byte())%len(fuzzKinds)]
	dir := fuzzDirs[int(s.byte())%len(fuzzDirs)]
	ctx := context.Background()
	jst, jerr := jc.OpenStream(ctx, op, kind, dir)
	bst, berr := bc.OpenStream(ctx, op, kind, dir)
	if jc, bc := errClass(jerr), errClass(berr); jc != bc {
		t.Fatalf("stream open %s/%s/%s: json %s vs bin %s", op, kind, dir, jc, bc)
	}
	if jerr != nil {
		return
	}
	chunks := int(s.byte()) % 4
	for c := 0; c <= chunks; c++ {
		n := s.u16() % 300
		data := make([]int64, n)
		for i := range data {
			data[i] = rng.Int63n(41) - 20
		}
		jres, jerr := jst.Send(ctx, data)
		bres, berr := bst.Send(ctx, data)
		if jc, bc := errClass(jerr), errClass(berr); jc != bc {
			t.Fatalf("stream chunk %d (n=%d): json %s vs bin %s", c, n, jc, bc)
		}
		if jerr == nil {
			for i := range jres {
				if jres[i] != bres[i] {
					t.Fatalf("stream chunk %d elem %d: json %d vs bin %d", c, i, jres[i], bres[i])
				}
			}
		}
		releaseData(jres)
		releaseData(bres)
		if jerr != nil {
			return // stream dead on both sides; close below would just no_stream
		}
	}
	jtotal, jerr := jst.Close(ctx)
	btotal, berr := bst.Close(ctx)
	if jc, bc := errClass(jerr), errClass(berr); jc != bc {
		t.Fatalf("stream close: json %s vs bin %s", jc, bc)
	}
	if jerr == nil && jtotal != btotal {
		t.Fatalf("stream total: json %d vs bin %d", jtotal, btotal)
	}
}

// fuzzRawFrame wraps fuzz bytes in an intact frame (honest length
// prefix) and fires it at the binary listener: whatever the payload —
// garbage, a truncated request, a chunk for a stream that was never
// opened — the server must answer exactly one frame and stay alive.
func fuzzRawFrame(t *testing.T, s *fuzzScript, addr string) {
	payload := s.take(int(s.byte()) % 64)
	if len(payload) == 0 {
		return
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Skip("dial raw:", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(binwire.Magic)); err != nil {
		t.Fatalf("raw magic: %v", err)
	}
	ack := make([]byte, len(binwire.Magic))
	if _, err := io.ReadFull(conn, ack); err != nil || string(ack) != binwire.Magic {
		t.Fatalf("raw ack %q: %v", ack, err)
	}
	frame := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("raw frame write: %v", err)
	}
	// Exactly one response frame, whatever the verdict was.
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatalf("raw response header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > fuzzBudget {
		t.Fatalf("raw response declares %d bytes", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("raw response body: %v", err)
	}
	resp, err := binwire.ParseResponse(body)
	if err != nil {
		t.Fatalf("server emitted unparseable response to garbage: %v", err)
	}
	if len(resp.Result) > 0 {
		arena.PutInt64s(resp.Result)
	}
}

// TestFuzzSeedsPass runs the seed corpus through the fuzz body in
// ordinary `go test` runs, so codec parity is checked on every CI pass
// even when no -fuzz burst is requested.
func TestFuzzSeedsPass(t *testing.T) {
	// Handled natively: `go test` executes f.Add seeds through f.Fuzz.
	// This test exists to document that behavior and to keep a long,
	// deterministic parity sweep in the default suite.
	ns := startNetCfg(t, Config{}, NetConfig{MaxLineBytes: fuzzBudget})
	jc, err := DialMaxLineProto(ns.Addr(), fuzzBudget, ProtoJSON)
	if err != nil {
		t.Fatalf("dial json: %v", err)
	}
	defer jc.Close()
	bc, err := DialMaxLineProto(ns.Addr(), fuzzBudget, ProtoBin)
	if err != nil {
		t.Fatalf("dial bin: %v", err)
	}
	defer bc.Close()

	rng := rand.New(rand.NewSource(2026))
	script := &fuzzScript{b: make([]byte, 4096)}
	rng.Read(script.b)
	for script.left() > 0 {
		switch script.byte() % 3 {
		case 0:
			fuzzIntScan(t, script, rng, jc, bc)
		case 1:
			fuzzFloatScan(t, script, rng, jc, bc)
		case 2:
			fuzzStream(t, script, rng, jc, bc)
		}
	}
}
