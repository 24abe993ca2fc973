// Package binwire is the binary wire protocol for scansd: a
// length-prefixed framing carrying raw little-endian int64/float64
// payload arrays that decode straight into arena buffers with zero
// per-element parsing. It exists because the newline-JSON protocol made
// the cluster codec-bound (EXPERIMENTS.md's worker-scaling table): at a
// million elements the coordinator and workers spent more cycles in
// AppendInt/parseInt64Array than in the scan kernels the paper says
// should dominate. A binary payload element costs one 8-byte load
// instead of a digit loop, so the wire cost collapses to memory
// bandwidth — the same bound LightScan establishes for scan itself.
//
// The protocol is negotiated per connection: a binary client's first
// bytes after connect are the Magic preamble ("\x00bin/1\n" — the
// leading NUL can never begin a JSON line), the server answers with the
// same bytes, and both sides switch to frames. Anything else falls
// through to the newline-JSON protocol, so JSON clients need no
// preamble. A binary dial that gets any answer other than the echo
// fails; it never degrades to JSON.
//
// Frame layout (everything little-endian):
//
//	frame   := u32 length | payload            (length = len(payload))
//	payload := u8 type | body
//
// Request bodies (client → server):
//
//	FScan        u64 id | u8 op | u8 kind | u8 dir | u8 elem |
//	             u64 timeout_ms | u16 tenantLen | tenant |
//	             u32 n | n × 8-byte element
//	FStreamOpen  u64 id | u64 stream | u8 op | u8 kind | u8 dir | u8 elem
//	FStreamChunk u64 id | u64 stream | u64 timeout_ms | u32 n | n × 8
//	FStreamClose u64 id | u64 stream
//	FHeartbeat   u64 id | u64 weight bits | u32 maxLine | u8 wproto |
//	             u16 addrLen | addr
//	FStreamResume u64 id | u64 stream | u64 acked | u8 tokLen | token
//	FRegisterOp  u64 id | u16 tenantLen | tenant | u16 nameLen | name |
//	             u32 srcLen | source
//
// When the op byte of FScan / FStreamOpen is OpUser, the fixed enum
// bytes are followed immediately by the user-op fields
// `u16 nameLen | name | u64 hash` (hash 0 = unpinned). They sit
// BEFORE the trailing element array — the array must exactly end the
// payload — and builtin frames carry no such fields, so every
// pre-existing frame stays byte-identical.
//
// Response bodies (server → client):
//
//	FResult      u64 id | u32 n | n × 8-byte int64
//	FFloatResult u64 id | u32 n | n × 8-byte float64 bits
//	FTotal       u64 id | i64 total
//	FError       u64 id | u8 codeLen | code | u16 msgLen | msg
//	FAck         u64 id | u64 seq | u32 window | u8 tokLen | token
//	FOpAck       u64 id | u64 hash
//
// Every frame carries the request id, so one connection multiplexes any
// number of in-flight requests: the server's per-connection writer
// goroutine interleaves response frames in completion order and the
// client demuxes by id. int64 elements travel as their two's-complement
// bits, float64 elements as math.Float64bits — NaN and ±Inf need no
// special tokens (unlike the JSON protocol's "+Inf"/"-Inf"/"NaN"
// strings).
//
// Framing damage is not resynchronizable: unlike a JSON stream, which
// realigns at the next newline, a binary stream whose length field is
// corrupt has no recovery point, so any structural error (ErrBadFrame)
// must kill the connection. ErrFrameTooBig mirrors the JSON protocol's
// oversized-line handling: the reader returns a short prefix so the
// request id can still be recovered for the error response, and the
// connection dies.
package binwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"scans/internal/arena"
)

// Magic is the negotiation preamble a binary client sends as its first
// bytes, and the acknowledgement the server echoes back. The leading
// NUL byte can never begin a line of the legacy JSON protocol, so one
// peeked byte routes a connection to the right codec.
const Magic = "\x00bin/1\n"

// Frame types. Requests have the high bit clear, responses set.
const (
	// FScan is a one-shot scan request.
	FScan = 0x01
	// FStreamOpen opens a streaming session. Answered with FAck carrying
	// the resume token and the flow-control window.
	FStreamOpen = 0x02
	// FStreamChunk pushes one chunk through an open stream.
	FStreamChunk = 0x03
	// FStreamClose closes a stream, answering with FTotal.
	FStreamClose = 0x04
	// FHeartbeat announces a worker to a coordinator: its dialable
	// address, capacity weight, preferred wire protocol, and line
	// budget. Answered with an empty FResult ack (or FError against a
	// server that is not a coordinator).
	FHeartbeat = 0x05
	// FStreamResume re-attaches to a resumable stream by token after a
	// connection (or coordinator) death. Answered with FAck carrying the
	// 1-based index of the next chunk the server expects.
	FStreamResume = 0x06
	// 0x08 and 0x09 were the retired exchange data plane's piece scan
	// and worker-to-worker carry message; they are never reused, so a
	// stale peer's frame fails as an unknown type.

	// FRegisterOp registers a user combine op: tenant, op name, and the
	// bytecode assembly source. Answered with FOpAck carrying the
	// registration's content hash, or FError (bad_op on rejection,
	// bad_request against a server with no registry).
	FRegisterOp = 0x0A
	// FResult is a successful int64 result (also the empty ack of a
	// heartbeat or an empty scan).
	FResult = 0x81
	// FFloatResult is a successful float64 result (raw bit payload).
	FFloatResult = 0x82
	// FTotal acknowledges a stream close with the stream's fold.
	FTotal = 0x83
	// FError is a structured error: a machine code plus a message,
	// mirroring the JSON protocol's error/code fields.
	FError = 0x84
	// FAck is the stream acknowledgement (open/resume): the resume
	// token, the flow-control window (how many chunks the client may
	// hold in flight), and — for resumes — the 1-based index of the
	// next chunk the server expects (0 means "not a resume").
	FAck = 0x85
	// FOpAck acknowledges an FRegisterOp with the registration's content
	// hash — the value a client may pin later scans to.
	FOpAck = 0x86
)

// OpUser is the op-byte value marking a user combine op in
// FScan/FStreamOpen. It is the only op byte that
// changes a frame's layout: the user-op fields (name + pinned hash)
// follow the fixed enum bytes. Decoders surface the name as the
// "user:<name>" wire string, so an unknown or empty name is rejected
// server-side by ParseSpec with bad_request — never bad_frame — exactly
// like an unknown builtin byte.
const OpUser = 4

// Element kinds carried in the elem byte of FScan/FStreamOpen.
const (
	// ElemInt64 payloads are two's-complement int64 bits.
	ElemInt64 = 0
	// ElemFloat64 payloads are math.Float64bits values.
	ElemFloat64 = 1
)

// Invalid is the enum byte encoders use for an op/kind/dir/elem string
// they do not recognize. Decoders map it (and any other unknown byte)
// to an unparseable string, so validation stays server-side and a
// binary client's bad spec is rejected with the same bad_request code a
// JSON client's would be.
const Invalid = 0xFF

// Structural errors. ErrBadFrame poisons the stream (no resync point);
// ErrFrameTooBig additionally carries a readable prefix via ReadFrame.
var (
	// ErrBadFrame means the frame violated the layout: zero length,
	// unknown type, a body shorter or longer than its fields declare.
	// The connection cannot be resynchronized and must close.
	ErrBadFrame = errors.New("binwire: malformed frame")
	// ErrFrameTooBig means the declared frame length exceeds the
	// negotiated budget. The reader returns the frame's prefix (enough
	// for RequestID) and the connection must close.
	ErrFrameTooBig = errors.New("binwire: frame exceeds maximum length")
)

// Request is one decoded client→server message. Data (and the float
// view FData) is arena-backed when non-empty — the parse loop loads
// elements straight into an arena buffer, so ownership follows the
// DESIGN.md §7 protocol exactly like a JSON-decoded Int64Vec.
type Request struct {
	Type      byte
	ID        uint64
	Stream    uint64
	Op        byte
	Kind      byte
	Dir       byte
	Elem      byte
	TimeoutMS int64
	Tenant    string
	Data      []int64
	FData     []float64
	// Heartbeat fields (FHeartbeat).
	Addr    string
	Weight  float64
	MaxLine int
	WProto  byte
	// Resume fields (FStreamResume): the token and the client's chunk
	// high-water mark.
	Token string
	Acked uint64
	// User-op fields. Name/OpHash ride scan and stream-open frames whose
	// op byte is OpUser (hash 0 = unpinned); Name/Source are the
	// FRegisterOp body.
	Name   string
	OpHash uint64
	Source string
}

// Response is one decoded server→client message. Result is arena-backed
// when non-empty.
type Response struct {
	Type    byte
	ID      uint64
	Result  []int64
	FResult []float64
	Total   int64
	Code    string
	Error   string
	// Ack fields (FAck).
	Seq    uint64
	Window int
	Token  string
	// OpHash is the FOpAck payload: the registered op's content hash.
	OpHash uint64
}

// le is the protocol's byte order.
var le = binary.LittleEndian

// tooBigPrefix is how many payload bytes ReadFrame salvages from an
// over-budget frame: the type byte plus the id every request layout
// puts first — what RequestID needs.
const tooBigPrefix = 9

// ReadFrame reads one length-prefixed frame payload (type byte
// included) of at most max bytes from r. The returned buffer is
// arena-backed; the caller owns it and must PutBytes it after parsing.
// On ErrFrameTooBig the returned slice is a short NON-arena prefix for
// RequestID and the connection must be torn down (the unread remainder
// is not drained — the stream is already condemned). Any other error is
// a connection-level failure.
func ReadFrame(r *bufio.Reader, max int) ([]byte, error) {
	// Peek, not ReadFull into a local array: the array would escape
	// through the io.Reader interface and cost an allocation per frame.
	lenb, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenb) > 0 {
			err = io.ErrUnexpectedEOF // what ReadFull reports for a torn prefix
		}
		return nil, err
	}
	n := int(le.Uint32(lenb))
	r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > max {
		prefix := make([]byte, tooBigPrefix)
		if m, _ := io.ReadFull(r, prefix); true {
			prefix = prefix[:m]
		}
		return prefix, fmt.Errorf("%w: %d bytes declared, budget %d", ErrFrameTooBig, n, max)
	}
	body := arena.GetBytes(n)
	if _, err := io.ReadFull(r, body); err != nil {
		arena.PutBytes(body)
		return nil, err
	}
	return body, nil
}

// RequestID best-effort recovers the request id from a frame payload
// prefix (the binary analogue of the JSON path's extractID): every
// request layout places the id immediately after the type byte. Returns
// 0 when the prefix is too short.
func RequestID(payload []byte) uint64 {
	if len(payload) < tooBigPrefix {
		return 0
	}
	return le.Uint64(payload[1:9])
}

// appendFrameHeader reserves the length prefix; patchFrameLen fills it
// once the payload is complete.
func appendFrameHeader(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

func patchFrameLen(frame []byte) []byte {
	le.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// ScanFrameBytes is the exact encoded size of an FScan frame with an
// n-element payload and the given tenant, for arena sizing.
func ScanFrameBytes(tenant string, n int) int { return 4 + 23 + len(tenant) + 4 + 8*n }

// AppendScan encodes a one-shot scan request frame. Exactly one of
// data/fdata is consulted, selected by elem.
func AppendScan(dst []byte, id uint64, op, kind, dir, elem byte, timeoutMS int64, tenant string, data []int64, fdata []float64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FScan)
	dst = le.AppendUint64(dst, id)
	dst = append(dst, op, kind, dir, elem)
	dst = le.AppendUint64(dst, uint64(timeoutMS))
	dst = le.AppendUint16(dst, uint16(len(tenant)))
	dst = append(dst, tenant...)
	if elem == ElemFloat64 {
		dst = le.AppendUint32(dst, uint32(len(fdata)))
		for _, f := range fdata {
			dst = le.AppendUint64(dst, math.Float64bits(f))
		}
	} else {
		dst = le.AppendUint32(dst, uint32(len(data)))
		for _, v := range data {
			dst = le.AppendUint64(dst, uint64(v))
		}
	}
	patchFrameLen(dst[start:])
	return dst
}

// UserOpBytes is the extra encoded size of the user-op fields (name +
// pinned hash) a frame pays when its op byte is OpUser; add it to the
// builtin frame size (ScanFrameBytes etc.) when sizing a user-op frame.
func UserOpBytes(name string) int { return 2 + len(name) + 8 }

// appendUserOp encodes the conditional user-op fields that follow the
// fixed enum bytes when the op byte is OpUser.
func appendUserOp(dst []byte, name string, hash uint64) []byte {
	if len(name) > math.MaxUint16 {
		name = name[:math.MaxUint16]
	}
	dst = le.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = le.AppendUint64(dst, hash)
	return dst
}

// AppendScanUser encodes a one-shot scan request frame for a user
// combine op (int64 elements only — user ops fold int64 words). hash 0
// means unpinned: the server resolves whatever registration is current.
func AppendScanUser(dst []byte, id uint64, kind, dir byte, name string, hash uint64, timeoutMS int64, tenant string, data []int64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FScan)
	dst = le.AppendUint64(dst, id)
	dst = append(dst, OpUser, kind, dir, ElemInt64)
	dst = appendUserOp(dst, name, hash)
	dst = le.AppendUint64(dst, uint64(timeoutMS))
	dst = le.AppendUint16(dst, uint16(len(tenant)))
	dst = append(dst, tenant...)
	dst = le.AppendUint32(dst, uint32(len(data)))
	for _, v := range data {
		dst = le.AppendUint64(dst, uint64(v))
	}
	patchFrameLen(dst[start:])
	return dst
}

// StreamOpenFrameBytes, StreamChunkFrameBytes, StreamCloseFrameBytes
// size the stream request frames for arena allocation.
func StreamOpenFrameBytes() int       { return 4 + 21 }
func StreamChunkFrameBytes(n int) int { return 4 + 25 + 4 + 8*n }
func StreamCloseFrameBytes() int      { return 4 + 17 }

// AppendStreamOpen encodes a stream_open request frame.
func AppendStreamOpen(dst []byte, id, stream uint64, op, kind, dir, elem byte) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FStreamOpen)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, stream)
	dst = append(dst, op, kind, dir, elem)
	patchFrameLen(dst[start:])
	return dst
}

// AppendStreamChunk encodes a stream_chunk request frame (int64 only,
// matching the server's int64-only streaming).
func AppendStreamChunk(dst []byte, id, stream uint64, timeoutMS int64, data []int64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FStreamChunk)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, stream)
	dst = le.AppendUint64(dst, uint64(timeoutMS))
	dst = le.AppendUint32(dst, uint32(len(data)))
	for _, v := range data {
		dst = le.AppendUint64(dst, uint64(v))
	}
	patchFrameLen(dst[start:])
	return dst
}

// AppendStreamClose encodes a stream_close request frame.
func AppendStreamClose(dst []byte, id, stream uint64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FStreamClose)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, stream)
	patchFrameLen(dst[start:])
	return dst
}

// HeartbeatFrameBytes and StreamResumeFrameBytes size the control-plane
// request frames.
func HeartbeatFrameBytes(addr string) int     { return 4 + 24 + len(addr) }
func StreamResumeFrameBytes(token string) int { return 4 + 26 + len(token) }

// AppendHeartbeat encodes a worker announcement frame.
func AppendHeartbeat(dst []byte, id uint64, addr string, weight float64, maxLine int, wproto byte) []byte {
	if len(addr) > math.MaxUint16 {
		addr = addr[:math.MaxUint16]
	}
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FHeartbeat)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, math.Float64bits(weight))
	dst = le.AppendUint32(dst, uint32(maxLine))
	dst = append(dst, wproto)
	dst = le.AppendUint16(dst, uint16(len(addr)))
	dst = append(dst, addr...)
	patchFrameLen(dst[start:])
	return dst
}

// AppendStreamResume encodes a stream resume request frame.
func AppendStreamResume(dst []byte, id, stream, acked uint64, token string) []byte {
	if len(token) > 255 {
		token = token[:255]
	}
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FStreamResume)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, stream)
	dst = le.AppendUint64(dst, acked)
	dst = append(dst, byte(len(token)))
	dst = append(dst, token...)
	patchFrameLen(dst[start:])
	return dst
}

// AppendStreamOpenUser encodes a stream-open request frame for a user
// combine op.
func AppendStreamOpenUser(dst []byte, id, stream uint64, kind, dir byte, name string, hash uint64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FStreamOpen)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, stream)
	dst = append(dst, OpUser, kind, dir, ElemInt64)
	dst = appendUserOp(dst, name, hash)
	patchFrameLen(dst[start:])
	return dst
}

// RegisterOpFrameBytes sizes an FRegisterOp frame.
func RegisterOpFrameBytes(tenant, name, source string) int {
	return 4 + 9 + 2 + len(tenant) + 2 + len(name) + 4 + len(source)
}

// AppendRegisterOp encodes a user-op registration request frame.
func AppendRegisterOp(dst []byte, id uint64, tenant, name, source string) []byte {
	if len(tenant) > math.MaxUint16 {
		tenant = tenant[:math.MaxUint16]
	}
	if len(name) > math.MaxUint16 {
		name = name[:math.MaxUint16]
	}
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FRegisterOp)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint16(dst, uint16(len(tenant)))
	dst = append(dst, tenant...)
	dst = le.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = le.AppendUint32(dst, uint32(len(source)))
	dst = append(dst, source...)
	patchFrameLen(dst[start:])
	return dst
}

// ResultFrameBytes is the exact encoded size of an n-element
// FResult/FFloatResult frame — the binary analogue of the JSON path's
// maxRespBytes worst case, except here it is exact, not worst-case.
func ResultFrameBytes(n int) int { return 4 + 13 + 8*n }

// TotalFrameBytes sizes an FTotal frame.
func TotalFrameBytes() int { return 4 + 17 }

// ErrorFrameBytes sizes an FError frame.
func ErrorFrameBytes(code, msg string) int { return 4 + 9 + 1 + len(code) + 2 + len(msg) }

// AppendResult encodes a successful int64 result frame (n may be 0: the
// ack of a stream open or an empty scan).
func AppendResult(dst []byte, id uint64, result []int64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FResult)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint32(dst, uint32(len(result)))
	for _, v := range result {
		dst = le.AppendUint64(dst, uint64(v))
	}
	patchFrameLen(dst[start:])
	return dst
}

// AppendFloatResult encodes a successful float64 result frame.
func AppendFloatResult(dst []byte, id uint64, result []float64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FFloatResult)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint32(dst, uint32(len(result)))
	for _, f := range result {
		dst = le.AppendUint64(dst, math.Float64bits(f))
	}
	patchFrameLen(dst[start:])
	return dst
}

// AppendTotal encodes a stream-close total frame.
func AppendTotal(dst []byte, id uint64, total int64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FTotal)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, uint64(total))
	patchFrameLen(dst[start:])
	return dst
}

// AppendError encodes an error frame. The code is capped at 255 bytes
// and the message at 64 KiB; both are ample for the serve vocabulary
// (codes are short constants, messages are one line).
func AppendError(dst []byte, id uint64, code, msg string) []byte {
	if len(code) > 255 {
		code = code[:255]
	}
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FError)
	dst = le.AppendUint64(dst, id)
	dst = append(dst, byte(len(code)))
	dst = append(dst, code...)
	dst = le.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	patchFrameLen(dst[start:])
	return dst
}

// OpAckFrameBytes sizes an FOpAck frame.
func OpAckFrameBytes() int { return 4 + 17 }

// AppendOpAck encodes a registration acknowledgement frame.
func AppendOpAck(dst []byte, id, hash uint64) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FOpAck)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, hash)
	patchFrameLen(dst[start:])
	return dst
}

// AckFrameBytes sizes an FAck frame.
func AckFrameBytes(token string) int { return 4 + 22 + len(token) }

// AppendAck encodes an extended stream acknowledgement frame.
func AppendAck(dst []byte, id, seq uint64, window int, token string) []byte {
	if len(token) > 255 {
		token = token[:255]
	}
	start := len(dst)
	dst = appendFrameHeader(dst)
	dst = append(dst, FAck)
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, seq)
	dst = le.AppendUint32(dst, uint32(window))
	dst = append(dst, byte(len(token)))
	dst = append(dst, token...)
	patchFrameLen(dst[start:])
	return dst
}

// reader is a cursor over one frame payload; every take checks bounds
// so malformed frames fail cleanly instead of panicking.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) u8() byte {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.b) {
		r.bad = true
		return 0
	}
	v := le.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := le.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := le.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) str(n int) string {
	if r.off+n > len(r.b) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// ints decodes an n-element little-endian int64 array into an
// arena-backed slice the caller owns. The declared count must exactly
// consume the remaining payload bytes — a mismatch is structural.
func (r *reader) ints(n int) []int64 {
	if n < 0 || r.off+8*n != len(r.b) {
		r.bad = true
		return nil
	}
	out := arena.GetInt64s(n)
	for i := 0; i < n; i++ {
		out[i] = int64(le.Uint64(r.b[r.off+8*i:]))
	}
	r.off += 8 * n
	return out
}

// floats decodes an n-element float64-bits array. Float vectors take
// the JSON path's allocation profile (a plain make) because the float
// pipeline re-keys them into arena int64s immediately (wirefloat.go).
func (r *reader) floats(n int) []float64 {
	if n < 0 || r.off+8*n != len(r.b) {
		r.bad = true
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(le.Uint64(r.b[r.off+8*i:]))
	}
	r.off += 8 * n
	return out
}

// done reports whether the payload parsed cleanly and completely;
// trailing bytes are as structural as missing ones.
func (r *reader) done() bool { return !r.bad && r.off == len(r.b) }

// ParseRequest decodes one request payload (type byte included). Data
// is arena-backed and owned by the caller on success; on error nothing
// leaks (any partial decode is released before returning).
func ParseRequest(payload []byte) (Request, error) {
	var req Request
	r := &reader{b: payload}
	req.Type = r.u8()
	switch req.Type {
	case FScan:
		req.ID = r.u64()
		req.Op = r.u8()
		req.Kind = r.u8()
		req.Dir = r.u8()
		req.Elem = r.u8()
		if req.Op == OpUser {
			req.Name = r.str(int(r.u16()))
			req.OpHash = r.u64()
		}
		req.TimeoutMS = int64(r.u64())
		req.Tenant = r.str(int(r.u16()))
		n := int(r.u32())
		if r.bad {
			return Request{}, fmt.Errorf("%w: truncated scan header", ErrBadFrame)
		}
		if req.Elem == ElemFloat64 {
			req.FData = r.floats(n)
		} else {
			req.Data = r.ints(n)
		}
	case FStreamOpen:
		req.ID = r.u64()
		req.Stream = r.u64()
		req.Op = r.u8()
		req.Kind = r.u8()
		req.Dir = r.u8()
		req.Elem = r.u8()
		if req.Op == OpUser {
			req.Name = r.str(int(r.u16()))
			req.OpHash = r.u64()
		}
	case FHeartbeat:
		req.ID = r.u64()
		req.Weight = math.Float64frombits(r.u64())
		req.MaxLine = int(r.u32())
		req.WProto = r.u8()
		req.Addr = r.str(int(r.u16()))
	case FStreamResume:
		req.ID = r.u64()
		req.Stream = r.u64()
		req.Acked = r.u64()
		req.Token = r.str(int(r.u8()))
	case FStreamChunk:
		req.ID = r.u64()
		req.Stream = r.u64()
		req.TimeoutMS = int64(r.u64())
		n := int(r.u32())
		if r.bad {
			return Request{}, fmt.Errorf("%w: truncated chunk header", ErrBadFrame)
		}
		req.Data = r.ints(n)
	case FStreamClose:
		req.ID = r.u64()
		req.Stream = r.u64()
	case FRegisterOp:
		req.ID = r.u64()
		req.Tenant = r.str(int(r.u16()))
		req.Name = r.str(int(r.u16()))
		n := int(r.u32())
		if r.bad || n < 0 || n > len(r.b)-r.off {
			return Request{}, fmt.Errorf("%w: truncated register_op header", ErrBadFrame)
		}
		req.Source = r.str(n)
	default:
		return Request{}, fmt.Errorf("%w: unknown request type 0x%02x", ErrBadFrame, req.Type)
	}
	if !r.done() {
		if len(req.Data) > 0 {
			arena.PutInt64s(req.Data)
		}
		return Request{}, fmt.Errorf("%w: request type 0x%02x length mismatch", ErrBadFrame, req.Type)
	}
	return req, nil
}

// ParseResponse decodes one response payload (type byte included).
// Result is arena-backed and owned by the caller on success.
func ParseResponse(payload []byte) (Response, error) {
	var resp Response
	r := &reader{b: payload}
	resp.Type = r.u8()
	switch resp.Type {
	case FResult:
		resp.ID = r.u64()
		n := int(r.u32())
		if r.bad {
			return Response{}, fmt.Errorf("%w: truncated result header", ErrBadFrame)
		}
		resp.Result = r.ints(n)
	case FFloatResult:
		resp.ID = r.u64()
		n := int(r.u32())
		if r.bad {
			return Response{}, fmt.Errorf("%w: truncated fresult header", ErrBadFrame)
		}
		resp.FResult = r.floats(n)
	case FTotal:
		resp.ID = r.u64()
		resp.Total = int64(r.u64())
	case FError:
		resp.ID = r.u64()
		resp.Code = r.str(int(r.u8()))
		resp.Error = r.str(int(r.u16()))
	case FAck:
		resp.ID = r.u64()
		resp.Seq = r.u64()
		resp.Window = int(r.u32())
		resp.Token = r.str(int(r.u8()))
	case FOpAck:
		resp.ID = r.u64()
		resp.OpHash = r.u64()
	default:
		return Response{}, fmt.Errorf("%w: unknown response type 0x%02x", ErrBadFrame, resp.Type)
	}
	if !r.done() {
		if len(resp.Result) > 0 {
			arena.PutInt64s(resp.Result)
		}
		return Response{}, fmt.Errorf("%w: response type 0x%02x length mismatch", ErrBadFrame, resp.Type)
	}
	return resp, nil
}
