package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"scans/internal/arena"
)

// Int64Vec is a []int64 with a hand-rolled JSON codec. encoding/json's
// reflection path costs ~1µs per element both ways, which at cluster
// scale (multi-million-element shards moving between coordinator and
// workers) turns the wire into the bottleneck — an order of magnitude
// slower than the scan kernels it feeds. The fast path parses the
// `[-123,456,...]` byte form directly with no per-element allocation;
// anything it does not recognize (whitespace variants from non-Go
// clients, null, malformed input) falls back to encoding/json, so
// accepted inputs and error behavior match the standard decoder
// exactly.
type Int64Vec []int64

// MarshalJSON implements json.Marshaler.
func (v Int64Vec) MarshalJSON() ([]byte, error) {
	return appendInt64s(make([]byte, 0, int64sLen(v)+maxIntLen), v), nil
}

// UnmarshalJSON implements json.Unmarshaler. Every non-empty decoded
// vector is arena-backed — the fast path parses straight into an arena
// buffer, and the fallback copies into one — so the wire layer can
// return request payloads to the arena uniformly (empty vectors are the
// shared literal and are never Put). See DESIGN.md "Arena ownership".
func (v *Int64Vec) UnmarshalJSON(b []byte) error {
	out, n, ok := parseInt64Array(b)
	if ok && n != len(b) {
		releaseData(out)
		ok = false
	}
	if !ok {
		// Graceful degradation: let encoding/json handle whitespace,
		// exponent forms, null, and error reporting.
		var tmp []int64
		if err := json.Unmarshal(b, &tmp); err != nil {
			return err
		}
		if len(tmp) == 0 {
			*v = tmp
			return nil
		}
		out = arena.GetInt64s(len(tmp))
		copy(out, tmp)
	}
	*v = out
	return nil
}

// maxIntLen is the longest decimal int64: MinInt64's sign and 19 digits.
const maxIntLen = 20

// pow10 holds 10^0 through 10^19, every power of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digitPairs is "00" through "99": the encoder writes two digits per
// lookup.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// decimalLen returns how many decimal digits u has (1 for 0).
// bits.Len64 times log10(2) (1233/4096) is the count or one short.
func decimalLen(u uint64) int {
	u |= 1
	t := bits.Len64(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}

// intLen is the length of x in decimal, its sign included.
func intLen(x int64) int {
	m := uint64(x >> 63)
	return decimalLen((uint64(x)^m)-m) + int(m&1)
}

// int64sLen is the exact length appendInt64s writes for v.
func int64sLen(v []int64) int {
	n := 1 + len(v) // '[', then one ',' or ']' per element
	for _, x := range v {
		n += intLen(x)
	}
	return max(n, 2)
}

// putInt writes x in decimal at buf[n:], which must have maxIntLen bytes
// of room, and returns the index past it. The sign costs no branch: '-'
// is always written, and a non-negative x's first digit overwrites it.
// Digits are written right to left, eight at a time while more than
// eight are left, then two at a time in 32-bit arithmetic.
func putInt(buf []byte, n int, x int64) int {
	m := uint64(x >> 63) // all ones when x < 0
	u := (uint64(x) ^ m) - m
	buf[n] = '-'
	n += int(m & 1)
	end := n + decimalLen(u)
	i := end
	for u >= 1e8 {
		q := u / 1e8
		r := uint32(u - 1e8*q)
		hi, lo := r/1e4, r%1e4
		putPair(buf[i-8:], hi/100)
		putPair(buf[i-6:], hi%100)
		putPair(buf[i-4:], lo/100)
		putPair(buf[i-2:], lo%100)
		i -= 8
		u = q
	}
	v := uint32(u)
	for v >= 100 {
		q := v / 100
		i -= 2
		putPair(buf[i:], v-100*q)
		v = q
	}
	if v >= 10 {
		putPair(buf[i-2:], v)
	} else {
		buf[i-1] = byte('0' + v)
	}
	return end
}

// putPair writes the two digits of v (below 100) at b[0:2].
func putPair(b []byte, v uint32) {
	b[0], b[1] = digitPairs[2*v], digitPairs[2*v+1]
}

// appendInt64s appends v as a compact JSON array. It is the one int64
// vector encoder: Int64Vec.MarshalJSON, appendWireResponse and
// appendWireRequest all emit their vectors through it. The digits go
// straight into dst's spare capacity; dst grows only when less than one
// element's worst case is left, so a buffer sized int64sLen(v)+maxIntLen
// never grows.
func appendInt64s(dst []byte, v []int64) []byte {
	if len(v) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	n, buf := len(dst), dst[:cap(dst)]
	for _, x := range v {
		if len(buf)-n <= maxIntLen {
			buf = slices.Grow(buf[:n], maxIntLen+1)
			buf = buf[:cap(buf)]
		}
		n = putInt(buf, n, x)
		buf[n] = ','
		n++
	}
	buf[n-1] = ']'
	return buf[:n]
}

// Word-at-a-time digit parsing: eight bytes of the line are loaded as
// one little-endian word, a SWAR mask finds how many of them open with
// digits, and a multiply tree turns up to eight digits into their value
// (Lemire, "Faster integer parsing").

// load8 returns b[i:i+8] as a little-endian word, zero-padded past the
// end of b (a zero byte is no digit).
func load8(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w uint64
	for k := len(b) - 1; k >= i; k-- {
		w = w<<8 | uint64(b[k])
	}
	return w
}

// digitRun returns how many ASCII digits open w (0..8). A byte is a
// digit when its top bit is clear, adding 0x46 keeps it under 0x80 (it
// is at most '9') and adding 0x50 lifts it to 0x80 (it is at least
// '0'); with the top bits masked off first, no sum carries into the next
// byte.
func digitRun(w uint64) int {
	const low7, top = 0x7F7F7F7F7F7F7F7F, 0x8080808080808080
	l := w & low7
	nondigit := (w | (l + 0x4646464646464646) | ^(l + 0x5050505050505050)) & top
	return bits.TrailingZeros64(nondigit) >> 3
}

// digitsValue is the value of the k (0..8) digits that open w. Shifting
// them to the top of the word drops the bytes after them and makes the
// bytes before them leading zeros; three multiplies then combine digits
// into pairs, pairs into quads and quads into the value.
func digitsValue(w uint64, k int) uint64 {
	w = (w << (64 - 8*uint(k))) & 0x0F0F0F0F0F0F0F0F
	w = w * (10<<8 + 1) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (w & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// parseUint parses the unsigned RFC 8259 integer ("0" or [1-9][0-9]*)
// at b[i:] that fits uint64, returning it and the index past it. Up to
// 19 digits take one word per eight digits and no overflow check: 19
// digits cannot overflow a uint64. Longer numbers take parseUintChecked.
func parseUint(b []byte, i int) (uint64, int, bool) {
	w := load8(b, i)
	k := digitRun(w)
	if k == 0 || (k > 1 && byte(w) == '0') {
		return 0, i, false
	}
	if k < 8 {
		return digitsValue(w, k), i + k, true
	}
	n := digitsValue(w, 8)
	w = load8(b, i+8)
	if k = digitRun(w); k < 8 {
		return n*pow10[k] + digitsValue(w, k), i + 8 + k, true
	}
	n = n*1e8 + digitsValue(w, 8)
	w = load8(b, i+16)
	if k = digitRun(w); k <= 3 {
		return n*pow10[k] + digitsValue(w, k), i + 16 + k, true
	}
	return parseUintChecked(b, i)
}

// parseUintChecked is parseUint one digit at a time, checking for
// overflow at each: the path for numbers of 20 digits or more.
func parseUintChecked(b []byte, i int) (uint64, int, bool) {
	var n uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		n = n*10 + d
	}
	return n, i, true
}

// parseInt parses the signed RFC 8259 integer at b[i:] that fits int64.
// The sign is a 0/1 word: it skips the '-', widens the range by one and
// negates by xor-and-add, with no branch on it.
func parseInt(b []byte, i int) (int64, int, bool) {
	var neg uint64
	if i < len(b) && b[i] == '-' {
		neg = 1
	}
	n, j, ok := parseUint(b, i+int(neg))
	if !ok || n > math.MaxInt64+neg {
		return 0, i, false
	}
	return int64((n ^ -neg) + neg), j, true
}

// parseInt64Array parses the compact JSON integer array at the head of
// b — '[' integer (',' integer)* ']' with no whitespace, each integer
// in strict RFC 8259 form (no leading zeros, no fraction or exponent)
// and inside int64 — and reports how many bytes it consumed. It
// returns ok=false on ANY deviation, including overflow, so the caller
// can fall back to the standard decoder. It runs on raw wire bytes
// that encoding/json has not validated, so it must reject everything
// the standard grammar rejects. A non-empty result is arena-backed.
func parseInt64Array(b []byte) ([]int64, int, bool) {
	if len(b) < 2 || b[0] != '[' {
		return nil, 0, false
	}
	if b[1] == ']' {
		return []int64{}, 2, true
	}
	// The array ends at the first ']', and every element after the first
	// follows a comma before it, so the commas bound the element count,
	// on a truncated array too.
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return nil, 0, false
	}
	out := arena.GetInt64s(bytes.Count(b[:end], comma) + 1)[:0]
	for i := 1; ; {
		// The common case inline: the number and the byte after it lie in
		// one word (at most 7 characters, sign included). Anything else
		// takes parseInt.
		w := load8(b, i)
		var neg uint64
		if byte(w) == '-' {
			neg = 1
		}
		w >>= 8 * neg
		var x int64
		var j int
		var next byte
		if k := digitRun(w); k > 0 && k < 8-int(neg) && (k == 1 || byte(w) != '0') {
			u := digitsValue(w, k)
			x = int64((u ^ -neg) + neg)
			j = i + int(neg) + k
			next = byte(w >> (8 * k)) // 0 past the end of b
		} else {
			var ok bool
			if x, j, ok = parseInt(b, i); !ok || j >= len(b) {
				break
			}
			next = b[j]
		}
		out = append(out, x)
		if next == ']' {
			return out, j + 1, true
		}
		if next != ',' {
			break
		}
		i = j + 1
	}
	arena.PutInt64s(out)
	return nil, 0, false
}

var comma = []byte{','}

// wireScanner walks one compact JSON line left to right, the one pass
// behind decodeWireRequest, decodeWireResponse and parseInt64Array.
// Each method consumes one token and reports ok=false on anything
// outside the fast subset — whitespace, escapes, non-ASCII bytes,
// null, leading zeros, fractions, exponents, overflow — and the caller
// then hands the whole line to encoding/json.
type wireScanner struct {
	b []byte
	i int
}

// next consumes c if it is the next byte.
func (s *wireScanner) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// uint parses an unsigned RFC 8259 integer that fits uint64.
func (s *wireScanner) uint() (n uint64, ok bool) {
	n, s.i, ok = parseUint(s.b, s.i)
	return n, ok
}

// int parses a signed RFC 8259 integer that fits int64.
func (s *wireScanner) int() (n int64, ok bool) {
	n, s.i, ok = parseInt(s.b, s.i)
	return n, ok
}

// str returns the bytes of a string whose every byte is printable
// ASCII other than the backslash, so its bytes are its value.
func (s *wireScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// wireWords are the enum values the hot paths send.
var wireWords = []string{"sum", "max", "min", "mul", "exclusive", "inclusive", "forward", "backward", "stream_chunk"}

// word is str for the enum-valued fields (type, op, kind, dir): a value
// in wireWords comes back as that constant, so decoding a builtin scan
// allocates no string.
func (s *wireScanner) word() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	for _, w := range wireWords {
		if string(b) == w {
			return w, true
		}
	}
	return string(b), true
}

// vec parses an int64 array value straight into an arena buffer.
func (s *wireScanner) vec() (Int64Vec, bool) {
	v, n, ok := parseInt64Array(s.b[s.i:])
	s.i += n
	return v, ok
}

// object walks a flat object that must span the whole line. Every key
// must be one of keys, each at most once; value parses the value at
// s.i for the key it is given. A repeated key fails the walk before its
// value is parsed: encoding/json lets the last one win, and only it
// decides what that means.
func (s *wireScanner) object(keys []string, value func(key string) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return s.i == len(s.b)
	}
	var seen uint32
	for {
		raw, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		k := 0
		for k < len(keys) && string(raw) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !value(keys[k]) {
			return false
		}
		if s.next('}') {
			return s.i == len(s.b)
		}
		if !s.next(',') {
			return false
		}
	}
}

// requestKeys and responseKeys are the fast shapes' keys.
var (
	requestKeys  = []string{"id", "type", "stream", "op", "op_hash", "kind", "dir", "timeout_ms", "tenant", "data"}
	responseKeys = []string{"id", "result"}
)

// decodeWireRequest is the one-pass decoder for request lines in the
// shape json.Marshal gives one-shot scans and stream messages: a
// compact object whose keys are among requestKeys, each at most once.
// The data array is parsed straight into an arena buffer. On that
// subset it yields exactly the struct json.Unmarshal would; on anything
// else it returns ok=false with nothing checked out, and the caller
// falls back to encoding/json, which stays the reference for every
// other shape and for error text.
func decodeWireRequest(line []byte) (req WireRequest, ok bool) {
	s := wireScanner{b: line}
	ok = s.object(requestKeys, func(key string) bool {
		var ok bool
		switch key {
		case "id":
			req.ID, ok = s.uint()
		case "type":
			req.Type, ok = s.word()
		case "stream":
			req.Stream, ok = s.uint()
		case "op":
			req.Op, ok = s.word()
		case "op_hash":
			req.OpHash, ok = s.uint()
		case "kind":
			req.Kind, ok = s.word()
		case "dir":
			req.Dir, ok = s.word()
		case "timeout_ms":
			req.TimeoutMS, ok = s.int()
		case "tenant":
			var b []byte
			b, ok = s.str()
			req.Tenant = string(b)
		case "data":
			req.Data, ok = s.vec()
		}
		return ok
	})
	if !ok {
		releaseData(req.Data)
		return WireRequest{}, false
	}
	return req, true
}

// decodeWireResponse is the one-pass decoder for the success lines
// appendWireResponse writes for int64 scans, {"id":N} and
// {"id":N,"result":[...]}, with the same contract as
// decodeWireRequest.
func decodeWireResponse(line []byte) (resp WireResponse, ok bool) {
	s := wireScanner{b: line}
	ok = s.object(responseKeys, func(key string) bool {
		var ok bool
		if key == "id" {
			resp.ID, ok = s.uint()
		} else {
			resp.Result, ok = s.vec()
		}
		return ok
	})
	if !ok {
		releaseData(resp.Result)
		return WireResponse{}, false
	}
	return resp, true
}

// unmarshalWireRequest decodes one request line: in one pass when the
// line has the fast shape, through encoding/json otherwise. The two
// agree on every line (FuzzWireJSONMatchesStdlib). On error the
// returned request may still hold a decoded Data buffer.
func unmarshalWireRequest(line []byte) (WireRequest, error) {
	if req, ok := decodeWireRequest(line); ok {
		return req, nil
	}
	// Declared here, not above: json.Unmarshal makes it escape, and
	// only the fallback should pay for that allocation.
	var req WireRequest
	err := json.Unmarshal(line, &req)
	return req, err
}

// unmarshalWireResponse is unmarshalWireRequest for response lines.
func unmarshalWireResponse(line []byte) (WireResponse, error) {
	if resp, ok := decodeWireResponse(line); ok {
		return resp, nil
	}
	var resp WireResponse
	err := json.Unmarshal(line, &resp)
	return resp, err
}

// appendWireRequest is the strconv fast path for encoding a request,
// byte-identical to json.Marshal: it covers one-shot int64 scans and
// the stream messages — every field but id, type, stream, op, op_hash,
// kind, dir, timeout_ms, tenant and data at its zero value, and every
// string free of bytes json.Marshal would escape. Anything else returns
// ok=false and the caller falls back to json.Marshal. Golden-tested
// against encoding/json in wire_fast_test.go.
func appendWireRequest(dst []byte, req WireRequest) ([]byte, bool) {
	if req.Name != "" || req.Source != "" || req.Elem != "" || len(req.FData) > 0 ||
		req.Resume != "" || req.Seq != 0 || req.Addr != "" || req.Weight != 0 ||
		req.WProto != "" || req.MaxLine != 0 {
		return dst, false
	}
	if !plainJSON(req.Type) || !plainJSON(req.Op) || !plainJSON(req.Kind) ||
		!plainJSON(req.Dir) || !plainJSON(req.Tenant) {
		return dst, false
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, req.ID, 10)
	if req.Type != "" {
		dst = append(append(append(dst, `,"type":"`...), req.Type...), '"')
	}
	if req.Stream != 0 {
		dst = strconv.AppendUint(append(dst, `,"stream":`...), req.Stream, 10)
	}
	dst = append(append(append(dst, `,"op":"`...), req.Op...), '"')
	if req.OpHash != 0 {
		dst = strconv.AppendUint(append(dst, `,"op_hash":`...), req.OpHash, 10)
	}
	if req.Kind != "" {
		dst = append(append(append(dst, `,"kind":"`...), req.Kind...), '"')
	}
	if req.Dir != "" {
		dst = append(append(append(dst, `,"dir":"`...), req.Dir...), '"')
	}
	if req.TimeoutMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), req.TimeoutMS, 10)
	}
	if req.Tenant != "" {
		dst = append(append(append(dst, `,"tenant":"`...), req.Tenant...), '"')
	}
	dst = appendInt64s(append(dst, `,"data":`...), req.Data)
	return append(dst, '}'), true
}

// plainJSON reports whether json.Marshal writes s unescaped: printable
// ASCII other than '"', '\\' and the HTML-escaped '<', '>' and '&'.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// fastReqSize bounds appendWireRequest's output for arena sizing: the
// envelope with every supported field at its longest, the strings, and
// the data's exact length plus the slack that keeps appendInt64s from
// growing the buffer.
func fastReqSize(req WireRequest) int {
	return 192 + len(req.Type) + len(req.Op) + len(req.Kind) + len(req.Dir) +
		len(req.Tenant) + int64sLen(req.Data) + maxIntLen
}

// The wire format of cmd/scansd is newline-delimited JSON: one
// WireRequest per line in, one WireResponse per line out. Responses
// carry the request's id and MAY arrive out of order (requests from
// one connection land in different batches); clients match on ID.
// This file defines the two message types, the string forms of the
// Spec enums, and the error-code vocabulary that lets a remote client
// classify failures (retryable overload vs fatal bad request) exactly
// as an in-process caller would with errors.Is.

// WireRequest is one scan request on the wire.
type WireRequest struct {
	// ID is echoed in the response; clients choose it (unique per
	// connection) to match responses to requests.
	ID uint64 `json:"id"`
	// Type selects the message kind. Empty (the default) is a one-shot
	// scan. "stream_open" starts a streaming session for the message's
	// op/kind/dir (forward only), "stream_chunk" pushes Data through it
	// seeded with the carry of all prior chunks, and "stream_close"
	// ends it, answering with the total. Stream messages name their
	// session via Stream; see DESIGN.md §5 for the protocol.
	Type string `json:"type,omitempty"`
	// Stream is the client-chosen stream id for stream_* messages,
	// unique among the connection's simultaneously-open streams.
	Stream uint64 `json:"stream,omitempty"`
	// Op is "sum", "max", "min", "mul", or "user:<name>" for a combine
	// op the tenant registered via a "register_op" message.
	Op string `json:"op"`
	// Name and Source are the "register_op" fields: Name is the op name
	// (addressed later as "user:<name>"), Source its combine-VM assembly
	// (internal/combine). The ack echoes the registration's content hash
	// in OpHash; rejections (parse error, failed monoid property test
	// with its counterexample, tenant cap) answer with code "bad_op".
	Name   string `json:"op_name,omitempty"`
	Source string `json:"source,omitempty"`
	// OpHash, when nonzero on a user-op scan, pins the expected
	// registration content hash: the server refuses to combine with a
	// different program under that name (code "op_hash"). Cluster
	// coordinators stamp it on every piece they dispatch.
	OpHash uint64 `json:"op_hash,omitempty"`
	// Kind is "exclusive" (default when empty) or "inclusive".
	Kind string `json:"kind,omitempty"`
	// Dir is "forward" (default when empty) or "backward".
	Dir string `json:"dir,omitempty"`
	// Elem is the element kind: "int64" (default when empty) or
	// "float64". Float64 requests carry their vector in FData and are
	// answered in FResult; on the server they ride the SAME int64
	// kernels through the §3.4 order-preserving float↔int key mapping
	// (max/min) or the exact integral path (sum) — see wirefloat.go.
	Elem string `json:"elem,omitempty"`
	// TimeoutMS, when positive, is the request's deadline in
	// milliseconds from server receipt: the server drops the request
	// unexecuted (code "deadline") if it cannot reach a kernel pass in
	// time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant optionally names the submitter for the server's weighted
	// fair pick; empty means the connection's remote address, so one
	// connection is one fairness domain by default.
	Tenant string `json:"tenant,omitempty"`
	// Data is the input vector for int64 requests.
	Data Int64Vec `json:"data"`
	// FData is the input vector for Elem == "float64" requests. NaN has
	// no position in the float order and is rejected with bad_request.
	FData FloatVec `json:"fdata,omitempty"`
	// Resume is the stream resume token for "stream_resume": the opaque
	// token a resumable stream_open ack carried. Seq is the count of
	// chunks whose responses the client has received (its high-water
	// mark); the server rolls its session carry back to that point and
	// answers with the 1-based index of the next chunk it expects.
	Resume string `json:"resume,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	// Heartbeat fields ("heartbeat" messages): the announcing worker's
	// dialable address, relative capacity weight, wire protocol the
	// coordinator should dial it with ("json"/"bin"), and line budget
	// (0 = the coordinator's default).
	Addr    string  `json:"addr,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
	WProto  string  `json:"wproto,omitempty"`
	MaxLine int     `json:"max_line,omitempty"`
}

// WireResponse is one scan result (or error) on the wire.
type WireResponse struct {
	ID     uint64   `json:"id"`
	Result Int64Vec `json:"result,omitempty"`
	// FResult is the result vector of an Elem == "float64" request,
	// mapped back from the int64 kernel domain.
	FResult FloatVec `json:"fresult,omitempty"`
	// Total is set on a stream_close acknowledgement: the fold of every
	// element the stream carried (a pointer so a legitimate zero total
	// survives omitempty).
	Total *int64 `json:"total,omitempty"`
	// Error is the human-readable failure message; Code is its machine
	// classification (one of the Code* constants) so clients can decide
	// retry vs give-up without parsing English.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// OpHash on a register_op ack is the accepted registration's content
	// hash — the value scans pin via WireRequest.OpHash.
	OpHash uint64 `json:"op_hash,omitempty"`
	// Resume is the stream resume token on a resumable stream_open /
	// stream_resume ack; Seq on a stream_resume ack is the 1-based index
	// of the next chunk the server expects (a pointer so the field is
	// distinguishable from absent); Window is the flow-control credit:
	// how many chunk requests the client may hold in flight on the
	// stream before blocking on acks.
	Resume string  `json:"resume,omitempty"`
	Seq    *uint64 `json:"seq,omitempty"`
	Window int     `json:"window,omitempty"`
}

// Error codes carried in WireResponse.Code. Clients map these back to
// the package's typed errors (see errorForCode); unknown or empty
// codes degrade to a plain error string.
const (
	// CodeBadRequest: invalid op/kind/dir. Not retryable.
	CodeBadRequest = "bad_request"
	// CodeBadJSON: the request line did not parse. Not retryable.
	CodeBadJSON = "bad_json"
	// CodeTooLarge: the request line exceeded the server's line limit.
	// The connection is closed after this response. Not retryable.
	CodeTooLarge = "too_large"
	// CodeOverloaded: queue full or per-connection in-flight cap hit.
	// Retryable with backoff.
	CodeOverloaded = "overloaded"
	// CodeClosed: server shutting down. Retryable against a replica.
	CodeClosed = "closed"
	// CodeInternal: isolated kernel panic; the request did not execute
	// to completion. Retryable.
	CodeInternal = "internal"
	// CodeDeadline: the request's deadline expired before execution.
	// Not retryable (the time budget is spent).
	CodeDeadline = "deadline"
	// CodeShed: dropped by queue-age shedding under overload.
	// Retryable with backoff.
	CodeShed = "shed"
	// CodeNoStream: a stream_chunk/stream_close named a stream that is
	// unknown, already closed, or expired by the idle TTL. Retrying the
	// same stream cannot help; open a fresh one.
	CodeNoStream = "no_stream"
	// CodeStreamFailed: an earlier chunk of the stream failed (its own
	// response carried the underlying code), so the session was freed.
	// Recovery is a fresh stream from the first chunk.
	CodeStreamFailed = "stream_failed"
	// CodeStreamUnsupported: stream_open for a backward spec — the
	// carry would depend on chunks not yet arrived. Not retryable.
	CodeStreamUnsupported = "stream_unsupported"
	// CodeBadFrame: a binary-protocol frame was structurally invalid
	// (unknown type, declared lengths inconsistent with the payload).
	// The binary analogue of bad_json. When only the payload was damaged
	// the connection survives (framing stayed in sync); length-prefix
	// damage closes it (a binary stream has no resync point — see
	// internal/binwire). Not retryable.
	CodeBadFrame = "bad_frame"
	// CodeShardFailed: a cluster coordinator could not complete one of
	// the request's shards within its per-shard retry budget (worker
	// deaths, sustained worker overload, or no healthy workers). Only
	// this request failed; the coordinator survived. Retryable — the
	// fleet may have healed by the next attempt.
	CodeShardFailed = "shard_failed"
	// CodeBadOp: a register_op submission was rejected (parse error,
	// failed monoid property test — the message carries the
	// counterexample — or tenant op cap). Not retryable.
	CodeBadOp = "bad_op"
	// CodeOpBudget: a user op exceeded its per-call step budget on this
	// request's actual data. Only this request failed. Not retryable
	// with the same data; the op needs fixing.
	CodeOpBudget = "op_budget"
	// CodeOpHash: the scan pinned a registration content hash that does
	// not match the program the server holds under that name. A typed
	// answer — the server is alive; re-push the registration (or drop
	// the pin) and retry.
	CodeOpHash = "op_hash"
)

// codeForError classifies a server-side error into a wire code. The
// stream errors are checked before their wrapped sentinels so a remote
// caller sees the most specific classification.
func codeForError(err error) string {
	switch {
	case errors.Is(err, ErrStreamUnsupported):
		return CodeStreamUnsupported
	case errors.Is(err, ErrNoStream):
		return CodeNoStream
	case errors.Is(err, ErrStreamFailed):
		return CodeStreamFailed
	case errors.Is(err, ErrBadOp):
		return CodeBadOp
	case errors.Is(err, ErrOpBudget):
		return CodeOpBudget
	case errors.Is(err, ErrOpHash):
		return CodeOpHash
	case errors.Is(err, ErrShardFailed):
		return CodeShardFailed
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrInternal):
		return CodeInternal
	case errors.Is(err, ErrShed):
		return CodeShed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return CodeDeadline
	}
	return CodeInternal
}

// errorForCode converts a wire (code, message) pair back into an error
// wrapping the matching typed sentinel, so remote callers can use
// errors.Is exactly like in-process ones.
func errorForCode(code, msg string) error {
	var sentinel error
	switch code {
	case CodeBadRequest, CodeBadJSON, CodeTooLarge, CodeBadFrame:
		sentinel = ErrBadRequest
	case CodeOverloaded:
		sentinel = ErrOverloaded
	case CodeClosed:
		sentinel = ErrClosed
	case CodeInternal:
		sentinel = ErrInternal
	case CodeShed:
		sentinel = ErrShed
	case CodeNoStream:
		sentinel = ErrNoStream
	case CodeStreamFailed:
		sentinel = ErrStreamFailed
	case CodeStreamUnsupported:
		sentinel = ErrStreamUnsupported
	case CodeShardFailed:
		sentinel = ErrShardFailed
	case CodeBadOp:
		sentinel = ErrBadOp
	case CodeOpBudget:
		sentinel = ErrOpBudget
	case CodeOpHash:
		sentinel = ErrOpHash
	case CodeDeadline:
		sentinel = context.DeadlineExceeded
	default:
		return errors.New(msg)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// appendWireResponse is the strconv fast path for encoding a success
// response: byte-identical to what encoding/json produces (field order,
// omitempty on empty vectors, FloatVec's non-finite tokens) with zero
// steady-state allocation — the caller passes an arena buffer. It
// covers every shape the success hot paths emit: a bare id (stream-open
// ack, empty result), an id plus exactly one of result / fresult /
// total. Anything else — errors, or field combinations no server path
// produces — returns ok=false and the caller falls back to
// json.Marshal, so the fast path can never silently diverge on a shape
// it was not written for. Golden-tested against encoding/json in
// wire_fast_test.go.
func appendWireResponse(dst []byte, resp WireResponse) ([]byte, bool) {
	if resp.Error != "" || resp.Code != "" {
		return dst, false
	}
	if resp.OpHash != 0 {
		// register_op acks are rare (one per registration); keep them on
		// encoding/json.
		return dst, false
	}
	if resp.Resume != "" || resp.Seq != nil || resp.Window != 0 {
		// Extended stream acks are rare (one per stream) and their field
		// set grows with the protocol; keep them on encoding/json rather
		// than risk the fast path silently dropping a field.
		return dst, false
	}
	set := 0
	if len(resp.Result) > 0 {
		set++
	}
	if len(resp.FResult) > 0 {
		set++
	}
	if resp.Total != nil {
		set++
	}
	if set > 1 {
		return dst, false
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	switch {
	case len(resp.Result) > 0:
		dst = appendInt64s(append(dst, `,"result":`...), resp.Result)
	case len(resp.FResult) > 0:
		dst = appendFloat64s(append(dst, `,"fresult":`...), resp.FResult)
	case resp.Total != nil:
		dst = append(dst, `,"total":`...)
		dst = strconv.AppendInt(dst, *resp.Total, 10)
	}
	return append(dst, '}'), true
}

// fastRespSize bounds appendWireResponse's output for arena sizing: the
// envelope, the result's exact length plus appendInt64s's slack, the
// per-element worst case of maxRespBytesFloat, and the total field's 21
// characters.
func fastRespSize(resp WireResponse) int {
	return 69 + int64sLen(resp.Result) + maxIntLen + 25*len(resp.FResult)
}

// extractID best-effort recovers the "id" field from a request line
// that failed to parse (malformed JSON) or was truncated (oversized
// line), so the error response can still be matched to the request.
// Returns 0 when no id is recognizable.
//
// Only a top-level "id" KEY matches: strings are skipped whole (with
// escape handling) and nesting depth is tracked, so a tenant named
// `{"id":9` or a nested object's id can never be mistaken for the
// request id. The value must be an unquoted number that fits uint64;
// an overflowing id is rejected (0) rather than silently wrapped.
func extractID(line []byte) uint64 {
	depth := 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			// Scan the whole string (key or value). Truncated lines can
			// cut a string short; nothing after an unterminated string
			// is trustworthy.
			start := i
			i++
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' {
					i++
				}
				i++
			}
			if i >= len(line) {
				return 0
			}
			if depth != 1 || !bytes.Equal(line[start:i+1], []byte(`"id"`)) {
				continue
			}
			// Top-level "id" string: it is the key only if a colon
			// follows; otherwise it was a string VALUE spelled "id" and
			// the scan continues.
			j := i + 1
			for j < len(line) && (line[j] == ' ' || line[j] == '\t') {
				j++
			}
			if j >= len(line) || line[j] != ':' {
				continue
			}
			j++
			for j < len(line) && (line[j] == ' ' || line[j] == '\t') {
				j++
			}
			id, digits := uint64(0), 0
			for j < len(line) && line[j] >= '0' && line[j] <= '9' {
				d := uint64(line[j] - '0')
				if id > (math.MaxUint64-d)/10 {
					return 0 // id overflows uint64: reject, don't wrap
				}
				id = id*10 + d
				digits++
				j++
			}
			if digits == 0 {
				return 0
			}
			return id
		}
	}
	return 0
}

// ParseSpec converts the wire strings to a Spec, applying the
// exclusive/forward defaults for empty kind/dir.
func ParseSpec(op, kind, dir string) (Spec, error) {
	var s Spec
	switch op {
	case "sum":
		s.Op = OpSum
	case "max":
		s.Op = OpMax
	case "min":
		s.Op = OpMin
	case "mul":
		s.Op = OpMul
	default:
		// The user-op namespace: "user:<name>". Resolution against the
		// tenant's registry happens at admission; here only the shape is
		// checked, so an unknown or bad name is always a bad_request —
		// never a framing error — on both codecs (binwire decodes its
		// user-op frames into this same string form).
		name, ok := strings.CutPrefix(op, "user:")
		if !ok || name == "" {
			return s, fmt.Errorf("%w: unknown op %q", ErrBadRequest, op)
		}
		s.Op = OpUser
		s.User = name
	}
	switch kind {
	case "", "exclusive":
		s.Kind = Exclusive
	case "inclusive":
		s.Kind = Inclusive
	default:
		return s, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	switch dir {
	case "", "forward":
		s.Dir = Forward
	case "backward":
		s.Dir = Backward
	default:
		return s, fmt.Errorf("%w: unknown dir %q", ErrBadRequest, dir)
	}
	return s, nil
}
