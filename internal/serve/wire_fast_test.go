package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// TestAppendWireResponseGolden pins the strconv fast path to
// encoding/json byte for byte: for every shape the fast path claims
// (ok=true) the bytes must be identical to json.Marshal, so a client
// can never observe which encoder served it.
func TestAppendWireResponseGolden(t *testing.T) {
	total := int64(-987654321)
	zero := int64(0)
	cases := []struct {
		name string
		resp WireResponse
		fast bool // fast path must claim it
	}{
		{"bare-ack", WireResponse{ID: 1}, true},
		{"id-zero", WireResponse{ID: 0}, true},
		{"id-max", WireResponse{ID: math.MaxUint64}, true},
		{"result", WireResponse{ID: 7, Result: []int64{1, -2, 0, math.MaxInt64, math.MinInt64}}, true},
		{"result-single", WireResponse{ID: 8, Result: []int64{42}}, true},
		{"empty-result", WireResponse{ID: 9, Result: []int64{}}, true},
		{"fresult", WireResponse{ID: 10, FResult: []float64{1.5, -0.25, 1e300, 5e-324, -0.0}}, true},
		{"fresult-nonfinite", WireResponse{ID: 11, FResult: []float64{math.Inf(1), math.Inf(-1), math.NaN(), 2.5}}, true},
		{"fresult-shortest", WireResponse{ID: 12, FResult: []float64{0.1, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64}}, true},
		{"total", WireResponse{ID: 13, Total: &total}, true},
		{"total-zero", WireResponse{ID: 14, Total: &zero}, true},
		{"error", WireResponse{ID: 15, Error: "boom", Code: CodeInternal}, false},
		{"result-and-total", WireResponse{ID: 16, Result: []int64{1}, Total: &total}, false},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", tc.name, err)
		}
		got, ok := appendWireResponse(nil, tc.resp)
		if ok != tc.fast {
			t.Fatalf("%s: fast path claimed=%v, want %v", tc.name, ok, tc.fast)
		}
		if !ok {
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%s:\nfast: %s\njson: %s", tc.name, got, want)
		}
		if size := fastRespSize(tc.resp); len(got) > size {
			t.Fatalf("%s: encoded %d bytes, fastRespSize budgeted %d", tc.name, len(got), size)
		}
	}
}

// TestAppendWireResponseGoldenRandom hammers the identity with random
// vectors — including floats built from random bit patterns, which is
// where shortest-round-trip formatting has its edge cases.
func TestAppendWireResponseGoldenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 2000; iter++ {
		resp := WireResponse{ID: rng.Uint64()}
		switch iter % 3 {
		case 0:
			resp.Result = make([]int64, rng.Intn(20))
			for i := range resp.Result {
				resp.Result[i] = rng.Int63() - rng.Int63()
			}
		case 1:
			resp.FResult = make([]float64, rng.Intn(20))
			for i := range resp.FResult {
				f := math.Float64frombits(rng.Uint64())
				if math.IsNaN(f) {
					// Normalize: json round-trips only the canonical NaN.
					f = math.NaN()
				}
				resp.FResult[i] = f
			}
		case 2:
			v := rng.Int63() - rng.Int63()
			resp.Total = &v
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("iter %d: json.Marshal: %v", iter, err)
		}
		got, ok := appendWireResponse(nil, resp)
		if !ok {
			t.Fatalf("iter %d: fast path refused %+v", iter, resp)
		}
		if string(got) != string(want) {
			t.Fatalf("iter %d:\nfast: %s\njson: %s", iter, got, want)
		}
		if size := fastRespSize(resp); len(got) > size {
			t.Fatalf("iter %d: encoded %d bytes, fastRespSize budgeted %d", iter, len(got), size)
		}
	}
}

// TestAppendWireRequestGolden pins the request appender to
// encoding/json byte for byte on every shape it claims, and checks it
// declines the shapes it does not cover.
func TestAppendWireRequestGolden(t *testing.T) {
	cases := []struct {
		name string
		req  WireRequest
		fast bool // fast path must claim it
	}{
		{"scan", WireRequest{ID: 1, Op: "sum", Data: []int64{1, -2, 3}}, true},
		{"nil-data", WireRequest{ID: 2, Op: "max"}, true},
		{"empty-data", WireRequest{ID: 3, Op: "min", Data: []int64{}}, true},
		{"id-max", WireRequest{ID: math.MaxUint64, Op: "mul", Data: []int64{math.MinInt64, math.MaxInt64, 0}}, true},
		{"kind-dir-timeout", WireRequest{ID: 4, Op: "sum", Kind: "inclusive", Dir: "backward", TimeoutMS: 250, Data: []int64{5}}, true},
		{"tenant", WireRequest{ID: 5, Op: "sum", Tenant: "10.0.0.7:4242", Data: []int64{5}}, true},
		{"pinned-user-op", WireRequest{ID: 6, Op: "user:gcd", OpHash: math.MaxUint64, Data: []int64{12, 18}}, true},
		{"stream-open", WireRequest{ID: 7, Type: "stream_open", Stream: 3, Op: "sum", Kind: "inclusive"}, true},
		{"stream-chunk", WireRequest{ID: 8, Type: "stream_chunk", Stream: 3, TimeoutMS: 1, Data: []int64{1, 2}}, true},
		{"stream-close", WireRequest{ID: 9, Type: "stream_close", Stream: 3}, true},
		{"negative-timeout", WireRequest{ID: 10, Op: "sum", TimeoutMS: -1}, true},
		{"html-tenant", WireRequest{ID: 11, Op: "sum", Tenant: "a<>&b", Data: []int64{1}}, false},
		{"quote-op", WireRequest{ID: 12, Op: `s"um`}, false},
		{"non-ascii-tenant", WireRequest{ID: 13, Op: "sum", Tenant: "é"}, false},
		{"control-tenant", WireRequest{ID: 14, Op: "sum", Tenant: "a\tb"}, false},
		{"float", WireRequest{ID: 15, Op: "max", Elem: ElemFloat64, FData: []float64{1.5}}, false},
		{"register", WireRequest{ID: 16, Type: "register_op", Name: "gcd", Source: "x"}, false},
		{"heartbeat", WireRequest{ID: 17, Type: "heartbeat", Addr: "w:1", Weight: 1}, false},
		{"resume", WireRequest{ID: 18, Type: "stream_resume", Resume: "tok", Seq: 2}, false},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", tc.name, err)
		}
		got, ok := appendWireRequest(nil, tc.req)
		if ok != tc.fast {
			t.Fatalf("%s: fast path claimed=%v, want %v", tc.name, ok, tc.fast)
		}
		if !ok {
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%s:\nfast: %s\njson: %s", tc.name, got, want)
		}
		if size := fastReqSize(tc.req); len(got) > size {
			t.Fatalf("%s: encoded %d bytes, fastReqSize budgeted %d", tc.name, len(got), size)
		}
	}
}

// TestAppendWireRequestDeclinesOtherFields guards the appender against
// a WireRequest field added later: setting any field outside the ones
// it encodes must make it decline, never silently drop the field.
func TestAppendWireRequestDeclinesOtherFields(t *testing.T) {
	claimed := map[string]bool{"ID": true, "Type": true, "Stream": true, "Op": true, "OpHash": true,
		"Kind": true, "Dir": true, "TimeoutMS": true, "Tenant": true, "Data": true}
	rt := reflect.TypeOf(WireRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if claimed[name] {
			continue
		}
		var req WireRequest
		f := reflect.ValueOf(&req).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("field %s: kind %s not covered by this test", name, f.Kind())
		}
		if _, ok := appendWireRequest(nil, req); ok {
			t.Errorf("appender claimed a request with %s set; it must decline", name)
		}
	}
}

// TestAppendWireRequestGoldenRandom checks the identity on random
// requests with every claimed field at its widest.
func TestAppendWireRequestGoldenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	words := []string{"", "sum", "exclusive", "backward", "stream_chunk", "user:x", "10.1.2.3:9"}
	for iter := 0; iter < 2000; iter++ {
		req := WireRequest{
			ID:     rng.Uint64(),
			Type:   words[rng.Intn(len(words))],
			Op:     words[rng.Intn(len(words))],
			Kind:   words[rng.Intn(len(words))],
			Dir:    words[rng.Intn(len(words))],
			Tenant: words[rng.Intn(len(words))],
		}
		if rng.Intn(2) == 0 {
			req.Stream = rng.Uint64()
			req.OpHash = rng.Uint64()
			req.TimeoutMS = int64(rng.Uint64())
		}
		if n := rng.Intn(21) - 1; n >= 0 {
			req.Data = make([]int64, n)
			for i := range req.Data {
				req.Data[i] = int64(rng.Uint64())
			}
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("iter %d: json.Marshal: %v", iter, err)
		}
		got, ok := appendWireRequest(nil, req)
		if !ok {
			t.Fatalf("iter %d: fast path refused %+v", iter, req)
		}
		if string(got) != string(want) {
			t.Fatalf("iter %d:\nfast: %s\njson: %s", iter, got, want)
		}
		if size := fastReqSize(req); len(got) > size {
			t.Fatalf("iter %d: encoded %d bytes, fastReqSize budgeted %d", iter, len(got), size)
		}
	}
}

// FuzzWireJSONMatchesStdlib is the parity oracle for the one-pass JSON
// edge codec. For any line, a fast decode must only accept what
// json.Unmarshal accepts, and yield the same struct; the decoders the
// connections use (fast path, then encoding/json) must agree with
// json.Unmarshal on accept or reject, on the error text and on the
// struct. For every request and response json.Unmarshal produces, the
// appenders must be byte-identical to json.Marshal or decline.
func FuzzWireJSONMatchesStdlib(f *testing.F) {
	for _, seed := range []string{
		`{"id":1,"op":"sum","data":[1,-2,3]}`,
		`{"id":2,"op":"max","kind":"inclusive","dir":"backward","timeout_ms":250,"tenant":"t","data":[]}`,
		`{"id":3,"type":"stream_chunk","stream":2,"op":"","data":[4,5]}`,
		`{"id":4,"type":"stream_open","stream":2,"op":"sum","data":[]}`,
		`{"id":5,"op":"user:gcd","op_hash":18446744073709551615,"data":[12,18]}`,
		`{"id":5,"op":"user:gcd","op_hash":0,"data":[12,18]}`,
		`{"id":5,"op":"user:gcd","op_hash":18446744073709551616,"data":[12,18]}`,
		`{"id":5,"op":"user:gcd","op_hash":-1,"data":[12,18]}`,
		`{"id":5,"op":"user:gcd","op_hash":1,"op_hash":2,"data":[12,18]}`,
		`{"id":7}`,
		`{"id":7,"result":[0,1,-9223372036854775808,9223372036854775807]}`,
		`{}`,
		`{"id":1,"op":"sum","data":[01]}`,
		`{"id":01,"op":"sum","data":[1]}`,
		`{"id":1,"op":"sum","data":[-0]}`,
		`{"id":-0,"op":"sum","data":[1]}`,
		`{"id":1,"op":"sum","timeout_ms":-0,"data":[1]}`,
		`{"id":1e3,"op":"sum","data":[1]}`,
		`{"id":1,"op":"sum","data":[1e3]}`,
		`{"id":1,"op":"sum","data":[1.0]}`,
		`{"ID":1,"op":"sum","data":[1]}`,
		`{"id":1,"Op":"sum","data":[1]}`,
		`{"id":1,"op":"sum","data":[1],"data":[2]}`,
		`{"id":1,"id":2,"result":[1]}`,
		`{"id":1,"op":"sum","tenant":"<","data":[1]}`,
		`{"id":1,"op":"sum","tenant":"a<>&b","data":[1]}`,
		"{\"id\":1,\"op\":\"sum\",\"tenant\":\"\xff\",\"data\":[1]}",
		"{\"id\":1,\"op\":\"s\xc3\xbcm\",\"data\":[1]}",
		`{"id":1,"op":"s\u0075m","data":[1]}`,
		`{"id":1,"op":"sum","data":null}`,
		`{"id":null,"op":"sum"}`,
		`{"id":7,"result":null}`,
		`{"id":1,"op":"sum","data":[1]}x`,
		`{"id":1} `,
		` {"id":1}`,
		`{"id":1, "op":"sum"}`,
		`{"id":18446744073709551615,"op":"sum","data":[1]}`,
		`{"id":18446744073709551616,"op":"sum","data":[1]}`,
		`{"id":1,"op":"sum","data":[9223372036854775808]}`,
		`{"id":1,"op":"sum","data":[-9223372036854775809]}`,
		`{"id":1,"op":"sum","timeout_ms":9223372036854775808}`,
		`{"id":1,"op":"sum","data":[1,]}`,
		`{"id":1,"op":"sum","data":[1`,
		`{"id":1,"op":"sum","data":[-]}`,
		`{"id":7,"result":[1,2]`,
		`{"id":7,"error":"boom","code":"internal"}`,
		`{"id":7,"total":5}`,
		`{"id":1,"op":"max","elem":"float64","fdata":[1.5,"+Inf"]}`,
		`{"id":1,"type":"carry_xchg","group":1,"round":1,"from":1,"xval":5,"xreset":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkWireParity(t, "request", line, decodeWireRequest, unmarshalWireRequest, appendWireRequest,
			func(r WireRequest) { releaseData(r.Data) })
		checkWireParity(t, "response", line, decodeWireResponse, unmarshalWireResponse, appendWireResponse,
			func(r WireResponse) { releaseData(r.Result) })
	})
}

// checkWireParity holds one message type's fast decoder, connection
// decoder and appender to encoding/json on one line; release returns a
// decoded message's arena vector.
func checkWireParity[T any](t *testing.T, what string, line []byte,
	fast func([]byte) (T, bool), decode func([]byte) (T, error),
	appendFast func([]byte, T) ([]byte, bool), release func(T)) {
	var ref T
	refErr := json.Unmarshal(line, &ref)
	defer release(ref)
	if got, ok := fast(line); ok {
		equal := reflect.DeepEqual(got, ref)
		release(got)
		if refErr != nil {
			t.Fatalf("fast %s decode accepted %q; json.Unmarshal: %v", what, line, refErr)
		}
		if !equal {
			t.Fatalf("fast %s decode of %q = %+v, json.Unmarshal = %+v", what, line, got, ref)
		}
	}
	got, err := decode(line)
	defer release(got)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s decode of %q: err %v, json.Unmarshal: %v", what, line, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s decode of %q = %+v, json.Unmarshal = %+v", what, line, got, ref)
	}
	if refErr != nil {
		return
	}
	if enc, ok := appendFast(nil, ref); ok {
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("appender claimed %+v, which json.Marshal refuses: %v", ref, err)
		}
		if string(enc) != string(want) {
			t.Fatalf("%s %+v:\nfast: %s\njson: %s", what, ref, enc, want)
		}
	}
}

// FuzzAppendInt64sMatchesStrconv is the encoder's oracle: for any
// vector (the fuzz bytes read as little-endian int64 words) appendInt64s
// writes exactly what a strconv.AppendInt loop writes, int64sLen
// predicts its length, and a buffer sized int64sLen+maxIntLen is
// written in place, never grown.
func FuzzAppendInt64sMatchesStrconv(f *testing.F) {
	word := func(v ...int64) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(word(0))
	f.Add(word(digitCoverage()...))
	f.Add(word(-1, 9, 10, -99, 100, math.MaxInt64, math.MinInt64, math.MinInt64+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		v := make([]int64, len(b)/8)
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		want := []byte{'['}
		for i, x := range v {
			if i > 0 {
				want = append(want, ',')
			}
			want = strconv.AppendInt(want, x, 10)
		}
		want = append(want, ']')
		if got := appendInt64s(nil, v); string(got) != string(want) {
			t.Fatalf("appendInt64s(%v):\n got %s\nwant %s", v, got, want)
		}
		if n := int64sLen(v); n != len(want) {
			t.Fatalf("int64sLen(%v) = %d, encoded %d bytes", v, n, len(want))
		}
		dst := make([]byte, 1, 1+int64sLen(v)+maxIntLen)
		got := appendInt64s(dst, v)
		if &got[0] != &dst[0] || string(got[1:]) != string(want) {
			t.Fatalf("appendInt64s into a buffer sized by int64sLen grew it or diverged: %s", got[1:])
		}
	})
}
