package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"scans/internal/arena"
	"scans/internal/scan"
)

// Float64 elements on the wire, per §3.4 of the paper: floating-point
// keys ride the INTEGER scan kernels through an order-preserving
// float↔int bijection ("flipping the exponent and significand if the
// sign bit is set"). The server never grows float kernels — a float64
// request is mapped into the int64 domain at the wire boundary, fused
// into the same batches as everyone else's int64 traffic, and mapped
// back on the way out. That keeps every downstream layer (batcher,
// kernels, cluster sharding) monomorphic.
//
// Per-op mapping:
//
//   - max/min: scan.FloatOrderKey, the §3.4 bijection. Order-preserving,
//     so max/min over keys IS max/min over floats — results are exact
//     for every input, including ±Inf and signed zeros.
//   - sum: floats must be exactly-representable integers (f == trunc(f),
//     |f| <= 2^53). Those convert to int64 losslessly, the kernel sums
//     with exact integer associativity, and the result converts back.
//     Restricting to the exact-int path is deliberate: general float
//     addition is NOT associative, so a batched/sharded float sum would
//     depend on batch boundaries and shard splits — the bit-identical
//     contract (cluster results == single-node results) would be
//     unkeepable. Out-of-range or fractional inputs are rejected with
//     bad_request rather than silently rounded. Caveat: a running SUM
//     may exceed 2^53 even when every input is within it; the int64
//     kernel value stays exact, but its float64 rendering rounds to the
//     nearest representable double.
//   - mul: no mapping (neither order-preserving nor exact); rejected.
//
// NaN has no position in the float order and is rejected for every op.

// Elem values for WireRequest.Elem.
const (
	// ElemInt64 is the default element kind (Data/Result vectors).
	ElemInt64 = "int64"
	// ElemFloat64 selects float64 elements (FData/FResult vectors).
	ElemFloat64 = "float64"
)

// maxExactFloatInt is the largest integer magnitude exactly
// representable in a float64 (2^53).
const maxExactFloatInt = 1 << 53

// FloatVec is a []float64 that survives the JSON wire with non-finite
// values. JSON has no token for IEEE ±Inf — encoding/json refuses to
// marshal them — but exclusive float max/min scans legitimately produce
// ∓Inf at segment heads (the identities), and ±Inf are valid max/min
// INPUTS too. Non-finite elements travel as the JSON strings "+Inf",
// "-Inf", and "NaN" (so a NaN can reach the server and be rejected with
// a typed bad_request instead of a client-side marshal failure); finite
// elements are ordinary JSON numbers in shortest-round-trip form.
type FloatVec []float64

// MarshalJSON implements json.Marshaler with the non-finite encoding.
func (v FloatVec) MarshalJSON() ([]byte, error) {
	return appendFloat64s(make([]byte, 0, 2+25*len(v)), v), nil
}

// appendFloat64s appends v as a JSON array in FloatVec's encoding, for
// FloatVec.MarshalJSON and appendWireResponse.
func appendFloat64s(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case math.IsInf(f, 1):
			dst = append(dst, `"+Inf"`...)
		case math.IsInf(f, -1):
			dst = append(dst, `"-Inf"`...)
		case math.IsNaN(f):
			dst = append(dst, `"NaN"`...)
		default:
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
	}
	return append(dst, ']')
}

// UnmarshalJSON implements json.Unmarshaler, accepting numbers plus the
// quoted non-finite tokens.
func (v *FloatVec) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(FloatVec, len(raw))
	for i, r := range raw {
		if len(r) > 0 && r[0] == '"' {
			var s string
			if err := json.Unmarshal(r, &s); err != nil {
				return err
			}
			switch s {
			case "+Inf", "Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			case "NaN":
				out[i] = math.NaN()
			default:
				return fmt.Errorf("unknown float64 token %q", s)
			}
			continue
		}
		f, err := strconv.ParseFloat(string(r), 64)
		if err != nil {
			return err
		}
		out[i] = f
	}
	*v = out
	return nil
}

// maxRespBytesFloat is maxRespBytes for a float64 result line: Go's
// shortest-round-trip float formatting tops out at 24 characters (e.g.
// "-2.2250738585072014e-308") plus a comma, envelope under 48.
func maxRespBytesFloat(n int) int { return 48 + 25*n }

// floatKeys maps a float64 request vector into the int64 kernel domain
// for op, or rejects the request with an error wrapping ErrBadRequest.
// A non-empty key vector is arena-backed and owned by the caller.
func floatKeys(op Op, fdata []float64) ([]int64, error) {
	keys := arena.GetInt64s(len(fdata))
	fail := func(err error) ([]int64, error) {
		arena.PutInt64s(keys)
		return nil, err
	}
	switch op {
	case OpMax, OpMin:
		for i, f := range fdata {
			if math.IsNaN(f) {
				return fail(fmt.Errorf("%w: float64 element %d is NaN, which has no position in the float order", ErrBadRequest, i))
			}
			keys[i] = scan.FloatOrderKey(f)
		}
	case OpSum:
		for i, f := range fdata {
			// f != Trunc(f) also catches NaN (NaN != NaN); Abs catches ±Inf.
			if f != math.Trunc(f) || math.Abs(f) > maxExactFloatInt {
				return fail(fmt.Errorf("%w: float64 sum requires exactly-representable integers (|v| <= 2^53, no fraction); element %d is %v", ErrBadRequest, i, f))
			}
			keys[i] = int64(f)
		}
	default:
		return fail(fmt.Errorf("%w: op has no float64 mapping (mul is neither order-preserving nor exact over floats)", ErrBadRequest))
	}
	return keys, nil
}

// floatResults maps kernel-domain results back to float64. For max/min
// the int64 identities (MinInt64/MaxInt64) surface at exclusive-scan
// heads; they are unreachable from any non-NaN input (both decode to
// NaN bit patterns), so they translate unambiguously to ∓Inf — exactly
// the float max/min identities.
func floatResults(op Op, res []int64) []float64 {
	out := make([]float64, len(res))
	switch op {
	case OpMax, OpMin:
		for i, v := range res {
			switch v {
			case math.MinInt64:
				out[i] = math.Inf(-1)
			case math.MaxInt64:
				out[i] = math.Inf(1)
			default:
				out[i] = scan.FloatFromOrderKey(v)
			}
		}
	default: // OpSum: exact until the running sum leaves ±2^53.
		for i, v := range res {
			out[i] = float64(v)
		}
	}
	return out
}
