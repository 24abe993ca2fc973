package main

import (
	"fmt"
	"math"
	"slices"

	"scans/internal/combine"
	"scans/internal/scan"
	"scans/internal/serve"
)

// template is one generated request: its wire spelling, the parsed
// spec, the input, and the expected answer the serial reference
// computed during set-up.
type template struct {
	op, kind, dir string
	spec          serve.Spec
	prog          *combine.Program // user ops only: the registered source, parsed,
	plan          *combine.VecPlan // compiled,
	class         string           // and its dispatch class
	data          []int64
	want          []int64
	bin           bool // edge-small: sent on the binwire connection, else on JSON
}

// userOps are the example monoids the cluster workload registers.
var userOps = []string{"satadd", "add", "argmax"}

// newTemplate parses the spec and computes the expected result of
// scanning data with it.
func newTemplate(op, kind, dir string, data []int64) (*template, error) {
	spec, err := serve.ParseSpec(op, kind, dir)
	if err != nil {
		return nil, err
	}
	t := &template{op: op, kind: kind, dir: dir, spec: spec, data: data, want: make([]int64, len(data))}
	if spec.Op == serve.OpUser {
		src, ok := combine.Examples[spec.User]
		if !ok {
			return nil, fmt.Errorf("no example monoid %q", spec.User)
		}
		if t.prog, err = combine.Parse(src); err != nil {
			return nil, err
		}
		t.plan, t.class = combine.CompileVec(t.prog), combine.DispatchClass(t.prog)
	}
	if err := reference(t, t.want, data); err != nil {
		return nil, err
	}
	return t, nil
}

// reference writes the serial scan of src under t's spec into dst:
// scan.Exclusive/Inclusive and their backward forms for builtins, a
// Program.Exec fold for user ops.
func reference(t *template, dst, src []int64) error {
	if t.prog != nil {
		return foldUser(t.prog, dst, src, t.spec.Kind == serve.Inclusive, t.spec.Dir == serve.Backward)
	}
	switch t.spec.Op {
	case serve.OpSum:
		serial(scan.Add[int64]{}, t.spec, dst, src)
	case serve.OpMax:
		serial(scan.Max[int64]{Id: math.MinInt64}, t.spec, dst, src)
	case serve.OpMin:
		serial(scan.Min[int64]{Id: math.MaxInt64}, t.spec, dst, src)
	case serve.OpMul:
		serial(scan.Mul[int64]{}, t.spec, dst, src)
	default:
		return fmt.Errorf("no reference for op %q", t.op)
	}
	return nil
}

func serial[O scan.Op[int64]](op O, spec serve.Spec, dst, src []int64) {
	switch {
	case spec.Kind == serve.Exclusive && spec.Dir == serve.Forward:
		scan.Exclusive(op, dst, src)
	case spec.Kind == serve.Inclusive && spec.Dir == serve.Forward:
		scan.Inclusive(op, dst, src)
	case spec.Kind == serve.Exclusive:
		scan.ExclusiveBackward(op, dst, src)
	default:
		scan.InclusiveBackward(op, dst, src)
	}
}

// foldUser is the per-tuple reference fold of a user combine program:
// forward folds combine(acc, el), backward folds combine(el, acc) from
// the tail; exclusive writes the accumulator before folding the
// element in, inclusive after.
func foldUser(p *combine.Program, dst, src []int64, inclusive, backward bool) error {
	w := p.Width
	if len(src)%w != 0 {
		return fmt.Errorf("%d elements do not form width-%d tuples", len(src), w)
	}
	var fr combine.Frame
	acc := slices.Clone(p.Identity)
	nt := len(src) / w
	for k := 0; k < nt; k++ {
		i := k
		if backward {
			i = nt - 1 - k
		}
		el := src[i*w : (i+1)*w]
		out := dst[i*w : (i+1)*w]
		if !inclusive {
			copy(out, acc)
		}
		var err error
		if w == 1 {
			a, b := acc[0], el[0]
			if backward {
				a, b = b, a
			}
			acc[0], err = p.ExecScalar(&fr, a, b)
		} else if backward {
			err = p.Exec(&fr, acc, el, acc)
		} else {
			err = p.Exec(&fr, acc, acc, el)
		}
		if err != nil {
			return err
		}
		if inclusive {
			copy(out, acc)
		}
	}
	return nil
}

// spotChecks is how many seeded positions a response not picked for a
// full comparison is checked at, besides its first and last element.
const spotChecks = 64

// matches reports whether got is the expected answer: every element
// when full is set, else the length, both ends and spotChecks positions
// drawn from h.
func matches(got, want []int64, full bool, h uint64) bool {
	if len(got) != len(want) {
		return false
	}
	if full || len(want) <= spotChecks+2 {
		return slices.Equal(got, want)
	}
	n := uint64(len(want))
	if got[0] != want[0] || got[n-1] != want[n-1] {
		return false
	}
	for k := uint64(0); k < spotChecks; k++ {
		h = mix(h + k)
		if j := h % n; got[j] != want[j] {
			return false
		}
	}
	return true
}

// mix is the splitmix64 finalizer: a cheap, well-spread hash that turns
// (seed, request number) into the request's choices.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
