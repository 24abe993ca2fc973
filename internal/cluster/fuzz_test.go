package cluster

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scans/internal/combine"
	"scans/internal/fault"
	"scans/internal/scan"
	"scans/internal/serve"
)

// fuzzFleet is a five-worker scansd fleet shared by every iteration of
// FuzzShardedScanMatchesSingleNode. Fuzzing runs thousands of
// iterations per process; starting TCP servers per iteration would
// dominate the budget, so the fleet is started once and left to die
// with the process.
var fuzzFleet struct {
	once  sync.Once
	addrs []string
	err   error
}

func fuzzAddrs() ([]string, error) {
	fuzzFleet.once.Do(func() {
		cfg := serve.Config{MaxWait: 20 * time.Microsecond}
		for i := 0; i < 5; i++ {
			ns, err := serve.ListenNet("127.0.0.1:0", cfg, serve.NetConfig{})
			if err != nil {
				fuzzFleet.err = err
				return
			}
			fuzzFleet.addrs = append(fuzzFleet.addrs, ns.Addr())
		}
	})
	return fuzzFleet.addrs, fuzzFleet.err
}

// FuzzShardedScanMatchesSingleNode is the cluster's core contract as a
// fuzz target: for ANY vector, op/kind/dir, segment layout, worker
// count (1–5), shard/piece geometry, and injected worker-connection
// deaths, a sharded scan either returns a result bit-identical to the
// serial single-node reference or fails with a typed error
// (shard_failed / deadline) — never a wrong answer, never an untyped
// error. The op dimension includes two registered user ops, one per
// driver class — satadd (vector) and gcd (one-lane Exec walk) — so the
// coordinator's carry combines (serve.CarrySpec) face the reference
// too. scripts/check.sh runs a timed burst of this.
func FuzzShardedScanMatchesSingleNode(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), uint8(2), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 0, 1})
	f.Add(uint8(1), uint8(0), uint8(1), uint8(4), uint8(0), []byte{255, 0, 17, 3, 200, 9}, []byte{})
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), uint8(3), []byte{128, 64, 32}, []byte{1})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(1), uint8(4), []byte{7, 7, 7, 7, 7, 7, 7}, []byte{0, 1})
	// User ops on four workers with stretched pieces: each shard is one
	// 100-element piece, so satadd's piece scans run on the vector engine.
	f.Add(uint8(4), uint8(1), uint8(0), uint8(8), uint8(1), bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 50), []byte{})
	f.Add(uint8(5), uint8(0), uint8(1), uint8(8), uint8(2), bytes.Repeat([]byte{12, 18, 30, 42}, 100), []byte{})
	f.Fuzz(func(t *testing.T, opB, kindB, dirB, nwB, faultB uint8, raw, flagPat []byte) {
		addrs, err := fuzzAddrs()
		if err != nil {
			t.Skipf("fleet: %v", err)
		}
		opName := []string{"sum", "max", "min", "mul", "user:satadd", "user:gcd"}[opB%6]
		spec, err := serve.ParseSpec(opName,
			[]string{"exclusive", "inclusive"}[kindB%2], []string{"forward", "backward"}[dirB%2])
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", opName, err)
		}
		userOp, isUser := strings.CutPrefix(opName, "user:")
		// Cap the vector so a worst case (2-element pieces, drops armed,
		// retries + hedges) stays well under a second per iteration.
		if len(raw) > 512 {
			raw = raw[:512]
		}
		data := make([]int64, len(raw))
		for i, b := range raw {
			data[i] = int64(int8(b))
			if userOp == "satadd" {
				// Unsigned: negative int64s would saturate at once.
				data[i] = int64(b)
			}
			if spec.Op == serve.OpMul {
				// Keep products in range: ±1 only.
				data[i] = 2*int64(b&1) - 1
			}
		}
		var flags []bool
		if len(flagPat) > 0 {
			flags = make([]bool, len(data))
			for i := range flags {
				flags[i] = flagPat[i%len(flagPat)]&1 == 1
			}
		}

		// faultB drives both the shard geometry and whether worker
		// connections die mid-scan.
		faults := fault.New(int64(faultB) + 1)
		dropping := faultB%4 == 0
		if dropping {
			faults.Arm(fault.ClusterWorkerDrop, 0.05)
		}
		nw := 1 + int(nwB)%5
		// Bit 3 of nwB stretches pieces 64×, so whole shards become
		// single pieces long enough for user-op piece scans to take the
		// vector engine (combine.MinVecTuples).
		maxPiece := 2 + int(faultB%13)
		if nwB&8 != 0 {
			maxPiece *= 64
		}
		// The worker protocol is a fuzz dimension too: shard math must be
		// transport-blind, so JSON and binary coordinators face the same
		// single-node reference.
		proto := serve.ProtoBin
		if faultB%2 == 1 {
			proto = serve.ProtoJSON
		}
		coord, err := New(Config{
			Workers:       addrs[:nw],
			Proto:         proto,
			MinShardElems: 1 + int(faultB%7),
			MaxPieceElems: maxPiece,
			Retry:         serve.RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
			HedgeAfter:    5 * time.Millisecond,
			EjectAfter:    2,
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  200 * time.Millisecond,
			Faults:        faults,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer coord.Close()
		var want []int64
		if !isUser {
			want = directSeg(spec, data, flags)
		} else {
			if _, err := coord.RegisterScanOp("fuzz", userOp, combine.Examples[userOp]); err != nil {
				t.Fatalf("RegisterScanOp(%s): %v", userOp, err)
			}
			prog, err := combine.Parse(combine.Examples[userOp])
			if err != nil {
				t.Fatal(err)
			}
			var fr combine.Frame
			want = directSegFunc(scan.Func[int64]{Id: prog.Identity[0], F: func(a, b int64) int64 {
				v, err := prog.ExecScalar(&fr, a, b)
				if err != nil {
					t.Fatalf("reference %s: %v", userOp, err)
				}
				return v
			}}, spec, data, flags)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		got, err := coord.ScanSegmented(ctx, spec, data, flags, "fuzz")
		if err != nil {
			if dropping && (errors.Is(err, ErrShardFailed) || errors.Is(err, context.DeadlineExceeded)) {
				return // typed failure under injected deaths: allowed
			}
			t.Fatalf("spec=%+v n=%d nw=%d dropping=%v: %v", spec, len(data), nw, dropping, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec=%+v n=%d nw=%d flags=%v: sharded result diverges from single-node\n got %v\nwant %v",
				spec, len(data), nw, flags != nil, got, want)
		}
	})
}
