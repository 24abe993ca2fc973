package main

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"scans/internal/combine"
	"scans/internal/serve"
)

var oracleOps = []string{"sum", "max", "min", "mul", "user:satadd", "user:add", "user:argmax"}

// oracleTemplates makes one small request per op, kind and direction.
func oracleTemplates(t *testing.T, n int) []*template {
	rng := rand.New(rand.NewSource(3))
	var ts []*template
	for _, op := range oracleOps {
		for _, kind := range kinds {
			for _, dir := range dirs {
				data := small(rng, n)
				if op == "user:argmax" {
					for k := 1; k < n; k += 2 {
						data[k] = int64(k / 2)
					}
				}
				tm, err := newTemplate(op, kind, dir, data)
				if err != nil {
					t.Fatalf("%s %s %s: %v", op, kind, dir, err)
				}
				ts = append(ts, tm)
			}
		}
	}
	return ts
}

func TestOracleCatchesOneFlippedElement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tm := range oracleTemplates(t, 1000) {
		got := slices.Clone(tm.want)
		if !matches(got, tm.want, true, 0) {
			t.Fatalf("%s %s %s: the expected answer does not match itself", tm.op, tm.kind, tm.dir)
		}
		got[rng.Intn(len(got))] ^= 1
		if matches(got, tm.want, true, 0) {
			t.Errorf("%s %s %s: a flipped element passed the full comparison", tm.op, tm.kind, tm.dir)
		}
		spot := slices.Clone(tm.want)
		spot[len(spot)-1] ^= 1
		if matches(spot, tm.want, false, 7) {
			t.Errorf("%s %s %s: a flipped last element passed the spot check", tm.op, tm.kind, tm.dir)
		}
	}
}

// The oracle must agree with the system on correct answers, or every
// run would report wrong ones.
func TestOracleAgreesWithServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	for _, name := range userOps {
		if _, err := srv.RegisterScanOp("", name, combine.Examples[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tm := range oracleTemplates(t, 1000) {
		got, err := srv.SubmitCtx(context.Background(), tm.spec, tm.data)
		if err != nil {
			t.Fatalf("%s %s %s: %v", tm.op, tm.kind, tm.dir, err)
		}
		if !slices.Equal(got, tm.want) {
			t.Errorf("%s %s %s: server and serial reference disagree", tm.op, tm.kind, tm.dir)
		}
	}
}
