package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitName)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json at the repository root describes this benchmark; it
// must list exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Why, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	if !slices.Equal(spec.Workloads, ws) {
		t.Errorf("BENCHMARK.json workloads %+v, program has %+v", spec.Workloads, ws)
	}
	for _, c := range []struct {
		json []entry
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var es []entry
		for _, d := range c.defs {
			es = append(es, entry{Name: d.name, Unit: d.unit})
		}
		if !slices.Equal(c.json, es) {
			t.Errorf("BENCHMARK.json metrics %+v, program has %+v", c.json, es)
		}
	}
}
