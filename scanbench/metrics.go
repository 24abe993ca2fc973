package main

import (
	"fmt"
	"math"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; a run whose output differs from these lists fails.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"throughput_eps", "elem/s"},
	{"latency_p50_ms", "ms"},
	{"max_rate_rps", "req/s"},
	{"mem_peak_mb", "MiB"},
}

// perLayer are the --trace 1 metrics.
var perLayer = []metricDef{
	{"scan.ns_per_elem_p1", "ns"},
	{"scan.ns_per_elem_p2", "ns"},
	{"scan.speedup_p2", "ratio"},
	{"scan.gbps_computed", "GB/s"},
	{"mem.copy_gbps", "GB/s"},
	{"scan.roofline_ratio", "ratio"},
	{"combine.vector_ns_per_elem", "ns"},
	{"combine.scalar_ns_per_elem", "ns"},
	{"combine.promoted_share", "ratio"},
	{"combine.vector_share", "ratio"},
	{"combine.scalar_share", "ratio"},
	{"binwire.encode_ns_per_req", "ns"},
	{"binwire.decode_ns_per_req", "ns"},
	{"binwire.bytes_per_req", "B"},
	{"json.encode_ns_per_req", "ns"},
	{"json.decode_ns_per_req", "ns"},
	{"json.bytes_per_req", "B"},
	{"net.bin.rtt_us_p50", "us"},
	{"net.json.rtt_us_p50", "us"},
	{"net.self_us", "us"},
	{"serve.submit_us_p50", "us"},
	{"serve.self_us", "us"},
	{"serve.reqs_per_batch", "req"},
	{"serve.occupancy_p99", "req"},
	{"serve.groups_per_batch", "group"},
	{"serve.rejected", "count"},
	{"serve.shed", "count"},
	{"serve.deadline_drops", "count"},
	{"cluster.scan_us_p50", "us"},
	{"cluster.self_us", "us"},
	{"cluster.pieces_per_req", "count"},
	{"cluster.shards_per_req", "count"},
	{"cluster.carry_prescan_elems_per_req", "elem"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_wins", "count"},
	{"cluster.worker_imbalance", "ratio"},
	{"arena.gets_per_req", "count"},
	{"arena.miss_ratio", "ratio"},
	{"arena.pooled_bytes_per_req", "B"},
	{"go.allocs_per_req", "count"},
	{"go.alloc_bytes_per_req", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.wrong", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.error_rate", "ratio"},
	{"ladder.kernel_us", "us"},
	{"ladder.residual_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// conforms reports whether res carries exactly defs, with their units
// and finite values.
func conforms(res *result, defs []metricDef) error {
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s could not be measured", d.name)
		}
	}
	return nil
}
