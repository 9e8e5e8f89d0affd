//! The metric names of `BENCHMARK.json`, with their units. A run with
//! `--trace 0` prints every end-to-end metric and a run with `--trace 1`
//! every per-layer metric; a layer a workload does not exercise reads 0
//! there (see `perf/README.md` for which layer belongs to which
//! workload).

/// How far a per-layer value can be trusted to repeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A count that repeats bit for bit for one seed and op count;
    /// `--counts` fails if it does not.
    Exact,
    /// A count that depends on how `W` client threads interleave
    /// (joins, evictions): no claim may rest on it. Its unit says so
    /// (`approx_count`), which is how `BENCHMARK.json` carries the label.
    Approx,
    /// A time, or a ratio of times.
    Timed,
}

use Kind::{Approx, Exact, Timed};

/// `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit, kind)`, in report order.
pub const PER_LAYER: [(&str, &str, Kind); 85] = [
    ("syntax.lex_ms_per_mb", "ms/MB", Timed),
    ("syntax.tokens_per_s", "1/s", Timed),
    ("syntax.tokens", "count", Exact),
    ("syntax.parse_ms_per_mb", "ms/MB", Timed),
    ("seq.compile_ms", "ms", Timed),
    ("seq.backend_ms", "ms", Timed),
    ("core.concurrent_vs_seq", "ratio", Timed),
    ("core.streams", "count", Exact),
    ("core.tasks_run", "count", Exact),
    ("sched.busy_us.lex", "us/op", Timed),
    ("sched.busy_us.split", "us/op", Timed),
    ("sched.busy_us.splice", "us/op", Timed),
    ("sched.busy_us.import", "us/op", Timed),
    ("sched.busy_us.defparse", "us/op", Timed),
    ("sched.busy_us.modparse", "us/op", Timed),
    ("sched.busy_us.procparse", "us/op", Timed),
    ("sched.busy_us.codegen_long", "us/op", Timed),
    ("sched.busy_us.codegen", "us/op", Timed),
    ("sched.busy_us.merge", "us/op", Timed),
    ("sched.utilization", "ratio", Timed),
    ("sched.wall_speedup", "ratio", Timed),
    ("sched.sim_vt_p1", "count", Exact),
    ("sched.sim_vt_p8", "count", Exact),
    ("sched.sim_speedup_p8", "ratio", Exact),
    ("sched.work_units", "count", Exact),
    ("incr.store_loads", "count", Exact),
    ("incr.store_load_hits", "count", Exact),
    ("incr.store_load_us", "us/op", Timed),
    ("incr.store_load_bytes", "bytes", Exact),
    ("incr.store_stores", "count", Exact),
    ("incr.store_store_us", "us/op", Timed),
    ("incr.store_store_bytes", "bytes", Exact),
    ("incr.hit_ratio", "ratio", Exact),
    ("incr.spliced", "count", Exact),
    ("incr.recompiled", "count", Exact),
    ("incr.bad_entries", "count", Exact),
    ("incr.decode_us_per_entry", "us", Timed),
    ("incr.encode_us_per_entry", "us", Timed),
    ("incr.warm_vs_cold_p50", "ratio", Timed),
    ("watch.check_us_p50", "us", Timed),
    ("watch.cold_open_us_p50", "us", Timed),
    ("watch.check_vs_cold_p50", "ratio", Timed),
    ("watch.warm_stream_ratio", "ratio", Exact),
    ("watch.deduped", "count", Exact),
    ("watch.degraded_revs", "count", Exact),
    ("watch.store_hits", "count", Exact),
    ("watch.store_misses", "count", Exact),
    ("watch.store_insertions", "count", Exact),
    ("serve.submitted", "approx_count", Approx),
    ("serve.joined", "approx_count", Approx),
    ("serve.shed", "approx_count", Approx),
    ("serve.compiled", "approx_count", Approx),
    ("serve.dedup_ratio", "approx_ratio", Approx),
    ("serve.queue_wait_us_p50", "us", Timed),
    ("serve.compile_us_p50", "us", Timed),
    ("serve.store_hit_ratio", "approx_ratio", Approx),
    ("serve.store_evictions", "approx_count", Approx),
    ("serve.store_peak_bytes", "approx_bytes", Approx),
    ("fabric.client_us_p50", "us", Timed),
    ("fabric.router_self_us_p50", "us", Timed),
    ("fabric.wire_self_us_p50", "us", Timed),
    ("fabric.shard_self_us_p50", "us", Timed),
    ("fabric.replication_us_per_req", "us", Timed),
    ("fabric.frames.compile", "approx_count", Approx),
    ("fabric.frames.sync", "approx_count", Approx),
    ("fabric.frames.deltaship", "approx_count", Approx),
    ("fabric.frame_bytes.compile", "approx_bytes", Approx),
    ("fabric.frame_bytes.outcome", "approx_bytes", Approx),
    ("fabric.frame_bytes.deltaship", "approx_bytes", Approx),
    ("fabric.encode_us_per_mb", "us/MB", Timed),
    ("fabric.decode_us_per_mb", "us/MB", Timed),
    ("fabric.ships", "approx_count", Approx),
    ("fabric.shipped_ops", "approx_count", Approx),
    ("fabric.joined", "approx_count", Approx),
    ("fabric.client_retries", "approx_count", Approx),
    ("fabric.hop_ratio_p50", "ratio", Timed),
    ("alloc.count_per_op", "1/op", Timed),
    ("alloc.bytes_per_op", "bytes/op", Timed),
    ("proc.mappings_end", "approx_count", Approx),
    ("proc.rss_growth_kb_per_op", "kB/op", Timed),
    ("client.latency_p99_ms", "ms", Timed),
    ("client.latency_max_ms", "ms", Timed),
    ("client.ops", "count", Exact),
    ("trace.overhead_share", "ratio", Timed),
    ("trace.span_coverage", "ratio", Timed),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` of one top-level array of `BENCHMARK.json`,
    /// with the `"unit": "…"` that follows it (none for a workload).
    fn names_in(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let quoted = |rest: &str| rest.split('"').nth(1).expect("quoted value").to_string();
        body.split("\"name\":")
            .skip(1)
            .map(|rest| {
                let unit = rest.split_once("\"unit\":").map(|(_, u)| quoted(u));
                (quoted(rest), unit.unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let pairs = |ours: Vec<(&str, &str)>| -> Vec<(String, String)> {
            ours.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in("end_to_end"), pairs(END_TO_END.to_vec()));
        let ours = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(names_in("per_layer"), pairs(ours));
        let ours = crate::workloads::ALL.iter().map(|w| (w.name, "")).collect();
        assert_eq!(names_in("workloads"), pairs(ours));
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &all {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        for (name, unit, kind) in PER_LAYER {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(ok), "{unit}");
            assert_eq!(unit.starts_with("approx_"), kind == Approx, "{name}");
        }
    }
}
