//! The benchmark's contract as data: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! is this file rendered (`benchmark --print-spec`), and a unit test
//! keeps the two from drifting. What each layer metric is expected to
//! move is prose, and lives in `README.md`.

use crate::json::Json;

/// How long one driver run measures, in seconds; also the default for
/// `--seconds`.
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// True when a larger value is the better one.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dist2_quick",
        why: "dist_train as users run it: 3 processes, Unix sockets, rendezvous, a commit vote per step; \
              every layer takes part and none dominates, so it says whether the whole got faster",
    },
    Workload {
        name: "thread2_quick",
        why: "the same task on the thread backend: kernels do nearly all the work and the wire none, so \
              kernel gains show here and wire or commit gains must not; the baseline dist2_quick pays over",
    },
    Workload {
        name: "wire_bw_4m",
        why: "4 MiB ring allreduce over a socketpair: CRC, frame copies and write/read syscalls do the \
              work, compute and commit none; CRC, zero-copy framing and writev gains show here only",
    },
    Workload {
        name: "wire_lat_6k",
        why: "the same transport at the quick preset's 5840-byte gradient: latency-bound (syscalls, reader \
              wake-ups, acks), so batching that buys bandwidth at small-message cost shows as a loss here",
    },
    Workload {
        name: "pipe_wide_int8",
        why: "the pipelined work-stealing executor on a net 13x the quick one with int8 + error feedback: \
              kernels, codec and core pool do all the work, sockets none; the bypass for every wire change",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: None }
}

/// Measured with tracing off, on every workload. The time-based bounds
/// sit at the schema's ceiling because the 2-core reference box runs a
/// third slower for up to a minute at a time (see README, "How a run is
/// shaped"): a run that falls wholly inside such a spell has no quiet
/// repetition to report, and a tighter bound would fail an A/A on it.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("steps_per_s", "1/s", true, 0.25),
    e2e("step_ms_p50", "ms", false, 0.25),
    e2e("cpu_ms_per_step", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
];

/// Measured by the traced pass (`--trace 1`): the program's modules,
/// then the `dist_train` step budget, the closure error, and the
/// traced run of the workload itself.
pub const PER_LAYER: [Metric; 56] = [
    layer("trainer.net.grad_ms", "ms", false),
    layer("trainer.net.grad_wide_ms", "ms", false),
    layer("trainer.net.wide_gflops", "GFLOP/s", true),
    layer("trainer.net.allocs_per_step", "count", false),
    layer("trainer.segdata.batch_us", "us", false),
    layer("trainer.sgd.apply_us", "us", false),
    layer("trainer.pipeline.reduce_ms", "ms", false),
    layer("trainer.pipeline.step_1w_ms", "ms", false),
    layer("trainer.pipeline.step_2w_ms", "ms", false),
    layer("trainer.checkpoint.save_us", "us", false),
    layer("trainer.checkpoint.load_us", "us", false),
    layer("collectives.compression.int8_encode_mbps", "MB/s", true),
    layer("collectives.compression.int8_decode_mbps", "MB/s", true),
    layer("collectives.compression.fp16_encode_mbps", "MB/s", true),
    layer("collectives.compression.fp16_decode_mbps", "MB/s", true),
    layer("collectives.compression.int8_ratio", "ratio", true),
    layer("collectives.compression.ef_roundtrip_us", "us", false),
    layer("collectives.reduce.sum_gbps", "GB/s", true),
    layer("collectives.exec_thread.allreduce_6k_us", "us", false),
    layer("collectives.exec_thread.allreduce_4m_ms", "ms", false),
    layer("collectives.exec_peer.channel_6k_us", "us", false),
    layer("collectives.exec_peer.channel_4m_ms", "ms", false),
    layer("collectives.exec_peer.socket_6k_us", "us", false),
    layer("collectives.exec_peer.socket_4m_ms", "ms", false),
    layer("collectives.exec_peer.frames_per_step", "count", false),
    layer("collectives.exec_peer.bytes_per_step", "B", false),
    layer("collectives.exec_peer.resends", "count", false),
    layer("collectives.exec_peer.nacks", "count", false),
    layer("faults.crc.gbps", "GB/s", true),
    layer("faults.crc.6k_ns", "ns", false),
    layer("transport.frame.encode_gbps", "GB/s", true),
    layer("transport.frame.parse_gbps", "GB/s", true),
    layer("transport.frame.encode_6k_ns", "ns", false),
    layer("transport.frame.parse_6k_ns", "ns", false),
    layer("transport.mesh.pingpong_us_p50", "us", false),
    layer("transport.mesh.pingpong_us_p99", "us", false),
    layer("transport.mesh.stream_mbps", "MB/s", true),
    layer("transport.channel.pingpong_us_p50", "us", false),
    layer("transport.channel.stream_mbps", "MB/s", true),
    layer("transport.rendezvous.assemble_ms", "ms", false),
    layer("dist.compute_us_p50", "us", false),
    layer("dist.exchange_us_p50", "us", false),
    layer("dist.commit_rest_us_p50", "us", false),
    layer("dist.step_us_p50", "us", false),
    layer("dist.step_us_p99", "us", false),
    layer("dist.rank_skew_us", "us", false),
    layer("dist.trace_overhead_pct", "%", false),
    layer("dist.telemetry_overhead_pct", "%", false),
    layer("dist.single_steps_per_s", "1/s", true),
    layer("dist.scaling_eff_2p", "ratio", true),
    layer("closure.wire_bw_4m_pct", "%", false),
    layer("closure.dist2_quick_pct", "%", false),
    layer("traced.steps_per_s", "1/s", true),
    layer("traced.step_ms_p50", "ms", false),
    layer("traced.step_ms_p90", "ms", false),
    layer("traced.overhead_pct", "%", false),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map_or("", |m| m.unit)
}

/// `BENCHMARK.json`, exactly the keys the driver's schema allows.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(if m.higher_is_better { "higher" } else { "lower" })),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    let one_line = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    Json::obj(vec![
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::str(w.name)),
                            ("why", Json::Str(one_line(w.why))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn spec_meets_the_driver_schema() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "a name breaks the naming rule");
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                (1..=16).contains(&m.unit.len()) && m.unit.chars().all(ok),
                "unit of {}",
                m.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(
            (2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128 && END_TO_END.len() <= 16
        );
        let doc = benchmark_json();
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w} is {} chars", why.len());
        }
        assert!(doc.pretty().len() <= 64 << 10);
    }

    /// The committed file is this spec, rendered. Skipped where the
    /// crate is built without the repo around it.
    #[test]
    fn committed_benchmark_json_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("skipped: {path} not present");
            return;
        };
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --print-spec > BENCHMARK.json`"
        );
    }
}
