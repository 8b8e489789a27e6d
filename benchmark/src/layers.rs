//! The traced pass (`--trace 1`): every per-layer metric.
//!
//! Three parts, all recorded as harness spans and flushed to
//! `artifacts/benchmark/trace_<workload>.json` at the end:
//!
//! 1. the workload itself, once untraced and once traced at a fraction
//!    of its end-to-end size — the difference is the tracing overhead;
//! 2. one tight timed loop per layer around one public call at the size
//!    a workload uses (layers are the repo's modules);
//! 3. the `dist_train` step budget, read from the program's own
//!    `--trace` output, plus the overheads of `--trace` and
//!    `--telemetry` and the single-worker baseline.
//!
//! The closure metrics then say how far the layer numbers are from
//! adding up to the measured step.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile_of, rate_beyond, supported_percentile_of};
use crate::sut::{self, Launch, Op, TracedStep, WireKind};
use crate::sys;
use crate::workloads::{self, check_pipe, check_wire, Outcome, Sizing, LAUNCH_DEADLINE};

/// Share of `--seconds` the traced and the untraced run of the workload
/// each get.
const WORKLOAD_SHARE: f64 = 0.10;
/// Share each `dist_train` launch of part 3 gets.
const DIST_SHARE: f64 = 0.15;
/// Share each layer loop gets.
const LOOP_SHARE: f64 = 0.012;

const MIB: usize = 1 << 20;
/// Payload of one frame of a 4 MiB two-rank ring step.
const HALF_BW_BYTES: usize = 2 * MIB;
const CRC_BYTES: usize = 16 * MIB;

struct Pass<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    quick: bool,
    spans: Spans,
    root: SpanId,
    out: Outcome,
}

impl Pass<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.out.metrics.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }

    fn sizing(&self, workload: &str, share: f64) -> Result<Sizing, String> {
        workloads::single(workload, self.seconds * share, self.quick)
            .ok_or_else(|| format!("no such workload: {workload}"))
    }

    /// Seconds per call of `op`: the median over chunks of a loop that
    /// runs for this pass's loop budget. One span covers the loop.
    fn per_call_s(&mut self, name: &'static str, mut op: Op) -> f64 {
        let budget = Duration::from_secs_f64(
            self.seconds * LOOP_SHARE * if self.quick { 0.05 } else { 1.0 },
        );
        op(); // first call grows every reusable buffer to size
        let loop_started = Instant::now();
        let mut iters = 1u64;
        let mut chunks = Vec::new();
        let mut calls = 0;
        while chunks.len() < 3 || loop_started.elapsed() < budget {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            let dt = t0.elapsed();
            calls += iters;
            if dt < budget / 16 {
                // Too short to time well: grow the chunk, keep nothing.
                iters *= 2;
                chunks.clear();
            } else {
                chunks.push(dt.as_secs_f64() / iters as f64);
            }
        }
        self.spans.push(name, loop_started, Instant::now(), Some(self.root), calls);
        median(&chunks)
    }

    /// Time `op` in a loop, record the loop as a span named after
    /// `metric`, and report `value(seconds per call)` under it.
    fn time(&mut self, metric: &'static str, op: Op, value: impl Fn(f64) -> f64) -> f64 {
        let secs = self.per_call_s(metric, op);
        self.put(metric, value(secs));
        secs
    }

    /// Record a span from `started` to now for a block that is not a
    /// plain call loop (it runs threads or processes of its own).
    fn block(&mut self, name: &'static str, started: Instant, count: usize) {
        self.spans.push(name, started, Instant::now(), Some(self.root), count as u64);
    }

    // ---------------------------------------------------- part 2: layers

    fn trainer_layers(&mut self) -> Result<(), String> {
        let seed = self.seed;
        self.time("trainer.net.grad_ms", sut::op_grad(false, seed), |s| s * 1e3);
        let wide = self.time("trainer.net.grad_wide_ms", sut::op_grad(true, seed), |s| s * 1e3);
        self.put("trainer.net.wide_gflops", sut::grad_flops(true) / wide / 1e9);
        let mut op = sut::op_grad(false, seed);
        op();
        let (calls, before) = (20, sys::alloc_events());
        (0..calls).for_each(|_| op());
        let allocs = sys::alloc_events() - before;
        self.put("trainer.net.allocs_per_step", allocs as f64 / calls as f64);
        self.time("trainer.segdata.batch_us", sut::op_segdata(seed), |s| s * 1e6);
        self.time("trainer.sgd.apply_us", sut::op_sgd(seed), |s| s * 1e6);

        let sz = self.sizing("pipe_wide_int8", LOOP_SHARE * 4.0)?;
        let lanes = [
            (1, "trainer.pipeline.step_1w_ms"),
            (workloads::pipe_workers(), "trainer.pipeline.step_2w_ms"),
        ];
        for (workers, metric) in lanes {
            let t0 = Instant::now();
            let run = sut::pipe_run(workers, sz.warm.min(5), sz.timed, seed, false, None)?;
            self.block(metric, t0, sz.timed);
            check_pipe(&run)?;
            self.put(metric, percentile_of(&run.steps.step_s, 50.0) * 1e3);
            if metric.ends_with("2w_ms") {
                self.put("trainer.pipeline.reduce_ms", run.reduce_s / sz.timed as f64 * 1e3);
            }
        }

        let dir = sut::scratch_dir("ck")?;
        self.time(
            "trainer.checkpoint.save_us",
            sut::op_checkpoint_save(dir.join("save.ckpt"), seed),
            |s| s * 1e6,
        );
        let load = sut::op_checkpoint_load(dir.join("load.ckpt"), seed)
            .map(|op| self.time("trainer.checkpoint.load_us", op, |s| s * 1e6));
        let _ = std::fs::remove_dir_all(&dir);
        load.map(|_| ())
    }

    fn collectives_layers(&mut self) -> Result<(), String> {
        let seed = self.seed;
        let raw_mb = (4 * sut::BW_ELEMS) as f64 / 1e6;
        for (metric, codec, encode) in [
            ("collectives.compression.int8_encode_mbps", "int8", true),
            ("collectives.compression.int8_decode_mbps", "int8", false),
            ("collectives.compression.fp16_encode_mbps", "fp16", true),
            ("collectives.compression.fp16_decode_mbps", "fp16", false),
        ] {
            self.time(metric, sut::op_codec(codec, encode, sut::BW_ELEMS, seed), |s| raw_mb / s);
        }
        self.put(
            "collectives.compression.int8_ratio",
            sut::codec_ratio("int8", sut::wide_params()),
        );
        self.time("collectives.compression.ef_roundtrip_us", sut::op_ef_roundtrip(seed), |s| {
            s * 1e6
        });
        self.time("collectives.reduce.sum_gbps", sut::op_combine_sum(sut::BW_ELEMS, seed), |s| {
            raw_mb / 1e3 / s
        });

        let small = sut::quick_grad_elems();
        let op = sut::op_thread_allreduce(small, seed)?;
        self.time("collectives.exec_thread.allreduce_6k_us", op, |s| s * 1e6);
        let op = sut::op_thread_allreduce(sut::BW_ELEMS, seed)?;
        self.time("collectives.exec_thread.allreduce_4m_ms", op, |s| s * 1e3);

        // The workloads' own allreduce loop, short, over both backends:
        // socket − channel at equal size is framing + CRC + syscalls.
        let (mut resends, mut nacks) = (0, 0);
        for (metric, kind, workload, elems, scale) in [
            ("collectives.exec_peer.channel_6k_us", WireKind::Channel, "wire_lat_6k", small, 1e6),
            (
                "collectives.exec_peer.channel_4m_ms",
                WireKind::Channel,
                "wire_bw_4m",
                sut::BW_ELEMS,
                1e3,
            ),
            ("collectives.exec_peer.socket_6k_us", WireKind::Socket, "wire_lat_6k", small, 1e6),
            (
                "collectives.exec_peer.socket_4m_ms",
                WireKind::Socket,
                "wire_bw_4m",
                sut::BW_ELEMS,
                1e3,
            ),
        ] {
            let sz = self.sizing(workload, LOOP_SHARE * 4.0)?;
            let t0 = Instant::now();
            let run = sut::allreduce_run(kind, elems, sz.warm / 4, sz.timed, seed, None)?;
            self.block(metric, t0, sz.timed);
            check_wire(&run)?;
            self.put(metric, percentile_of(&run.call_s, 50.0) * scale);
            resends += run.counts.resends;
            nacks += run.counts.nacks;
            if metric.ends_with("socket_4m_ms") {
                let per_step = |count: u64| count as f64 / sz.timed as f64;
                self.put("collectives.exec_peer.frames_per_step", per_step(run.counts.frames));
                self.put("collectives.exec_peer.bytes_per_step", per_step(run.counts.bytes));
            }
        }
        self.put("collectives.exec_peer.resends", resends as f64);
        self.put("collectives.exec_peer.nacks", nacks as f64);
        Ok(())
    }

    fn transport_layers(&mut self) -> Result<(), String> {
        let seed = self.seed;
        let small = 4 * sut::quick_grad_elems();
        let gbps = |bytes: usize| move |s: f64| bytes as f64 / s / 1e9;
        self.time("faults.crc.gbps", sut::op_crc(CRC_BYTES, seed), gbps(CRC_BYTES));
        self.time("faults.crc.6k_ns", sut::op_crc(small, seed), |s| s * 1e9);
        self.time(
            "transport.frame.encode_gbps",
            sut::op_frame_encode(HALF_BW_BYTES, seed),
            gbps(HALF_BW_BYTES),
        );
        self.time(
            "transport.frame.parse_gbps",
            sut::op_frame_parse(HALF_BW_BYTES, seed),
            gbps(HALF_BW_BYTES),
        );
        self.time("transport.frame.encode_6k_ns", sut::op_frame_encode(small, seed), |s| s * 1e9);
        self.time("transport.frame.parse_6k_ns", sut::op_frame_parse(small, seed), |s| s * 1e9);

        let (iters, frames) = if self.quick { (200, 4) } else { (2_000, 32) };
        for (kind, p50, p99, rate) in [
            (
                WireKind::Socket,
                "transport.mesh.pingpong_us_p50",
                Some("transport.mesh.pingpong_us_p99"),
                "transport.mesh.stream_mbps",
            ),
            (
                WireKind::Channel,
                "transport.channel.pingpong_us_p50",
                None,
                "transport.channel.stream_mbps",
            ),
        ] {
            let t0 = Instant::now();
            let rtt = sut::pingpong(kind, iters / 10, iters)?;
            self.block(p50, t0, iters);
            self.put(p50, percentile_of(&rtt, 50.0));
            if let Some(p99) = p99 {
                self.put(p99, supported_percentile_of(&rtt, 99.0));
            }
            let t0 = Instant::now();
            let secs = sut::stream(kind, frames, HALF_BW_BYTES, seed)?;
            self.block(rate, t0, frames * HALF_BW_BYTES);
            self.put(rate, (frames * HALF_BW_BYTES) as f64 / secs / 1e6);
        }

        let t0 = Instant::now();
        let assembles: Vec<f64> =
            (0..3).map(|_| sut::rendezvous_assemble()).collect::<Result<_, _>>()?;
        self.block("transport.rendezvous.assemble_ms", t0, 3);
        self.put("transport.rendezvous.assemble_ms", median(&assembles) * 1e3);
        Ok(())
    }

    // ------------------------------------------------ part 3: dist_train

    fn launch(&mut self, span: &'static str, spec: Launch) -> Result<sut::Launched, String> {
        let t0 = Instant::now();
        let launched = sut::launch(&spec, LAUNCH_DEADLINE)?;
        self.block(span, t0, spec.steps);
        launched.check_clean()?;
        Ok(launched)
    }

    /// Returns rank 0's traced step periods in µs (for `traced.*` when
    /// the workload is `dist2_quick`).
    fn dist_layer(&mut self) -> Result<Vec<f64>, String> {
        let sz = self.sizing("dist2_quick", DIST_SHARE)?;
        let (short_steps, long_steps) = (sz.warm, sz.warm + sz.timed);
        let seed = self.seed;
        let spec =
            |workers, steps, trace, telemetry| Launch { workers, steps, seed, trace, telemetry };
        let short =
            self.launch("dist.launch_short", spec(sut::RANKS, short_steps, false, false))?;
        let base = self.launch("dist.launch", spec(sut::RANKS, long_steps, false, false))?;
        let telemetry =
            self.launch("dist.launch_telemetry", spec(sut::RANKS, long_steps, false, true))?;
        let single_short =
            self.launch("dist.launch_single_short", spec(1, short_steps, false, false))?;
        let single = self.launch("dist.launch_single", spec(1, long_steps, false, false))?;
        let traced =
            self.launch("dist.launch_traced", spec(sut::RANKS, long_steps, true, false))?;
        let ranks = traced.traced_steps()?;

        let rate = |long: &sut::Launched, short: &sut::Launched| {
            rate_beyond(long_steps as u64, short_steps as u64, long.wall_s, short.wall_s)
                .ok_or_else(|| "a long launch was not longer than its short twin".to_string())
        };
        let (pair_rate, single_rate) = (rate(&base, &short)?, rate(&single, &single_short)?);
        let timed_s = base.wall_s - short.wall_s;
        self.put("dist.telemetry_overhead_pct", (telemetry.wall_s - base.wall_s) / timed_s * 100.0);
        self.put("dist.single_steps_per_s", single_rate);
        // Batch per worker is fixed, so a perfectly scaling pair keeps
        // the single worker's step rate.
        self.put("dist.scaling_eff_2p", pair_rate / single_rate);

        let steps0 = ranks
            .first()
            .filter(|s| s.len() >= 3)
            .ok_or("the traced launch left no steps for rank 0")?;
        let periods: Vec<f64> = steps0.windows(2).map(|w| w[1].start_us - w[0].start_us).collect();
        let of =
            |f: fn(&TracedStep) -> f64| steps0[..periods.len()].iter().map(f).collect::<Vec<f64>>();
        let (compute, exchange) = (of(|s| s.compute_us), of(|s| s.exchange_us));
        let rest: Vec<f64> = periods
            .iter()
            .zip(compute.iter().zip(&exchange))
            .map(|(p, (c, e))| p - c - e)
            .collect();
        self.put("dist.compute_us_p50", percentile_of(&compute, 50.0));
        self.put("dist.exchange_us_p50", percentile_of(&exchange, 50.0));
        self.put("dist.commit_rest_us_p50", percentile_of(&rest, 50.0));
        self.put("dist.step_us_p50", percentile_of(&periods, 50.0));
        self.put("dist.step_us_p99", supported_percentile_of(&periods, 99.0));
        // Each worker stamps against its own epoch, so a constant offset
        // between the ranks means nothing; what is left after removing
        // it is how far the two drift apart from step to step.
        let steps1 = ranks
            .get(1)
            .filter(|s| !s.is_empty())
            .ok_or("the traced launch left no steps for rank 1")?;
        let n = steps0.len().min(steps1.len());
        let gap: Vec<f64> = steps0[steps0.len() - n..]
            .iter()
            .zip(&steps1[steps1.len() - n..])
            .map(|(a, b)| a.start_us - b.start_us)
            .collect();
        let offset = median(&gap);
        let skew = median(&gap.iter().map(|g| (g - offset).abs()).collect::<Vec<f64>>());
        self.put("dist.rank_skew_us", skew);
        let mean_period_us = periods.iter().sum::<f64>() / periods.len() as f64;
        self.put("dist.trace_overhead_pct", (mean_period_us * pair_rate / 1e6 - 1.0) * 100.0);
        Ok(periods)
    }

    // ------------------------------------------- part 1: the workload

    /// `traced.*` from per-step durations in ms and the run's rate.
    fn put_traced(&mut self, step_ms: &[f64], steps_per_s: f64, untraced_p50_ms: f64) {
        let p50 = percentile_of(step_ms, 50.0);
        self.put("traced.steps_per_s", steps_per_s);
        self.put("traced.step_ms_p50", p50);
        self.put("traced.step_ms_p90", supported_percentile_of(step_ms, 90.0));
        self.put("traced.overhead_pct", (p50 / untraced_p50_ms - 1.0) * 100.0);
    }

    fn traced_workload(&mut self, dist_periods_us: &[f64]) -> Result<(), String> {
        let sz = self.sizing(self.workload, WORKLOAD_SHARE)?;
        let seed = self.seed;
        let ms = |secs: &[f64]| secs.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
        let t0 = Instant::now();
        match self.workload {
            "dist2_quick" => {
                let step_ms: Vec<f64> = dist_periods_us.iter().map(|us| us / 1e3).collect();
                let mean_ms = step_ms.iter().sum::<f64>() / step_ms.len() as f64;
                let untraced_ms = mean_ms / (1.0 + self.get("dist.trace_overhead_pct") / 100.0);
                // The untraced run has no per-step boundary; its mean
                // stands in for its median.
                let p50 = percentile_of(&step_ms, 50.0);
                self.put_traced(&step_ms, 1e3 / mean_ms, p50 * untraced_ms / mean_ms);
                return Ok(());
            }
            "thread2_quick" => {
                let steps = sz.warm + sz.timed;
                let plain = sut::thread_train(steps, seed, false)?;
                let traced = sut::thread_train(steps, seed, true)?;
                let step_ms: Vec<f64> =
                    traced.step_starts_us.windows(2).map(|w| (w[1] - w[0]) / 1e3).collect();
                if step_ms.is_empty() {
                    return Err("the traced thread run recorded no steps".into());
                }
                let mean_ms = step_ms.iter().sum::<f64>() / step_ms.len() as f64;
                let p50 = percentile_of(&step_ms, 50.0);
                self.put_traced(&step_ms, 1e3 / mean_ms, p50 * plain.wall_s / traced.wall_s);
                self.flush_program_trace(traced.program_trace.as_deref())?;
            }
            "wire_bw_4m" | "wire_lat_6k" => {
                let elems = if self.workload == "wire_bw_4m" {
                    sut::BW_ELEMS
                } else {
                    sut::quick_grad_elems()
                };
                let plain =
                    sut::allreduce_run(WireKind::Socket, elems, sz.warm, sz.timed, seed, None)?;
                let traced = sut::allreduce_run(
                    WireKind::Socket,
                    elems,
                    sz.warm,
                    sz.timed,
                    seed,
                    Some(&mut self.spans),
                )?;
                check_wire(&traced)?;
                let rate = sz.timed as f64 / traced.wall_s;
                self.put_traced(
                    &ms(&traced.step_s),
                    rate,
                    percentile_of(&plain.step_s, 50.0) * 1e3,
                );
            }
            "pipe_wide_int8" => {
                let workers = workloads::pipe_workers();
                let plain = sut::pipe_run(workers, sz.warm, sz.timed, seed, false, None)?;
                let traced =
                    sut::pipe_run(workers, sz.warm, sz.timed, seed, true, Some(&mut self.spans))?;
                check_pipe(&traced)?;
                let rate = sz.timed as f64 / traced.steps.wall_s;
                self.put_traced(
                    &ms(&traced.steps.step_s),
                    rate,
                    percentile_of(&plain.steps.step_s, 50.0) * 1e3,
                );
                self.flush_program_trace(traced.program_trace.as_deref())?;
            }
            other => return Err(format!("no such workload: {other}")),
        }
        self.spans.push("workload", t0, Instant::now(), Some(self.root), 2 * sz.timed as u64);
        Ok(())
    }

    fn flush_program_trace(&self, trace: Option<&str>) -> Result<(), String> {
        let Some(trace) = trace else { return Ok(()) };
        let path =
            Path::new(sut::SCRATCH_DIR).join(format!("trace_{}_program.json", self.workload));
        std::fs::create_dir_all(sut::SCRATCH_DIR)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    // ----------------------------------------------------------- closure

    /// How far the layer rates are from predicting the measured step.
    fn closure(&mut self) {
        // wire_bw_4m, per rank per step: the executor's protocol and
        // reduction with no framing (channel), plus one encode and one
        // parse of the 4 MiB the rank sends and receives (each a CRC
        // pass and a copy), plus the kernel's share of moving them —
        // what streaming costs beyond the slower of encode and parse,
        // which the stream test overlaps on two threads.
        let step_mb = (4 * sut::BW_ELEMS) as f64 / 1e6;
        let encode_ms = step_mb / self.get("transport.frame.encode_gbps");
        let parse_ms = step_mb / self.get("transport.frame.parse_gbps");
        let stream_ms = step_mb / self.get("transport.mesh.stream_mbps") * 1e3;
        let syscall_ms = (stream_ms - encode_ms.max(parse_ms)).max(0.0);
        let predicted =
            self.get("collectives.exec_peer.channel_4m_ms") + encode_ms + parse_ms + syscall_ms;
        let measured = self.get("collectives.exec_peer.socket_4m_ms");
        self.put("closure.wire_bw_4m_pct", (predicted - measured).abs() / measured * 100.0);
        // dist2_quick, per step: batch generation + gradient + the
        // socket allreduce of the quick gradient + commit and the rest.
        let predicted = self.get("trainer.segdata.batch_us")
            + self.get("trainer.net.grad_ms") * 1e3
            + self.get("collectives.exec_peer.socket_6k_us")
            + self.get("dist.commit_rest_us_p50");
        let measured = self.get("dist.step_us_p50");
        self.put("closure.dist2_quick_pct", (predicted - measured).abs() / measured * 100.0);
    }
}

/// Which parts of the traced pass to run. The driver's single-workload
/// run wants all of it; `--all` runs the workload-independent parts
/// once, not once per workload.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    /// Parts 2 and 3 and the closure: everything but `traced.*`.
    pub layers: bool,
    /// Off leaves out whatever needs the `dist_train` binary (the
    /// smoke test on a tree where it was never built).
    pub dist: bool,
}

/// The traced pass for `workload`: per-layer metrics, and a Chrome
/// trace of the harness spans on disk.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    parts: Parts,
) -> Result<Outcome, String> {
    let mut spans = Spans::new(workload);
    let started = Instant::now();
    let root = spans.push("traced_pass", started, started, None, 1);
    let mut pass = Pass { workload, seed, seconds, quick, spans, root, out: Outcome::default() };
    if parts.layers {
        pass.trainer_layers()?;
        pass.collectives_layers()?;
        pass.transport_layers()?;
    }
    // dist2_quick's own traced run *is* the traced launch of part 3.
    let dist_periods = if parts.dist && (parts.layers || workload == "dist2_quick") {
        pass.dist_layer()?
    } else {
        Vec::new()
    };
    if parts.layers {
        pass.closure();
    }
    if parts.dist || workload != "dist2_quick" {
        pass.traced_workload(&dist_periods)?;
    }
    if !(parts.layers && parts.dist) {
        // What was not run has no value; neither has what derives from it.
        pass.out
            .metrics
            .retain(|(name, v)| !v.is_nan() && (parts.layers || name.starts_with("traced.")));
    }
    pass.spans.close(root);
    let path = Path::new(sut::SCRATCH_DIR).join(format!("trace_{workload}.json"));
    pass.spans.flush(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    pass.out.attempted = pass.spans.len() as u64;
    Ok(pass.out)
}
