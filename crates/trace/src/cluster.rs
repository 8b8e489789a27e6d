//! The coordinator side of the distributed telemetry plane (§5j):
//! cluster-wide aggregation of per-worker [`TelemetrySnapshot`]s.
//!
//! [`ClusterView::ingest`] folds each arriving snapshot (keeping the
//! newest by seq), feeds the **online straggler model**, and reports a
//! [`StragglerAlert`] when a rank newly crosses the threshold. The
//! model is the live twin
//! of the offline critical-path analyzer's: per-rank step-latency
//! EWMAs run through the *same* [`lateness_from`] helper the analyzer
//! applies to per-rank finish times — the fastest rank defines zero,
//! everyone else's excess is their lateness.
//!
//! The view exposes three renderings, all deterministic for goldens:
//!
//! * [`ClusterView::to_prometheus_text`] / [`ClusterView::to_json`] —
//!   the live scrape endpoint's bodies: every wire metric as a
//!   rank-labeled series (`train_steps_committed_total{rank="0"}`),
//!   plus derived `train_straggler_lateness_us{rank=…}` gauges and
//!   cluster totals.
//! * [`ClusterView::flight_json`] — a dead rank's post-mortem
//!   (`flight_<rank>.json`): last-known step, metric cells, in-flight
//!   sends, and the flight-recorder tail that rode its last telemetry
//!   frame.
//! * [`ClusterView::summary_json`] — the per-step-window
//!   `cluster_summary.json` roll-up.
//!
//! [`TelemetrySnapshot`]: crate::telemetry::TelemetrySnapshot

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::chrome::escape;
use crate::critical_path::lateness_from;
use crate::telemetry::{metric, TelemetrySnapshot};

/// Knobs of the online straggler detector.
#[derive(Debug, Clone, Copy)]
pub struct StragglerPolicy {
    /// EWMA smoothing factor for per-rank step latency (weight of the
    /// newest committed step).
    pub alpha: f64,
    /// A rank is lagging when its EWMA exceeds `ratio ×` the fastest
    /// live rank's EWMA…
    pub ratio: f64,
    /// …and its lateness (EWMA − fastest EWMA) exceeds this floor, so
    /// microsecond jitter between equally-fast ranks never alerts.
    pub floor_us: f64,
}

impl Default for StragglerPolicy {
    fn default() -> Self {
        StragglerPolicy { alpha: 0.2, ratio: 2.0, floor_us: 5_000.0 }
    }
}

/// A rank newly crossed the straggler threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerAlert {
    pub rank: u16,
    /// EWMA excess over the fastest live rank, µs.
    pub lateness_us: f64,
    /// The lagging rank's own EWMA, µs.
    pub ewma_us: f64,
    /// The fastest live rank's EWMA, µs.
    pub best_us: f64,
    /// The lagging rank's step when the alert fired.
    pub step: u32,
}

#[derive(Debug)]
struct RankState {
    snap: TelemetrySnapshot,
    alive: bool,
    /// Step-latency EWMA in µs; 0 folds ⇒ not yet in the model.
    ewma_us: f64,
    folds: u64,
    /// `train_steps_committed_total` at the last EWMA fold.
    last_committed: u64,
    /// Currently over the threshold (alerts fire on the transition).
    lagging: bool,
}

/// See the module docs.
#[derive(Debug)]
pub struct ClusterView {
    policy: StragglerPolicy,
    ranks: BTreeMap<u16, RankState>,
}

impl ClusterView {
    pub fn new(policy: StragglerPolicy) -> Self {
        ClusterView { policy, ranks: BTreeMap::new() }
    }

    /// Fold one decoded snapshot in. Stale seqs (at or below the
    /// newest already held for the rank) are dropped: a rank's one
    /// sender ships in seq order down an ordered stream, so only a
    /// duplicated or replayed frame is stale, and it must not fold the
    /// model twice. Returns an alert iff this snapshot moved its rank
    /// *across* the straggler threshold (level-triggered alerts would
    /// spam the log every step).
    pub fn ingest(&mut self, snap: TelemetrySnapshot) -> Option<StragglerAlert> {
        let rank = snap.rank;
        match self.ranks.get_mut(&rank) {
            Some(state) => {
                if snap.seq <= state.snap.seq {
                    return None;
                }
                // Fold one EWMA sample per newly committed step.
                let committed = snap.metric(metric::STEPS_COMMITTED).unwrap_or(0);
                if committed > state.last_committed {
                    if let Some(lat) = snap.metric(metric::STEP_LATENCY_US).filter(|&l| l > 0) {
                        let lat = lat as f64;
                        state.ewma_us = if state.folds == 0 {
                            lat
                        } else {
                            self.policy.alpha * lat + (1.0 - self.policy.alpha) * state.ewma_us
                        };
                        state.folds += 1;
                    }
                    state.last_committed = committed;
                }
                state.snap = snap;
            }
            None => {
                let committed = snap.metric(metric::STEPS_COMMITTED).unwrap_or(0);
                let mut state = RankState {
                    snap,
                    alive: true,
                    ewma_us: 0.0,
                    folds: 0,
                    last_committed: committed,
                    lagging: false,
                };
                // The first snapshot seeds the EWMA if it already
                // carries a committed step's latency.
                if committed > 0 {
                    if let Some(lat) = state.snap.metric(metric::STEP_LATENCY_US).filter(|&l| l > 0)
                    {
                        state.ewma_us = lat as f64;
                        state.folds = 1;
                    }
                }
                self.ranks.insert(rank, state);
            }
        }
        self.update_lagging(rank)
    }

    /// Re-evaluate `rank` against the model; alert on the off→on edge.
    fn update_lagging(&mut self, rank: u16) -> Option<StragglerAlert> {
        let (lateness, best) = {
            let lat = self.lateness_map();
            let best = self
                .ranks
                .values()
                .filter(|s| s.alive && s.folds > 0)
                .map(|s| s.ewma_us)
                .fold(f64::INFINITY, f64::min);
            (lat, best)
        };
        let state = self.ranks.get_mut(&rank)?;
        let lateness_us = lateness.get(&rank).copied().unwrap_or(0.0);
        let over = state.folds > 0
            && best.is_finite()
            && lateness_us > self.policy.floor_us
            && state.ewma_us > self.policy.ratio * best;
        let fired = over && !state.lagging;
        state.lagging = over;
        if fired {
            Some(StragglerAlert {
                rank,
                lateness_us,
                ewma_us: state.ewma_us,
                best_us: best,
                step: state.snap.current_step,
            })
        } else {
            None
        }
    }

    /// Per-rank lateness (µs) over live modeled ranks, via the same
    /// [`lateness_from`] the critical-path analyzer uses offline.
    fn lateness_map(&self) -> BTreeMap<u16, f64> {
        let modeled: Vec<(u16, f64)> = self
            .ranks
            .iter()
            .filter(|(_, s)| s.alive && s.folds > 0)
            .map(|(&r, s)| (r, s.ewma_us))
            .collect();
        let values: Vec<f64> = modeled.iter().map(|&(_, v)| v).collect();
        modeled.iter().map(|&(r, _)| r).zip(lateness_from(&values)).collect()
    }

    /// Mark a rank dead (degrade/SIGKILL). Its last snapshot is kept
    /// for the post-mortem; it leaves the straggler model's live set.
    pub fn mark_dead(&mut self, rank: u16) {
        if let Some(state) = self.ranks.get_mut(&rank) {
            state.alive = false;
            state.lagging = false;
        }
    }

    /// The newest snapshot held for `rank`.
    pub fn latest(&self, rank: u16) -> Option<&TelemetrySnapshot> {
        self.ranks.get(&rank).map(|s| &s.snap)
    }

    /// Prometheus text exposition of the cluster: every wire metric as
    /// a rank-labeled series, the straggler gauges, and cluster
    /// totals. Deterministic (ranks ascending, metric ids ascending).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut ids: BTreeSet<u16> = BTreeSet::new();
        for state in self.ranks.values() {
            ids.extend(state.snap.metrics.iter().map(|&(id, _)| id));
        }
        for id in ids {
            let name = metric_series_name(id);
            let kind = if metric::is_counter(id) { "counter" } else { "gauge" };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (rank, state) in &self.ranks {
                if let Some(v) = state.snap.metric(id) {
                    let _ = writeln!(out, "{name}{{rank=\"{rank}\"}} {v}");
                }
            }
        }
        let _ = writeln!(out, "# TYPE train_current_step gauge");
        for (rank, state) in &self.ranks {
            let _ =
                writeln!(out, "train_current_step{{rank=\"{rank}\"}} {}", state.snap.current_step);
        }
        let lateness = self.lateness_map();
        let _ = writeln!(out, "# TYPE train_straggler_lateness_us gauge");
        for rank in self.ranks.keys() {
            let v = lateness.get(rank).copied().unwrap_or(0.0);
            let _ = writeln!(out, "train_straggler_lateness_us{{rank=\"{rank}\"}} {v}");
        }
        let alive = self.ranks.values().filter(|s| s.alive).count();
        let _ = writeln!(
            out,
            "# TYPE cluster_ranks_total gauge\ncluster_ranks_total {}",
            self.ranks.len()
        );
        let _ = writeln!(out, "# TYPE cluster_ranks_alive gauge\ncluster_ranks_alive {alive}");
        out
    }

    /// JSON exposition: the same content as the text form, machine
    /// readable, plus per-rank liveness/seq/EWMA (flight tails are in
    /// [`Self::flight_json`], not here — scrapes stay small).
    pub fn to_json(&self) -> String {
        let lateness = self.lateness_map();
        let mut out = String::from("{\"ranks\":{");
        for (i, (rank, state)) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{rank}\":{{\"alive\":{},\"current_step\":{},\"seq\":{},\"ewma_step_us\":{},\"lateness_us\":{},\"flight_dropped\":{},\"metrics\":{{",
                state.alive,
                state.snap.current_step,
                state.snap.seq,
                state.ewma_us,
                lateness.get(rank).copied().unwrap_or(0.0),
                state.snap.flight_dropped,
            );
            let mut sorted: Vec<(u16, u64)> = state.snap.metrics.clone();
            sorted.sort_by_key(|&(id, _)| id);
            for (j, (id, v)) in sorted.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", metric_series_name(*id));
            }
            out.push_str("}}");
        }
        let alive = self.ranks.values().filter(|s| s.alive).count();
        let _ = write!(
            out,
            "}},\"cluster\":{{\"ranks_total\":{},\"ranks_alive\":{alive}}}}}",
            self.ranks.len()
        );
        out
    }

    /// A dead (or live) rank's post-mortem document, if it was ever
    /// heard from: last-known step, metric cells, and the
    /// flight-recorder tail. Written as `flight_<rank>.json`.
    pub fn flight_json(&self, rank: u16) -> Option<String> {
        let state = self.ranks.get(&rank)?;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"rank\": {rank},");
        let _ = writeln!(out, "  \"alive\": {},", state.alive);
        let _ = writeln!(out, "  \"last_step\": {},", state.snap.current_step);
        let _ = writeln!(out, "  \"seq\": {},", state.snap.seq);
        let _ = writeln!(out, "  \"flight_dropped\": {},", state.snap.flight_dropped);
        out.push_str("  \"metrics\": {");
        let mut sorted: Vec<(u16, u64)> = state.snap.metrics.clone();
        sorted.sort_by_key(|&(id, _)| id);
        for (j, (id, v)) in sorted.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", metric_series_name(*id));
        }
        out.push_str("\n  },\n  \"flight\": [");
        for (j, ev) in state.snap.flight.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"cat\": \"{}\", \"name\": \"{}\", \"step\": {}, \"ts_us\": {}, \"dur_us\": {}, \"a0\": {}}}",
                escape(&ev.cat),
                escape(&ev.name),
                ev.step,
                ev.ts_us,
                ev.dur_us,
                ev.a0
            );
        }
        out.push_str("\n  ]\n}\n");
        Some(out)
    }

    /// The per-step-window roll-up written as `cluster_summary.json`.
    pub fn summary_json(&self) -> String {
        let lateness = self.lateness_map();
        let alive = self.ranks.values().filter(|s| s.alive).count();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"ranks_total\": {},", self.ranks.len());
        let _ = writeln!(out, "  \"ranks_alive\": {alive},");
        out.push_str("  \"ranks\": [");
        for (j, (rank, state)) in self.ranks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rank\": {rank}, \"alive\": {}, \"last_step\": {}, \"steps_committed\": {}, \"ewma_step_us\": {}, \"lateness_us\": {}}}",
                state.alive,
                state.snap.current_step,
                state.snap.metric(metric::STEPS_COMMITTED).unwrap_or(0),
                state.ewma_us,
                lateness.get(rank).copied().unwrap_or(0.0)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Exposition name for a wire metric id: the schema name, or a stable
/// fallback for ids from a newer worker.
fn metric_series_name(id: u16) -> String {
    match metric::name(id) {
        Some(name) => name.to_string(),
        None => format!("telemetry_metric_{id}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FlightEvent, TelemetrySnapshot};

    fn snap(rank: u16, seq: u64, step: u32, committed: u64, latency_us: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            rank,
            current_step: step,
            seq,
            metrics: vec![
                (metric::STEPS_BEGUN, committed + 1),
                (metric::STEPS_COMMITTED, committed),
                (metric::STEP_LATENCY_US, latency_us),
            ],
            flight_dropped: 0,
            flight: vec![FlightEvent {
                cat: "STEP".into(),
                name: "begin".into(),
                step,
                ts_us: 10,
                dur_us: 0,
                a0: 0,
            }],
        }
    }

    fn policy() -> StragglerPolicy {
        StragglerPolicy { alpha: 0.5, ratio: 1.5, floor_us: 100.0 }
    }

    #[test]
    fn stale_seqs_are_dropped() {
        let mut view = ClusterView::new(policy());
        view.ingest(snap(0, 5, 3, 3, 1000));
        view.ingest(snap(0, 4, 9, 9, 1000)); // older seq, wilder content
        assert_eq!(view.latest(0).map(|s| s.current_step), Some(3));
    }

    #[test]
    fn straggler_alert_fires_once_on_the_crossing() {
        let mut view = ClusterView::new(policy());
        // Two fast ranks, one slow. First folds seed the EWMAs.
        assert!(view.ingest(snap(0, 1, 1, 1, 1000)).is_none());
        assert!(view.ingest(snap(1, 1, 1, 1, 1000)).is_none());
        let alert = view.ingest(snap(2, 1, 1, 1, 8000));
        let alert = alert.expect("slow rank crosses the threshold");
        assert_eq!(alert.rank, 2);
        assert!(alert.lateness_us > 100.0);
        assert!((alert.best_us - 1000.0).abs() < 1e-9);
        // Still lagging on the next snapshot: no duplicate alert.
        assert!(view.ingest(snap(2, 2, 2, 2, 8000)).is_none());
        // Recovery then re-crossing alerts again.
        for s in 3..12 {
            view.ingest(snap(2, s, s as u32, s, 1000));
        }
        assert!(view.ingest(snap(2, 12, 12, 12, 100_000)).is_some());
    }

    #[test]
    fn dead_ranks_leave_the_model_but_keep_their_snapshot() {
        let mut view = ClusterView::new(policy());
        view.ingest(snap(0, 1, 1, 1, 1000));
        view.ingest(snap(1, 1, 1, 1, 50_000));
        view.mark_dead(1);
        // The dead slow rank no longer defines anyone's lateness.
        let text = view.to_prometheus_text();
        assert!(text.contains("train_straggler_lateness_us{rank=\"0\"} 0"), "{text}");
        assert!(text.contains("cluster_ranks_alive 1"), "{text}");
        // Its post-mortem is still available.
        let flight = view.flight_json(1).expect("dead rank has a post-mortem");
        assert!(flight.contains("\"alive\": false"), "{flight}");
        assert!(flight.contains("\"last_step\": 1"), "{flight}");
    }

    #[test]
    fn ewma_folds_once_per_committed_step() {
        let mut view = ClusterView::new(StragglerPolicy { alpha: 0.5, ..policy() });
        view.ingest(snap(0, 1, 1, 1, 1000));
        // Same committed count, new seq: a second snapshot of one
        // commit doesn't fold.
        view.ingest(snap(0, 2, 1, 1, 9000));
        view.ingest(snap(0, 3, 2, 2, 2000));
        let json = view.to_json();
        // 0.5 * 2000 + 0.5 * 1000 = 1500 — the 9000 never entered.
        assert!(json.contains("\"ewma_step_us\":1500"), "{json}");
    }

    #[test]
    fn unknown_metric_ids_expose_with_a_stable_fallback_name() {
        let mut view = ClusterView::new(policy());
        let mut s = snap(0, 1, 1, 1, 1000);
        s.metrics.push((700, 9));
        view.ingest(s);
        let text = view.to_prometheus_text();
        assert!(text.contains("telemetry_metric_700{rank=\"0\"} 9"), "{text}");
    }

    #[test]
    fn flight_json_escapes_hostile_labels() {
        let mut view = ClusterView::new(policy());
        let mut s = snap(0, 1, 1, 1, 1000);
        s.flight[0].name = "a\"b\\c\n".into();
        view.ingest(s);
        let flight = view.flight_json(0).expect("present");
        assert!(flight.contains("\"name\": \"a\\\"b\\\\c\\u000a\""), "{flight}");
    }
}
