//! Histogram bucket-boundary behavior (zero, subnormal, huge) and a
//! golden snapshot of both exposition formats — the contract dashboards
//! and diffing scripts depend on.

use trace::cluster::{ClusterView, StragglerPolicy};
use trace::metrics::{bucket_for, bucket_le, BUCKETS, MAX_EXP, MIN_EXP};
use trace::telemetry::{metric, FlightEvent, TelemetrySnapshot};
use trace::Registry;

#[test]
fn zero_and_negative_land_in_the_zero_bucket() {
    assert_eq!(bucket_for(0.0), 0);
    assert_eq!(bucket_for(-0.0), 0);
    // Negative durations are caller bugs; they stay visible in the
    // zero bucket instead of panicking or skewing a binade.
    assert_eq!(bucket_for(-1.0), 0);
    assert_eq!(bucket_for(f64::NEG_INFINITY), BUCKETS - 1, "NaN/inf rule wins over sign");
    assert_eq!(bucket_le(0), 0.0);
}

#[test]
fn subnormals_and_tiny_values_land_in_the_underflow_bucket() {
    let smallest_subnormal = f64::from_bits(1);
    let largest_subnormal = f64::from_bits((1u64 << 52) - 1);
    assert_eq!(bucket_for(smallest_subnormal), 1);
    assert_eq!(bucket_for(largest_subnormal), 1);
    assert_eq!(bucket_for(f64::MIN_POSITIVE), 1, "smallest normal is still far below 2^MIN_EXP");
    // The underflow boundary itself is inclusive: v <= 2^MIN_EXP.
    let lo = 2f64.powi(MIN_EXP);
    assert_eq!(bucket_for(lo), 1);
    assert_eq!(bucket_for(lo * (1.0 + f64::EPSILON)), 2, "just above the boundary starts binades");
    assert_eq!(bucket_le(1), lo);
}

#[test]
fn exact_powers_of_two_sit_at_their_own_upper_bound() {
    // An exact 2^e must satisfy v <= le of its bucket with equality,
    // not round up a binade.
    for e in (MIN_EXP + 1)..=MAX_EXP {
        let v = 2f64.powi(e);
        let b = bucket_for(v);
        assert_eq!(bucket_le(b), v, "2^{e} lands at its own boundary");
        assert_eq!(bucket_for(v * (1.0 + f64::EPSILON)), b + 1, "nudging past 2^{e} moves up");
    }
    assert_eq!(bucket_for(1.0), bucket_for(0.75), "1.0 shares the (0.5, 1] binade");
}

#[test]
fn huge_values_saturate_in_the_overflow_bucket() {
    let top = 2f64.powi(MAX_EXP);
    assert_ne!(bucket_for(top), BUCKETS - 1, "2^MAX_EXP itself is still bucketed");
    assert_eq!(bucket_for(top * (1.0 + f64::EPSILON)), BUCKETS - 1);
    assert_eq!(bucket_for(1e300), BUCKETS - 1);
    assert_eq!(bucket_for(f64::MAX), BUCKETS - 1);
    assert_eq!(bucket_for(f64::INFINITY), BUCKETS - 1);
    assert_eq!(bucket_for(f64::NAN), BUCKETS - 1);
    assert_eq!(bucket_le(BUCKETS - 1), f64::INFINITY);
}

#[test]
fn every_value_falls_inside_its_bucket_bounds() {
    let samples =
        [1e-12, 3e-10, 1e-6, 0.001, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 1000.0, 1e6, 8.5e9, 1e10];
    for v in samples {
        let b = bucket_for(v);
        assert!(v <= bucket_le(b), "{v} must sit at or below its bucket's le");
        if b > 1 {
            assert!(v > bucket_le(b - 1), "{v} must sit above the previous bucket's le");
        }
    }
}

/// The golden snapshot: a small registry with one counter, one gauge
/// and one histogram must serialize to exactly these bytes. Any format
/// drift (label spelling, float rendering, row truncation) fails here
/// first, on a diffable string.
#[test]
fn exposition_formats_match_golden_snapshot() {
    let reg = Registry::new();
    reg.counter("train_steps_committed_total").add(4);
    reg.gauge("train_last_loss").set(0.25);
    let h = reg.histogram("step_seconds");
    h.observe(0.0); // zero bucket
    h.observe(2e-10); // underflow bucket (below 2^-30)
    let snap = reg.snapshot();

    let golden_text = "\
# TYPE train_steps_committed_total counter
train_steps_committed_total 4
# TYPE train_last_loss gauge
train_last_loss 0.25
# TYPE step_seconds histogram
step_seconds_bucket{le=\"0e0\"} 1
step_seconds_bucket{le=\"9.313225746154785e-10\"} 2
step_seconds_bucket{le=\"+Inf\"} 2
step_seconds_sum 0.0000000002
step_seconds_count 2
";
    assert_eq!(snap.to_prometheus_text(), golden_text);

    let golden_json = "{\"counters\":{\"train_steps_committed_total\":4},\
\"gauges\":{\"train_last_loss\":0.25},\
\"histograms\":{\"step_seconds\":{\"count\":2,\"sum\":0.0000000002,\
\"buckets\":[[\"0e0\",1],[\"9.313225746154785e-10\",2],[\"+Inf\",2]]}}}";
    assert_eq!(snap.to_json(), golden_json);
}

// ----------------------------------------------- cluster exposition

fn snapshot(rank: u16, step: u32, seq: u64, metrics: Vec<(u16, u64)>) -> TelemetrySnapshot {
    TelemetrySnapshot { rank, current_step: step, seq, metrics, flight_dropped: 0, flight: vec![] }
}

/// The aggregated scrape: two ranks with different step latencies
/// (rank 1 is 2000us behind) plus one out-of-schema id must serialize
/// to exactly these bytes. Rank labels, series order, TYPE lines, and
/// float rendering are all pinned — dashboards parse this.
#[test]
fn cluster_prometheus_text_matches_golden_snapshot() {
    let mut view = ClusterView::new(StragglerPolicy::default());
    view.ingest(snapshot(
        0,
        5,
        9,
        vec![(metric::STEPS_COMMITTED, 4), (metric::STEP_LATENCY_US, 1000), (42, 7)],
    ));
    view.ingest(snapshot(
        1,
        5,
        3,
        vec![(metric::STEPS_COMMITTED, 4), (metric::STEP_LATENCY_US, 3000)],
    ));

    let golden = "\
# TYPE train_steps_committed_total counter
train_steps_committed_total{rank=\"0\"} 4
train_steps_committed_total{rank=\"1\"} 4
# TYPE train_step_latency_us gauge
train_step_latency_us{rank=\"0\"} 1000
train_step_latency_us{rank=\"1\"} 3000
# TYPE telemetry_metric_42 gauge
telemetry_metric_42{rank=\"0\"} 7
# TYPE train_current_step gauge
train_current_step{rank=\"0\"} 5
train_current_step{rank=\"1\"} 5
# TYPE train_straggler_lateness_us gauge
train_straggler_lateness_us{rank=\"0\"} 0
train_straggler_lateness_us{rank=\"1\"} 2000
# TYPE cluster_ranks_total gauge
cluster_ranks_total 2
# TYPE cluster_ranks_alive gauge
cluster_ranks_alive 2
";
    assert_eq!(view.to_prometheus_text(), golden);
}

/// The JSON twin of the scrape, same fixture.
#[test]
fn cluster_json_matches_golden_snapshot() {
    let mut view = ClusterView::new(StragglerPolicy::default());
    view.ingest(snapshot(
        0,
        5,
        9,
        vec![(metric::STEPS_COMMITTED, 4), (metric::STEP_LATENCY_US, 1000), (42, 7)],
    ));
    view.ingest(snapshot(
        1,
        5,
        3,
        vec![(metric::STEPS_COMMITTED, 4), (metric::STEP_LATENCY_US, 3000)],
    ));

    let golden = "{\"ranks\":{\
\"0\":{\"alive\":true,\"current_step\":5,\"seq\":9,\"ewma_step_us\":1000,\"lateness_us\":0,\"flight_dropped\":0,\
\"metrics\":{\"train_steps_committed_total\":4,\"train_step_latency_us\":1000,\"telemetry_metric_42\":7}},\
\"1\":{\"alive\":true,\"current_step\":5,\"seq\":3,\"ewma_step_us\":3000,\"lateness_us\":2000,\"flight_dropped\":0,\
\"metrics\":{\"train_steps_committed_total\":4,\"train_step_latency_us\":3000}}},\
\"cluster\":{\"ranks_total\":2,\"ranks_alive\":2}}";
    assert_eq!(view.to_json(), golden);
}

/// The crash flight record for a dead rank: alive flips to false, the
/// last step and flight tail are preserved, labels are escaped.
#[test]
fn flight_json_matches_golden_snapshot() {
    let mut view = ClusterView::new(StragglerPolicy::default());
    let mut snap = snapshot(2, 7, 11, vec![(metric::STEPS_COMMITTED, 7)]);
    snap.flight.push(FlightEvent {
        cat: "MPI_ALLREDUCE".into(),
        name: "exchange".into(),
        step: 7,
        ts_us: 123,
        dur_us: 45,
        a0: 0,
    });
    view.ingest(snap);
    view.mark_dead(2);

    let golden = "{
  \"rank\": 2,
  \"alive\": false,
  \"last_step\": 7,
  \"seq\": 11,
  \"flight_dropped\": 0,
  \"metrics\": {
    \"train_steps_committed_total\": 7
  },
  \"flight\": [
    {\"cat\": \"MPI_ALLREDUCE\", \"name\": \"exchange\", \"step\": 7, \"ts_us\": 123, \"dur_us\": 45, \"a0\": 0}
  ]
}
";
    assert_eq!(view.flight_json(2).as_deref(), Some(golden));
    assert_eq!(view.flight_json(3), None, "never-heard-from ranks have no post-mortem");
}
