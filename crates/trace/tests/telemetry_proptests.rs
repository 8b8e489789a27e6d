//! Adversarial property tests for the telemetry snapshot codec:
//! arbitrary worker state must roundtrip exactly, and arbitrary
//! garbage, truncations, bit flips, and version skew must come back as
//! clean `TelemetryError`s — never a panic, never a bogus snapshot
//! that claims to be well-formed. Mirrors the wire-frame suite in
//! `transport/tests/frame_proptests.rs`.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use trace::telemetry::{
    decode, metric, TelemetryError, WorkerTelemetry, FLIGHT_CAPACITY, TELEMETRY_VERSION,
};
use trace::TraceRecorder;

/// Lane labels are `&'static str`, so they come from a fixed table. It
/// holds the empty label, ASCII at and past the 16-byte field, and
/// multi-byte labels longer than 16 bytes whose cut falls mid-char and
/// on a boundary, so the UTF-8-boundary truncation stays covered.
const LABELS: &[&str] = &[
    "",
    "STEP",
    "MPI_ALLREDUCE",
    "sixteen_bytes_xy",
    "seventeen_bytes_x",
    "xжжжжжжжж",
    "ééééééééé",
    "ステップの始まり",
    "🦀🦀🦀🦀🦀",
];

fn label_strategy() -> impl Strategy<Value = &'static str> {
    (0..LABELS.len()).prop_map(|i| LABELS[i])
}

/// `(cat, name, step, ts_us, dur_us, a0)` — one flight span's worth of
/// input.
type Span = (&'static str, &'static str, u32, u32, u32, u64);

fn span_strategy() -> impl Strategy<Value = Span> {
    (
        label_strategy(),
        label_strategy(),
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0u64..=u64::MAX,
    )
}

/// One value per metric id, as the rank body hands them to the encoder.
type Values = [u64; metric::COUNT];

/// Arbitrary worker telemetry state: rank, step, one value per metric
/// id, the compute lane's capacity (below and above the flight tail),
/// and a pile of spans recorded on it.
fn state_strategy() -> impl Strategy<Value = (u16, u32, Values, usize, Vec<Span>)> {
    (
        0u16..=u16::MAX,
        0u32..=u32::MAX,
        prop::collection::vec(0u64..=u64::MAX, metric::COUNT)
            .prop_map(|v| Values::try_from(v).expect("one value per metric id")),
        1usize..64,
        prop::collection::vec(span_strategy(), 0..80),
    )
}

/// The payload a worker in this state ships, and its seq.
fn build(rank: u16, step: u32, values: &Values, capacity: usize, spans: &[Span]) -> (u64, Vec<u8>) {
    let lane = TraceRecorder::with_capacity(capacity).lane(rank as u32, 0, "rank", "compute");
    for &(cat, name, s, ts, dur, a0) in spans {
        lane.record_args(cat, name, ts as f64, dur as f64, s as u64, a0);
    }
    let mut buf = Vec::new();
    let seq = WorkerTelemetry::new(rank, lane).encode_into(step, values, &mut buf);
    (seq, buf)
}

/// `s` cut to the 16-byte label field on a char boundary.
fn cut_label(s: &str) -> &str {
    let mut len = s.len().min(16);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    &s[..len]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever state a worker accumulates, its own encoding decodes
    /// back to exactly that state (modulo the bounded flight tail).
    #[test]
    fn roundtrip_is_identity((rank, step, values, capacity, spans) in state_strategy()) {
        let (seq, buf) = build(rank, step, &values, capacity, &spans);
        let snap = decode(&buf).expect("own encoding must decode");
        prop_assert_eq!(snap.rank, rank);
        prop_assert_eq!(snap.current_step, step);
        prop_assert_eq!(snap.seq, seq);
        for (id, &v) in values.iter().enumerate() {
            prop_assert_eq!(snap.metric(id as u16), Some(v));
        }
        // The flight is the lane's newest spans, oldest first: the tail
        // of what went in, field for field, labels cut to 16 bytes.
        let kept = snap.flight.len();
        prop_assert_eq!(kept, spans.len().min(capacity).min(FLIGHT_CAPACITY));
        for (ev, &(cat, name, s, ts, dur, a0)) in snap.flight.iter().zip(&spans[spans.len() - kept..]) {
            prop_assert_eq!(ev.cat.as_str(), cut_label(cat));
            prop_assert_eq!(ev.name.as_str(), cut_label(name));
            prop_assert_eq!((ev.step, ev.ts_us, ev.dur_us, ev.a0), (s, ts as u64, dur, a0));
        }
        prop_assert_eq!(snap.flight_dropped as usize, spans.len() - kept);
    }

    /// Every proper prefix of a valid encoding is rejected cleanly —
    /// a snapshot is all-or-nothing.
    #[test]
    fn truncation_never_decodes((rank, step, values, capacity, spans) in state_strategy(), cut in 0usize..1 << 20) {
        let (_, buf) = build(rank, step, &values, capacity, &spans);
        let at = cut % buf.len(); // always a proper prefix
        prop_assert!(decode(&buf[..at]).is_err(), "prefix of {} bytes decoded", at);
    }

    /// A single flipped bit must never panic the decoder. (It may
    /// still decode — telemetry rides CRC-tailed frames, so corruption
    /// is caught a layer below — but the codec itself stays total.)
    #[test]
    fn bit_flips_never_panic(
        (rank, step, values, capacity, spans) in state_strategy(),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let (_, mut buf) = build(rank, step, &values, capacity, &spans);
        let at = pos % buf.len();
        buf[at] ^= 1 << bit;
        let _ = decode(&buf);
    }

    /// A snapshot from a future (or garbage) version is refused by
    /// version, before any field is trusted.
    #[test]
    fn version_skew_is_refused(
        (rank, step, values, capacity, spans) in state_strategy(),
        skew in 0u8..=255,
    ) {
        prop_assume!(skew != TELEMETRY_VERSION);
        let (_, mut buf) = build(rank, step, &values, capacity, &spans);
        buf[0] = skew;
        prop_assert_eq!(decode(&buf), Err(TelemetryError::BadVersion(skew)));
    }

    /// Decoding arbitrary bytes is total: an error or a snapshot,
    /// never a panic, and trailing garbage is never silently eaten.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = decode(&bytes);
        // Appending a byte to anything that decoded must trip the
        // exact-consumption check.
        if decode(&bytes).is_ok() {
            let mut longer = bytes.clone();
            longer.push(0);
            prop_assert_eq!(decode(&longer), Err(TelemetryError::TrailingBytes(1)));
        }
    }
}
