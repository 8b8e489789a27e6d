//! The worker side of the distributed telemetry plane (§5j).
//!
//! Each worker process keeps one [`WorkerTelemetry`]: its rank, its
//! snapshot sequence, and the rank's compute [`Lane`], whose newest
//! [`FLIGHT_CAPACITY`] spans are the **flight recorder** — every span is
//! recorded once, in the lane, and the recorder reads its tail. The
//! metric values, keyed by a compact **u16 metric id** (names are
//! schema, not wire data — see [`metric`]), are not stored here: the
//! rank body builds them from its own state when it ships a
//! snapshot, and [`WorkerTelemetry::encode_into`] serializes them, the
//! step and the lane's tail into a reused byte buffer — the payload of
//! one `FrameKind::Telemetry` frame — without allocating once the
//! buffer is warm, so snapshots can ship from inside the hot training
//! loop (the counting-allocator proof in
//! `collectives/tests/socket_zero_alloc.rs` pins this).
//!
//! The coordinator decodes payloads with [`decode`], which is **total**
//! over arbitrary bytes: truncations, bit flips, and version skew come
//! back as a typed [`TelemetryError`], never a panic (the adversarial
//! proptests in `tests/telemetry_proptests.rs` pin this, mirroring the
//! frame codec's suite). Decoded [`TelemetrySnapshot`]s feed the
//! cluster aggregation in [`crate::cluster`].
//!
//! # Wire payload format (`TELEMETRY_VERSION` 1)
//!
//! ```text
//! u8   version            u8   flags (reserved, 0)
//! u16  rank               u32  current_step
//! u64  seq (monotonic per worker; receivers keep the max)
//! u16  metric_count       metric_count × { u16 id, u64 value }
//! u64  flight_dropped     u16  flight_count
//! flight_count × { u8 cat_len, cat bytes (≤ 16),
//!                  u8 name_len, name bytes (≤ 16),
//!                  u32 step, u64 ts_us, u32 dur_us, u64 a0 }
//! ```
//!
//! A flight record is one lane span: `step` is the span's `a0` (every
//! compute-lane span carries its step there) and `a0` its `a1`; times
//! are the span's µs since the recorder epoch, cast to integers; labels
//! are cut to 16 bytes on a char boundary. `flight_dropped` counts the
//! older spans not shipped — overwritten in the lane, or held there
//! beyond the newest [`FLIGHT_CAPACITY`].
//!
//! All integers little-endian. Unknown metric ids are carried through
//! (forward compatibility: an old coordinator exposes them as
//! `telemetry_metric_<id>`); an unknown *version* is a hard
//! [`TelemetryError::BadVersion`], because field layout may differ.

use crate::span::Lane;

/// Version byte leading every telemetry payload.
pub const TELEMETRY_VERSION: u8 = 1;

/// Spans of the lane's tail each snapshot ships: enough to reconstruct
/// the last few steps of a worker's life without bloating the
/// control stream.
pub const FLIGHT_CAPACITY: usize = 32;

/// Decode-side sanity bound on `metric_count` / `flight_count` — far
/// above anything a real worker sends, low enough that a bit-flipped
/// count cannot make the decoder reserve gigabytes.
pub const MAX_COUNT: usize = 1024;

// Wide enough for the longest trace-lane category ("MPI_ALLREDUCE"),
// so flight-recorder spans carry the same labels the critical-path
// analyzer keys on offline.
const MAX_LABEL_LEN: usize = 16;

/// The fixed metric-id schema. Ids are wire format: **never renumber**
/// — append new ids and bump nothing (unknown ids pass through
/// decoders). Names match the single-process `Registry` metrics where
/// an equivalent exists.
pub mod metric {
    /// Steps whose gradient compute began (counter).
    pub const STEPS_BEGUN: u16 = 0;
    /// Steps committed by the coordinator and applied (counter).
    pub const STEPS_COMMITTED: u16 = 1;
    /// Degrades observed (counter).
    pub const DEGRADES: u16 = 2;
    /// Gradient payload bytes put on the wire, resends included (counter).
    pub const WIRE_BYTES: u16 = 3;
    /// Nacks this worker sent (receive deadlines that fired) (counter).
    pub const NACKS: u16 = 4;
    /// Resends this worker answered (counter).
    pub const RESENDS: u16 = 5;
    /// Wall time of the last committed step, µs (gauge).
    pub const STEP_LATENCY_US: u16 = 6;
    /// Un-acked data sends at the last snapshot (gauge).
    pub const INFLIGHT_SENDS: u16 = 7;
    /// Wall time from last vote to its verdict, µs (gauge).
    pub const COMMIT_WAIT_US: u16 = 8;

    /// Number of ids in the schema (values in every snapshot).
    pub const COUNT: usize = 9;

    /// The exposition name for `id`, if the schema knows it.
    pub fn name(id: u16) -> Option<&'static str> {
        Some(match id {
            STEPS_BEGUN => "train_steps_begun_total",
            STEPS_COMMITTED => "train_steps_committed_total",
            DEGRADES => "train_degrades_total",
            WIRE_BYTES => "train_wire_bytes_total",
            NACKS => "train_nacks_total",
            RESENDS => "train_resends_total",
            STEP_LATENCY_US => "train_step_latency_us",
            INFLIGHT_SENDS => "train_inflight_sends",
            COMMIT_WAIT_US => "train_commit_wait_us",
            _ => return None,
        })
    }

    /// Counter vs gauge, for `# TYPE` lines. Unknown ids expose as
    /// gauges (no monotonicity promise can be made for them).
    pub fn is_counter(id: u16) -> bool {
        matches!(id, STEPS_BEGUN | STEPS_COMMITTED | DEGRADES | WIRE_BYTES | NACKS | RESENDS)
    }
}

/// Per-worker telemetry state: the rank, the next snapshot's seq, and
/// the rank's compute [`Lane`], whose newest [`FLIGHT_CAPACITY`] spans
/// are the flight recorder. Owned by the rank body, the one writer and
/// the one sender of its snapshots.
#[derive(Debug)]
pub struct WorkerTelemetry {
    rank: u16,
    seq: u64,
    lane: Lane,
}

impl WorkerTelemetry {
    /// Telemetry for `rank`, whose flight recorder is the tail of
    /// `lane`: the lane the rank records its compute spans on.
    pub fn new(rank: u16, lane: Lane) -> Self {
        WorkerTelemetry { rank, seq: 0, lane }
    }

    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// The rank's compute lane, whose tail every snapshot ships.
    pub fn lane(&self) -> &Lane {
        &self.lane
    }

    /// Serialize one snapshot — `step`, `values` (indexed by metric id)
    /// and the lane's tail — into `out` (cleared first) as one telemetry
    /// payload, assigning and returning the snapshot's seq.
    /// Allocation-free once `out` has warmed to the payload size.
    pub fn encode_into(
        &mut self,
        step: u32,
        values: &[u64; metric::COUNT],
        out: &mut Vec<u8>,
    ) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        out.clear();
        out.push(TELEMETRY_VERSION);
        out.push(0); // flags
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&step.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(metric::COUNT as u16).to_le_bytes());
        for (id, v) in values.iter().enumerate() {
            out.extend_from_slice(&(id as u16).to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.lane.with_tail(FLIGHT_CAPACITY, |older, a, b| {
            out.extend_from_slice(&older.to_le_bytes());
            out.extend_from_slice(&((a.len() + b.len()) as u16).to_le_bytes());
            for s in a.iter().chain(b) {
                put_label(out, s.cat);
                put_label(out, s.name);
                out.extend_from_slice(&(s.a0 as u32).to_le_bytes());
                out.extend_from_slice(&(s.ts_us as u64).to_le_bytes());
                out.extend_from_slice(&(s.dur_us as u32).to_le_bytes());
                out.extend_from_slice(&s.a1.to_le_bytes());
            }
        });
        seq
    }
}

/// Append `s` as a length-prefixed label, cut to [`MAX_LABEL_LEN`]
/// bytes on a UTF-8 boundary.
fn put_label(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(MAX_LABEL_LEN);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.push(len as u8);
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// Why a telemetry payload failed to decode. Total over arbitrary
/// bytes — corruption is an `Err`, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The payload ended before a declared field.
    Truncated,
    /// Leading version byte is not [`TELEMETRY_VERSION`].
    BadVersion(u8),
    /// A count field exceeds [`MAX_COUNT`] (or a label its bound).
    BadCount(usize),
    /// A label is not valid UTF-8.
    BadLabel,
    /// Bytes remain after the declared content — framing is suspect.
    TrailingBytes(usize),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Truncated => write!(f, "telemetry payload truncated"),
            TelemetryError::BadVersion(v) => write!(f, "unknown telemetry version {v}"),
            TelemetryError::BadCount(n) => write!(f, "telemetry count {n} out of bounds"),
            TelemetryError::BadLabel => write!(f, "telemetry label is not utf-8"),
            TelemetryError::TrailingBytes(n) => write!(f, "{n} trailing bytes after telemetry"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// One decoded flight-recorder event (owned labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    pub cat: String,
    pub name: String,
    pub step: u32,
    pub ts_us: u64,
    pub dur_us: u32,
    pub a0: u64,
}

/// One decoded telemetry payload: a worker's state as of `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    pub rank: u16,
    pub current_step: u32,
    pub seq: u64,
    /// `(id, value)` pairs in wire order. Unknown ids are preserved.
    pub metrics: Vec<(u16, u64)>,
    /// Flight records overwritten before this snapshot (lost history).
    pub flight_dropped: u64,
    /// The flight-recorder tail, oldest first.
    pub flight: Vec<FlightEvent>,
}

impl TelemetrySnapshot {
    /// The value of metric `id`, if this snapshot carried it.
    pub fn metric(&self, id: u16) -> Option<u64> {
        self.metrics.iter().find(|&&(i, _)| i == id).map(|&(_, v)| v)
    }
}

/// Bounds-checked little-endian cursor over a payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TelemetryError> {
        let end = self.at.checked_add(n).ok_or(TelemetryError::Truncated)?;
        let s = self.bytes.get(self.at..end).ok_or(TelemetryError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TelemetryError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TelemetryError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, TelemetryError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TelemetryError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn label(&mut self) -> Result<String, TelemetryError> {
        let len = self.u8()? as usize;
        if len > MAX_LABEL_LEN {
            return Err(TelemetryError::BadCount(len));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| TelemetryError::BadLabel)
    }
}

/// Decode one telemetry payload. Total: arbitrary input yields
/// `Ok(snapshot)` or a typed error, never a panic and never an
/// unbounded allocation (counts are sanity-capped at [`MAX_COUNT`]).
pub fn decode(payload: &[u8]) -> Result<TelemetrySnapshot, TelemetryError> {
    let mut c = Cursor { bytes: payload, at: 0 };
    let version = c.u8()?;
    if version != TELEMETRY_VERSION {
        return Err(TelemetryError::BadVersion(version));
    }
    let _flags = c.u8()?;
    let rank = c.u16()?;
    let current_step = c.u32()?;
    let seq = c.u64()?;
    let metric_count = c.u16()? as usize;
    if metric_count > MAX_COUNT {
        return Err(TelemetryError::BadCount(metric_count));
    }
    let mut metrics = Vec::with_capacity(metric_count);
    for _ in 0..metric_count {
        let id = c.u16()?;
        let value = c.u64()?;
        metrics.push((id, value));
    }
    let flight_dropped = c.u64()?;
    let flight_count = c.u16()? as usize;
    if flight_count > MAX_COUNT {
        return Err(TelemetryError::BadCount(flight_count));
    }
    let mut flight = Vec::with_capacity(flight_count);
    for _ in 0..flight_count {
        let cat = c.label()?;
        let name = c.label()?;
        let step = c.u32()?;
        let ts_us = c.u64()?;
        let dur_us = c.u32()?;
        let a0 = c.u64()?;
        flight.push(FlightEvent { cat, name, step, ts_us, dur_us, a0 });
    }
    if c.at != payload.len() {
        return Err(TelemetryError::TrailingBytes(payload.len() - c.at));
    }
    Ok(TelemetrySnapshot { rank, current_step, seq, metrics, flight_dropped, flight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceRecorder;

    /// Telemetry for `rank` over a fresh compute lane of `capacity` spans.
    fn telemetry(rank: u16, capacity: usize) -> WorkerTelemetry {
        let lane = TraceRecorder::with_capacity(capacity).lane(rank as u32, 0, "rank", "compute");
        WorkerTelemetry::new(rank, lane)
    }

    /// No metric values: the snapshots below test the header and flight.
    const ZEROS: [u64; metric::COUNT] = [0; metric::COUNT];

    #[test]
    fn encode_decode_roundtrips_state() {
        let mut tel = telemetry(3, FLIGHT_CAPACITY);
        // A distinct value per id, so a swapped or dropped id shows.
        let mut values: [u64; metric::COUNT] = std::array::from_fn(|id| 100 + id as u64);
        values[metric::STEP_LATENCY_US as usize] = u64::MAX;
        let lane = tel.lane();
        lane.record_args("STEP", "begin", 10.0, 0.0, 7, 0);
        lane.record_args("MPI_ALLREDUCE", "exchange", 12.9, 900.7, 7, 42);

        let mut buf = Vec::new();
        let seq = tel.encode_into(7, &values, &mut buf);
        let snap = decode(&buf).expect("own encoding decodes");
        assert_eq!(snap.rank, 3);
        assert_eq!(snap.current_step, 7);
        assert_eq!(snap.seq, seq);
        assert_eq!(snap.metrics.len(), metric::COUNT);
        for (id, &v) in values.iter().enumerate() {
            assert_eq!(snap.metric(id as u16), Some(v), "metric id {id}");
        }
        assert_eq!(snap.flight_dropped, 0);
        assert_eq!(snap.flight.len(), 2);
        assert_eq!(snap.flight[0].name, "begin");
        // The longest trace-lane category fits the 16-byte field whole;
        // the span's a0 is the record's step, its a1 the record's a0.
        let ex = &snap.flight[1];
        assert_eq!(ex.cat, "MPI_ALLREDUCE");
        assert_eq!((ex.step, ex.ts_us, ex.dur_us, ex.a0), (7, 12, 900, 42));

        // Seqs are monotonic across encodes.
        let seq2 = tel.encode_into(8, &values, &mut buf);
        assert_eq!(seq2, seq + 1);
    }

    #[test]
    fn flight_is_the_newest_spans_of_the_lane() {
        // The lane holds 40 of the 45 spans recorded (5 overwritten) and
        // ships its newest 32, oldest first: 8 more held, not shipped.
        let mut tel = telemetry(0, 40);
        for i in 0..45u64 {
            tel.lane().record_args("STEP", "begin", i as f64, 0.0, i, 0);
        }
        let mut buf = Vec::new();
        tel.encode_into(44, &ZEROS, &mut buf);
        let snap = decode(&buf).expect("decodes");
        let steps: Vec<u32> = snap.flight.iter().map(|e| e.step).collect();
        assert_eq!(steps, (13..45).collect::<Vec<u32>>());
        assert_eq!(snap.flight_dropped, 5 + 8);
    }

    #[test]
    fn long_multibyte_labels_are_cut_on_a_char_boundary() {
        // 17 bytes whose byte 16 splits a char: the cut backs off to 15.
        // 18 bytes of two-byte chars: byte 16 is a boundary, cut there.
        const CAT: &str = "xжжжжжжжж";
        const NAME: &str = "ééééééééé";
        let mut tel = telemetry(0, 4);
        tel.lane().record_args(CAT, NAME, 0.0, 0.0, 1, 0);
        let mut buf = Vec::new();
        tel.encode_into(1, &ZEROS, &mut buf);
        let snap = decode(&buf).expect("a cut label is still UTF-8");
        assert_eq!(snap.flight[0].cat, "xжжжжжжж");
        assert_eq!(snap.flight[0].name, "éééééééé");
    }

    #[test]
    fn version_skew_is_a_clean_error() {
        let mut tel = telemetry(1, 4);
        let mut buf = Vec::new();
        tel.encode_into(0, &ZEROS, &mut buf);
        buf[0] = TELEMETRY_VERSION + 1;
        assert_eq!(decode(&buf), Err(TelemetryError::BadVersion(TELEMETRY_VERSION + 1)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_clean_errors() {
        let mut tel = telemetry(1, 4);
        tel.lane().record_args("FAULT", "degrade", 0.0, 0.0, 3, 2);
        let mut buf = Vec::new();
        tel.encode_into(3, &ZEROS, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).is_err(), "cut at {cut} must not decode");
        }
        buf.push(0);
        assert_eq!(decode(&buf), Err(TelemetryError::TrailingBytes(1)));
    }

    #[test]
    fn schema_names_are_unique_and_typed() {
        let mut names = std::collections::BTreeSet::new();
        for id in 0..metric::COUNT as u16 {
            let name = metric::name(id).expect("schema id has a name");
            assert!(names.insert(name), "duplicate metric name {name}");
            if metric::is_counter(id) {
                assert!(name.ends_with("_total"), "{name} counter naming");
            }
        }
        assert_eq!(metric::name(metric::COUNT as u16), None);
    }
}
