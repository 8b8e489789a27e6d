//! The wire frame format: length-prefixed, sequence-numbered,
//! CRC32-tailed.
//!
//! Every byte that crosses a socket in the multi-process runtime is one
//! frame:
//!
//! ```text
//! u32  len      body length in bytes (header + payload + crc tail)
//! u8   kind     FrameKind discriminant
//! u8   version  wire-format version (currently 1)
//! u16  from     sender's original (world) rank id
//! u32  era      topology epoch; bumped on every degradation
//! u64  seq      per-(sender, receiver, era) sequence number
//! u32  step     training step the frame belongs to
//! u32  round    schedule round (data frames; 0 otherwise)
//! u32  offset   segment offset into the reduce buffer (data frames)
//! ...  payload  payload_len = len - HEADER_LEN - 4 bytes
//! u32  crc      CRC32 (IEEE) over header-after-len + payload
//! ```
//!
//! A frame whose payload rides the bulk lane ([`crate::lane`]) sets the
//! top bit of `kind` ([`SLOT_FLAG`]) and carries, as its payload, the
//! [`DESC_LEN`]-byte slot descriptor (slot offset, payload length, the
//! payload's CRC32) instead of the payload: the tail CRC covers header
//! and descriptor, the descriptor's CRC the payload in the slot. Only a
//! connection's reader resolves such a frame; [`read_frame`],
//! [`parse_body`] and [`reference_decode`] reject the flagged kind byte
//! as [`FrameError::BadKind`], as they always have.
//!
//! The CRC tail covers everything after the length prefix, so a
//! bit-flip anywhere in the header or payload is detected; the length
//! prefix itself is sanity-bounded ([`MAX_FRAME_LEN`]) so a corrupted
//! length cannot make the decoder allocate unboundedly or stall forever
//! mid-frame. Decoding never panics on adversarial bytes — every
//! malformed input is a typed [`FrameError`] (proven by the adversarial
//! proptests in `tests/frame_proptests.rs`, differentially against
//! [`reference_decode`]).
//!
//! The layout above is written down once, in [`write_header`] and
//! [`read_header`]; the CRC is always computed by [`frame_crc`] over the
//! header and the payload *where they lie*. Everything that produces or
//! consumes wire bytes goes through those three: [`encode_into`] and
//! [`parse_body`] (contiguous buffers — the fault injector, the
//! benchmark, the reference decoder), the socket send path
//! ([`envelope`]: the payload is borrowed into a vectored write, never
//! copied; [`slot_envelope`] for a descriptor), and the socket read
//! path ([`PartialFrame`]: the payload is read straight into the buffer
//! the frame will own, resuming wherever a non-blocking socket stopped).

use std::io::{self, IoSliceMut, Read};

use faults::Crc32;

use crate::lane::{Lease, Slot, DESC_LEN};

/// Header bytes after the u32 length prefix.
pub const HEADER_LEN: usize = 1 + 1 + 2 + 4 + 8 + 4 + 4 + 4;

/// Length prefix plus header: the fixed bytes ahead of every payload.
pub(crate) const PREFIX_LEN: usize = 4 + HEADER_LEN;

/// Hard upper bound on the body length a decoder will accept. Large
/// enough for any gradient segment this repo ships (64 MiB), small
/// enough that a corrupted length prefix cannot drive allocation wild.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Wire-format version stamped into every frame.
pub const WIRE_VERSION: u8 = 1;

/// Top bit of the kind byte: the payload is in a slot of the sender's
/// bulk-lane segment, and the frame carries its descriptor.
pub const SLOT_FLAG: u8 = 0x80;

/// What a frame is. Discriminants are the on-wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A schedule payload segment (f32 little-endian bytes).
    Data = 1,
    /// Receiver acknowledges every data seq up to and including `seq`.
    Ack = 2,
    /// Receiver rejected `seq` (CRC mismatch) and requests a resend.
    Nack = 3,
    /// Liveness beacon; carries no payload.
    Heartbeat = 4,
    /// Rendezvous: worker -> coordinator registration (payload: listener
    /// path), and peer -> peer identification (no payload).
    Hello = 5,
    /// Rendezvous: coordinator -> worker rank assignment (payload: rank,
    /// world, peer listener paths).
    Welcome = 6,
    /// Worker -> coordinator: mesh fully connected, ready to train.
    Ready = 7,
    /// Coordinator -> workers: all ranks ready, start the run.
    Start = 8,
    /// Worker -> coordinator: exchange for `step` completed under `era`
    /// (`seq` repeats `step`; no payload).
    StepDone = 9,
    /// Coordinator -> workers: every live rank finished `step`; apply it.
    Commit = 10,
    /// Coordinator -> workers: ranks died while `step` was open; the
    /// payload lists the dead original ids as comma-separated decimal
    /// ASCII (`"2"`, `"1,3"`). Rebuild over the survivors under `era`.
    /// `trainer::real::commit` owns the encoding of these three.
    Degrade = 11,
    /// Worker -> coordinator: run complete, results written.
    Finished = 12,
    /// Worker -> coordinator: a versioned telemetry snapshot (metric
    /// values, current step, flight-recorder tail), sent by the rank
    /// body at every step begin on control streams; never crosses a
    /// data wire. Payload format: `trace::telemetry`.
    Telemetry = 13,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            1 => FrameKind::Data,
            2 => FrameKind::Ack,
            3 => FrameKind::Nack,
            4 => FrameKind::Heartbeat,
            5 => FrameKind::Hello,
            6 => FrameKind::Welcome,
            7 => FrameKind::Ready,
            8 => FrameKind::Start,
            9 => FrameKind::StepDone,
            10 => FrameKind::Commit,
            11 => FrameKind::Degrade,
            12 => FrameKind::Finished,
            13 => FrameKind::Telemetry,
            other => return Err(FrameError::BadKind(other)),
        })
    }
}

/// One decoded frame. `payload` buffers are plain `Vec<u8>` so callers
/// can pool and recycle them. A payload that rode the bulk lane is in
/// `slot` instead, and `payload` is empty; [`Frame::bytes`] is the
/// payload wherever it lies, and frames compare by it.
#[derive(Debug, Clone)]
pub struct Frame {
    pub kind: FrameKind,
    pub from: u16,
    pub era: u32,
    pub seq: u64,
    pub step: u32,
    pub round: u32,
    pub offset: u32,
    pub payload: Vec<u8>,
    pub slot: Option<Slot>,
}

impl Frame {
    /// A payload-less control frame.
    pub fn control(kind: FrameKind, from: u16, era: u32, step: u32) -> Self {
        Frame {
            kind,
            from,
            era,
            seq: 0,
            step,
            round: 0,
            offset: 0,
            payload: Vec::new(),
            slot: None,
        }
    }

    /// The payload bytes: the slot's, or `payload`.
    pub fn bytes(&self) -> &[u8] {
        match &self.slot {
            Some(slot) => slot.bytes(),
            None => &self.payload,
        }
    }

    /// This frame with `lease`, filled, as its payload.
    pub fn carrying(mut self, lease: Lease) -> Frame {
        match lease {
            Lease::Heap(buf) => self.payload = buf,
            Lease::Slot(slot) => self.slot = Some(slot.seal()),
        }
        self
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        (self.kind, self.from, self.era, self.seq, self.step, self.round, self.offset)
            == (other.kind, other.from, other.era, other.seq, other.step, other.round, other.offset)
            && self.bytes() == other.bytes()
    }
}

impl Eq for Frame {}

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Body length exceeds [`MAX_FRAME_LEN`] or is shorter than the
    /// fixed header + crc tail.
    BadLength(usize),
    /// Unknown [`FrameKind`] discriminant.
    BadKind(u8),
    /// Unsupported wire-format version.
    BadVersion(u8),
    /// CRC tail does not match the received bytes.
    BadCrc { want: u32, got: u32 },
    /// The input ended mid-frame (stream truncation).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "frame body length {n} out of bounds"),
            FrameError::BadKind(b) => write!(f, "unknown frame kind {b}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadCrc { want, got } => {
                write!(f, "crc mismatch: frame says {want:#010x}, bytes hash to {got:#010x}")
            }
            FrameError::Truncated => write!(f, "input ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The length prefix and header of `frame` ahead of `payload_len`
/// bytes, with `kind` as its kind byte — the one place the layout of
/// the module docs is written.
fn write_header(frame: &Frame, kind: u8, payload_len: usize) -> [u8; PREFIX_LEN] {
    let body_len = HEADER_LEN + payload_len + 4;
    debug_assert!(body_len <= MAX_FRAME_LEN, "no receiver accepts a {body_len}-byte body");
    let mut h = [0u8; PREFIX_LEN];
    h[0..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    h[4] = kind;
    h[5] = WIRE_VERSION;
    h[6..8].copy_from_slice(&frame.from.to_le_bytes());
    h[8..12].copy_from_slice(&frame.era.to_le_bytes());
    h[12..20].copy_from_slice(&frame.seq.to_le_bytes());
    h[20..24].copy_from_slice(&frame.step.to_le_bytes());
    h[24..28].copy_from_slice(&frame.round.to_le_bytes());
    h[28..32].copy_from_slice(&frame.offset.to_le_bytes());
    h
}

/// Interpret a CRC-verified `header` (the [`HEADER_LEN`] bytes after
/// the length prefix) — the one place the layout is read. The frame
/// comes back payload-less; the caller attaches the payload it holds.
/// With `lane`, a [`SLOT_FLAG`]ged kind byte is accepted and reported
/// (`true`: the payload is a slot descriptor); without, it is a
/// [`FrameError::BadKind`] like any other unknown byte.
fn read_header(header: &[u8], lane: bool) -> Result<(Frame, bool), FrameError> {
    debug_assert_eq!(header.len(), HEADER_LEN);
    let in_slot = lane && header[0] & SLOT_FLAG != 0;
    let kind = FrameKind::from_byte(if in_slot { header[0] & !SLOT_FLAG } else { header[0] })?;
    if header[1] != WIRE_VERSION {
        return Err(FrameError::BadVersion(header[1]));
    }
    let frame = Frame {
        kind,
        from: read_u16(header, 2),
        era: read_u32(header, 4),
        seq: read_u64(header, 8),
        step: read_u32(header, 16),
        round: read_u32(header, 20),
        offset: read_u32(header, 24),
        payload: Vec::new(),
        slot: None,
    };
    Ok((frame, in_slot))
}

/// The CRC tail of a frame: header (after the length prefix), then
/// payload, each hashed where it lies.
fn frame_crc(header: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(header);
    crc.update(payload);
    crc.finish()
}

/// Accept `header` + `payload` only if they hash to the received `tail`.
fn check_crc(header: &[u8], payload: &[u8], tail: &[u8]) -> Result<(), FrameError> {
    let want = read_u32(tail, 0);
    let got = frame_crc(header, payload);
    if want != got {
        return Err(FrameError::BadCrc { want, got });
    }
    Ok(())
}

/// Everything of `frame`'s wire form except the payload: the bytes
/// that go before it (length prefix + header) and after it (CRC tail).
pub(crate) fn envelope(frame: &Frame) -> ([u8; PREFIX_LEN], [u8; 4]) {
    let payload = frame.bytes();
    let prefix = write_header(frame, frame.kind as u8, payload.len());
    let crc = frame_crc(&prefix[4..], payload);
    (prefix, crc.to_le_bytes())
}

/// The envelope of `frame` sent as the slot descriptor `desc`: the
/// flagged kind byte, and the tail CRC over header and descriptor.
pub(crate) fn slot_envelope(frame: &Frame, desc: &[u8; DESC_LEN]) -> ([u8; PREFIX_LEN], [u8; 4]) {
    let prefix = write_header(frame, frame.kind as u8 | SLOT_FLAG, DESC_LEN);
    let crc = frame_crc(&prefix[4..], desc);
    (prefix, crc.to_le_bytes())
}

/// Encode `frame` into `out` (cleared first). The buffer can be pooled
/// and reused; steady-state encoding allocates nothing once `out` has
/// grown to the largest frame size.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let (prefix, crc) = envelope(frame);
    out.clear();
    out.reserve(PREFIX_LEN + frame.bytes().len() + 4);
    out.extend_from_slice(&prefix);
    out.extend_from_slice(frame.bytes());
    out.extend_from_slice(&crc);
}

/// Encode `frame` into a fresh buffer (test/rendezvous convenience).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut x = [0u8; 8];
    x.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(x)
}

/// Parse one frame *body* (the bytes after the u32 length prefix; the
/// caller has already read exactly `body.len()` bytes off the stream).
/// The payload is copied into `payload_buf` (cleared first) so callers
/// can recycle pooled buffers; the returned frame takes ownership of it.
pub fn parse_body(body: &[u8], mut payload_buf: Vec<u8>) -> Result<Frame, FrameError> {
    if body.len() < HEADER_LEN + 4 || body.len() > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(body.len()));
    }
    let (covered, tail) = body.split_at(body.len() - 4);
    let (header, payload) = covered.split_at(HEADER_LEN);
    check_crc(header, payload, tail)?;
    let (mut frame, _) = read_header(header, false)?;
    payload_buf.clear();
    payload_buf.extend_from_slice(payload);
    frame.payload = payload_buf;
    Ok(frame)
}

/// Read one frame off a blocking byte stream, the payload straight into
/// `buf` — [`PartialFrame`] run to the end of one frame; the rendezvous
/// handshakes read with it before a connection is non-blocking.
///
/// * `Err` — the stream is finished: EOF, an I/O error, or a length
///   prefix outside bounds (`InvalidData` wrapping
///   [`FrameError::BadLength`]; byte alignment is lost for good). A
///   stream that would block is an error here too (`WouldBlock`), and
///   what was read of the frame is lost with it.
/// * `Ok(Err(_))` — one whole frame was consumed and rejected: CRC
///   first, and only then kind and version, exactly like
///   [`parse_body`]. The stream is still aligned and `buf` stays with
///   the caller.
/// * `Ok(Ok(frame))` — a frame with a payload *takes* `buf` (leaving an
///   empty `Vec`; the caller supplies the next buffer), a payload-less
///   one carries `Vec::new()` and leaves `buf` untouched.
///
/// `buf` arrives with whatever length and contents it last had: it is
/// resized to the payload length — which only zero-fills bytes past its
/// old length — and then overwritten by the read, so a recycled buffer
/// is not cleared per frame.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Result<Frame, FrameError>> {
    PartialFrame::default().read(r, buf)?.ok_or_else(|| io::ErrorKind::WouldBlock.into())
}

/// How a connection's reader reads a descriptor frame's body (see
/// [`PartialFrame`]): one vectored read that keeps a descriptor riding
/// the bytes.
pub(crate) type SlotBodyRead<R> = fn(&mut R, &mut [IoSliceMut<'_>]) -> io::Result<usize>;

/// One frame part-way off a stream that may stop short — the one
/// framing loop of the crate. Each [`PartialFrame::read`] reads on from
/// where the last one stopped: the length prefix and header into
/// `prefix`, then the payload straight into the caller's buffer and the
/// CRC tail into `tail`, in one vectored read per pass. A reader that
/// would block (`WouldBlock`) ends the call with everything read so far
/// kept, here and in the buffer; the next call, with the same buffer,
/// goes on.
#[derive(Debug)]
pub struct PartialFrame {
    prefix: [u8; PREFIX_LEN],
    tail: [u8; 4],
    /// Bytes of the frame in hand: prefix, then payload, then tail.
    got: usize,
}

impl Default for PartialFrame {
    fn default() -> Self {
        PartialFrame { prefix: [0; PREFIX_LEN], tail: [0; 4], got: 0 }
    }
}

/// What one pass of a read did: `Some` as [`read_frame`] returns it;
/// `None` when the stream would block first.
type Step<T> = io::Result<Option<Result<T, FrameError>>>;

impl PartialFrame {
    /// Read on until one frame is whole — its outcome as [`read_frame`]
    /// gives it, `Some` — or the stream would block: `None`, with the
    /// frame's bytes so far kept for the next call, which must pass the
    /// same `buf`. Nothing is read past the frame's end.
    pub fn read<R: Read>(&mut self, r: &mut R, buf: &mut Vec<u8>) -> Step<Frame> {
        Ok(self.read_in(r, buf, None)?.map(|got| got.map(|(frame, _)| frame)))
    }

    /// [`PartialFrame::read`], accepting descriptor frames when
    /// `slot_body` is given: the body (descriptor and tail) of a frame
    /// whose prefix has the [`SLOT_FLAG`] is read with it — the
    /// segment's own descriptor may ride those bytes — and the `bool`
    /// says the payload taken from `buf` is a slot descriptor.
    pub(crate) fn read_in<R: Read>(
        &mut self,
        r: &mut R,
        buf: &mut Vec<u8>,
        slot_body: Option<SlotBodyRead<R>>,
    ) -> Step<(Frame, bool)> {
        while self.got < PREFIX_LEN {
            match r.read(&mut self.prefix[self.got..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        let body_len = read_u32(&self.prefix, 0) as usize;
        if !(HEADER_LEN + 4..=MAX_FRAME_LEN).contains(&body_len) {
            let bad = FrameError::BadLength(body_len);
            return Err(io::Error::new(io::ErrorKind::InvalidData, bad));
        }
        let read_body: SlotBodyRead<R> = match slot_body {
            Some(read) if self.prefix[4] & SLOT_FLAG != 0 => read,
            _ => |r, b| r.read_vectored(b),
        };
        let payload_len = body_len - HEADER_LEN - 4;
        if self.got == PREFIX_LEN {
            buf.resize(payload_len, 0);
        }
        while self.got < PREFIX_LEN + body_len - HEADER_LEN {
            let at = self.got - PREFIX_LEN;
            let (payload, tail) = match at.checked_sub(payload_len) {
                None => (&mut buf[at..], &mut self.tail[..]),
                Some(t) => (&mut [][..], &mut self.tail[t..]),
            };
            match read_body(r, &mut [IoSliceMut::new(payload), IoSliceMut::new(tail)]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        self.got = 0;
        let header = &self.prefix[4..];
        let payload: &[u8] = if payload_len > 0 { buf } else { &[] };
        let checked = check_crc(header, payload, &self.tail);
        let read = checked.and_then(|()| read_header(header, slot_body.is_some()));
        Ok(Some(read.map(|(mut frame, in_slot)| {
            if payload_len > 0 {
                frame.payload = std::mem::take(buf);
            }
            (frame, in_slot)
        })))
    }
}

/// Reference decoder: the naive, obviously-correct full-buffer decode
/// [`read_frame`] is differentially tested against.
/// Returns the frames (or per-frame errors) up to the first point where
/// the input is truncated or unframeable.
pub fn reference_decode(mut bytes: &[u8]) -> Vec<Result<Frame, FrameError>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 4 {
            out.push(Err(FrameError::Truncated));
            return out;
        }
        let body_len = read_u32(bytes, 0) as usize;
        if !(HEADER_LEN + 4..=MAX_FRAME_LEN).contains(&body_len) {
            out.push(Err(FrameError::BadLength(body_len)));
            return out;
        }
        if bytes.len() < 4 + body_len {
            out.push(Err(FrameError::Truncated));
            return out;
        }
        out.push(parse_body(&bytes[4..4 + body_len], Vec::new()));
        bytes = &bytes[4 + body_len..];
    }
    out
}

/// Receive-side sequence tracking: in-order delivery with idempotent
/// duplicate drop and a bounded stash for early arrivals — the §5d
/// dedup discipline lifted onto frames. One window per (peer, era);
/// counters reset on every era bump.
#[derive(Debug, Default)]
pub struct DedupWindow {
    /// Next sequence number to deliver.
    expected: u64,
    /// Early frames keyed by seq (BTreeMap: drained in seq order).
    stash: std::collections::BTreeMap<u64, Frame>,
}

/// What [`DedupWindow::offer`] decided about a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer {
    /// The frame is the next in sequence: deliver it now.
    Deliver(Frame),
    /// Already delivered (duplicate) — dropped idempotently.
    Duplicate,
    /// Ahead of sequence — stashed until the gap fills.
    Stashed,
}

impl DedupWindow {
    pub fn new() -> Self {
        DedupWindow::default()
    }

    /// Reset for a new era: sequence numbers restart at zero and any
    /// stashed frames from the old era are discarded.
    pub fn reset(&mut self) {
        self.expected = 0;
        self.stash.clear();
    }

    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Classify `frame` against the window (see [`Offer`]).
    pub fn offer(&mut self, frame: Frame) -> Offer {
        if frame.seq < self.expected {
            return Offer::Duplicate;
        }
        if frame.seq > self.expected {
            // Re-stashing an already-stashed seq is also a duplicate.
            if self.stash.contains_key(&frame.seq) {
                return Offer::Duplicate;
            }
            self.stash.insert(frame.seq, frame);
            return Offer::Stashed;
        }
        self.expected += 1;
        Offer::Deliver(frame)
    }

    /// Pop the next in-sequence stashed frame, if the gap has filled.
    pub fn pop_ready(&mut self) -> Option<Frame> {
        if let Some(f) = self.stash.remove(&self.expected) {
            self.expected += 1;
            return Some(f);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Data,
            from: 3,
            era: 2,
            seq,
            step: 7,
            round: 1,
            offset: 128,
            payload: payload.to_vec(),
            slot: None,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let f = data_frame(42, &[1, 2, 3, 4, 5]);
        let bytes = encode(&f);
        let got = parse_body(&bytes[4..], Vec::new()).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::control(FrameKind::Heartbeat, 1, 0, 9);
        let bytes = encode(&f);
        assert_eq!(bytes.len(), 4 + HEADER_LEN + 4);
        assert_eq!(parse_body(&bytes[4..], Vec::new()).unwrap(), f);
    }

    #[test]
    fn bit_flip_is_rejected_by_crc() {
        let bytes = encode(&data_frame(0, &[9; 32]));
        for at in 4..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match parse_body(&bad[4..], Vec::new()) {
                Err(FrameError::BadCrc { .. }) => {}
                other => panic!("flip at {at} not caught by crc: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_ends_the_stream() {
        let mut stream: &[u8] = &[0xff; PREFIX_LEN];
        let err = read_frame(&mut stream, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_frame_skipped_stream_continues() {
        let a = encode(&data_frame(0, &[7; 8]));
        let b = encode(&data_frame(1, &[8; 8]));
        let mut bytes = a.clone();
        let flip_at = bytes.len() - 6; // inside a's payload
        bytes[flip_at] ^= 0xff;
        bytes.extend_from_slice(&b);
        let (mut stream, mut buf) = (&bytes[..], Vec::new());
        let first = read_frame(&mut stream, &mut buf).unwrap();
        assert!(matches!(first, Err(FrameError::BadCrc { .. })));
        assert_eq!(read_frame(&mut stream, &mut buf).unwrap().unwrap().seq, 1);
    }

    #[test]
    fn dedup_window_orders_dedups_and_resets() {
        let mut w = DedupWindow::new();
        assert!(matches!(w.offer(data_frame(1, &[])), Offer::Stashed));
        assert!(matches!(w.offer(data_frame(1, &[])), Offer::Duplicate));
        match w.offer(data_frame(0, &[])) {
            Offer::Deliver(f) => assert_eq!(f.seq, 0),
            other => panic!("{other:?}"),
        }
        assert_eq!(w.pop_ready().map(|f| f.seq), Some(1));
        assert_eq!(w.pop_ready(), None);
        assert!(matches!(w.offer(data_frame(0, &[])), Offer::Duplicate));
        w.reset();
        assert!(matches!(w.offer(data_frame(0, &[])), Offer::Deliver(_)));
    }
}
