//! Adversarial property tests for the wire frame codec: arbitrary
//! garbage, truncations, and single-bit flips must never panic the
//! decoder and never smuggle a corrupted frame through; duplicated and
//! reordered frames must come out of the dedup window exactly once, in
//! order.
//!
//! [`PartialFrame`] — the one framing loop, run by every socket receive
//! and, as [`read_frame`], by the rendezvous handshakes — is
//! differentially tested against the naive [`reference_decode`] both
//! ways: through [`read_frame`] over a short-read `Read` adapter
//! (arbitrary cut points down to a one-byte dribble), and resumed over
//! an adapter that, like a non-blocking socket, says `WouldBlock`
//! between every two chunks; each into a dirty recycled buffer. A
//! golden pins the bytes [`PeerConn::send`] puts on a raw socket to
//! [`encode`]'s.

use std::io::{self, Read};
use std::os::unix::net::UnixStream;

use proptest::prelude::*;
use transport::frame::{
    encode, parse_body, read_frame, reference_decode, DedupWindow, Frame, FrameError, FrameKind,
    Offer, PartialFrame, HEADER_LEN, MAX_FRAME_LEN, SLOT_FLAG,
};
use transport::PeerConn;

fn kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop::sample::select(vec![
        FrameKind::Data,
        FrameKind::Ack,
        FrameKind::Nack,
        FrameKind::Heartbeat,
        FrameKind::Hello,
        FrameKind::Welcome,
        FrameKind::Ready,
        FrameKind::Start,
        FrameKind::StepDone,
        FrameKind::Commit,
        FrameKind::Degrade,
        FrameKind::Finished,
        FrameKind::Telemetry,
    ])
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        kind_strategy(),
        0u16..64,
        0u32..8,
        0u64..1 << 40,
        (0u32..1024, 0u32..32, 0u32..1 << 20),
        prop::collection::vec(0u8..=255, 0..256),
    )
        .prop_map(|(kind, from, era, seq, (step, round, offset), payload)| Frame {
            kind,
            from,
            era,
            seq,
            step,
            round,
            offset,
            payload,
            slot: None,
        })
}

/// A `Read` over a byte slice that returns at most `cuts[i]` bytes on
/// its i-th call (cycling; an empty script reads without limit) —
/// models a socket delivering a stream in arbitrary pieces.
struct ShortReads<'a> {
    bytes: &'a [u8],
    at: usize,
    cuts: &'a [usize],
    calls: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let limit = if self.cuts.is_empty() {
            usize::MAX
        } else {
            self.cuts[self.calls % self.cuts.len()].max(1)
        };
        self.calls += 1;
        let n = out.len().min(limit).min(self.bytes.len() - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// [`ShortReads`] that says `WouldBlock` before every chunk, as a
/// non-blocking socket does whenever the bytes so far are used up.
struct WouldBlocks<'a> {
    inner: ShortReads<'a>,
    blocked: bool,
}

impl Read for WouldBlocks<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.blocked = !self.blocked;
        if self.blocked {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.inner.read(out)
    }
}

/// What reading a whole stream gave: the per-frame outcomes, the error
/// that ended the stream, and how many bytes were still unread when the
/// frame it failed in began.
type ReadAll = (Vec<Result<Frame, FrameError>>, io::Error, usize);

/// Run [`read_frame`] over `bytes` the way the handshakes do — one
/// buffer carried from call to call, replaced by a *dirty* recycled one
/// whenever a frame takes it — until the stream ends.
fn read_all(bytes: &[u8], cuts: &[usize]) -> ReadAll {
    let mut stream = ShortReads { bytes, at: 0, cuts, calls: 0 };
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    loop {
        if buf.capacity() == 0 {
            buf = vec![0xA5; 300]; // longer than any generated payload
        }
        let left = bytes.len() - stream.at;
        match read_frame(&mut stream, &mut buf) {
            Ok(frame) => frames.push(frame),
            Err(e) => return (frames, e, left),
        }
    }
}

/// Run one [`PartialFrame`] over `bytes` the way a connection's receive
/// does — resumed after every `WouldBlock`, the payload buffer kept
/// across them and replaced by a dirty one whenever a frame takes it —
/// until the stream ends.
fn read_all_resumed(bytes: &[u8], cuts: &[usize]) -> ReadAll {
    let inner = ShortReads { bytes, at: 0, cuts, calls: 0 };
    let mut stream = WouldBlocks { inner, blocked: false };
    let mut partial = PartialFrame::default();
    let (mut frames, mut buf, mut left) = (Vec::new(), Vec::new(), bytes.len());
    loop {
        if buf.capacity() == 0 {
            buf = vec![0xA5; 300];
        }
        match partial.read(&mut stream, &mut buf) {
            Ok(Some(frame)) => {
                frames.push(frame);
                left = bytes.len() - stream.inner.at;
            }
            Ok(None) => {}
            Err(e) => return (frames, e, left),
        }
    }
}

/// Both readers must see exactly what [`reference_decode`] sees: the
/// same frames and per-frame rejects in the same order, and a stream
/// end of the matching kind — `InvalidData` carrying the same
/// `BadLength` where the reference calls the stream unframeable (given
/// the 32 bytes a reader reads before it looks), `UnexpectedEof` for
/// truncation and for a clean end.
fn assert_reads_like_reference(bytes: &[u8], cuts: &[usize]) -> Result<(), TestCaseError> {
    for read in [read_all, read_all_resumed] {
        assert_read_like_reference(bytes, read(bytes, cuts))?;
    }
    Ok(())
}

fn assert_read_like_reference(bytes: &[u8], read: ReadAll) -> Result<(), TestCaseError> {
    let mut want = reference_decode(bytes);
    let fatal = match want.last() {
        Some(Err(FrameError::Truncated | FrameError::BadLength(_))) => want.pop(),
        _ => None,
    };
    let (got, end, left) = read;
    prop_assert_eq!(&got, &want);
    match fatal {
        Some(Err(FrameError::BadLength(n))) if left >= 4 + HEADER_LEN => {
            prop_assert_eq!(end.kind(), io::ErrorKind::InvalidData);
            let inner = end.get_ref().and_then(|e| e.downcast_ref::<FrameError>());
            prop_assert_eq!(inner, Some(&FrameError::BadLength(n)));
        }
        Some(_) => {
            prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
            prop_assert!(left > 0, "a stream cut mid-frame has bytes left");
        }
        None => {
            prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
            prop_assert_eq!(left, 0, "a clean end is at a frame boundary");
        }
    }
    Ok(())
}

/// The bytes `PeerConn::send` puts on a raw socket are `encode`'s, for
/// payloads on both sides of every path boundary: none (the contiguous
/// write), 1, 63 | 64 (the CRC kernels' crossover), the quick preset's
/// gradient, and 2 MiB (many partial vectored writes). Pins "no
/// wire-version bump".
#[test]
fn peer_conn_send_puts_encode_bytes_on_the_socket() {
    let frames: Vec<Frame> = [0usize, 1, 63, 64, 5840, 2 << 20]
        .into_iter()
        .enumerate()
        .map(|(i, len)| Frame {
            kind: if len == 0 { FrameKind::Ack } else { FrameKind::Data },
            from: 3,
            era: 2,
            seq: 40 + i as u64,
            step: 7,
            round: i as u32,
            offset: 128,
            payload: (0..len).map(|b| (b * 31 + i) as u8).collect(),
            slot: None,
        })
        .collect();
    let want: Vec<u8> = frames.iter().flat_map(encode).collect();

    let (ours, mut raw) = UnixStream::pair().expect("socketpair");
    let got = std::thread::scope(|scope| {
        scope.spawn(|| {
            let conn = PeerConn::solo(1, 0, ours, None).expect("peer conn");
            for f in &frames {
                conn.send(f).expect("send");
            }
            // Dropping the conn shuts the socket down: EOF for the raw side.
        });
        let mut got = Vec::new();
        raw.read_to_end(&mut got).expect("raw read");
        got
    });
    assert_eq!(got.len(), want.len());
    assert!(got == want, "PeerConn::send and encode disagree on the wire bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → read is the identity however the socket chops the
    /// stream, including a one-byte dribble, and wherever it would block.
    #[test]
    fn read_frame_roundtrips_under_short_reads(
        frames in prop::collection::vec(frame_strategy(), 1..8),
        cuts in prop::collection::vec(1usize..96, 0..12),
    ) {
        let bytes: Vec<u8> = frames.iter().flat_map(encode).collect();
        let want: Vec<Result<Frame, FrameError>> = frames.into_iter().map(Ok).collect();
        for cuts in [&cuts[..], &[1]] {
            for read in [read_all, read_all_resumed] {
                let (got, end, left) = read(&bytes, cuts);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
                prop_assert_eq!(left, 0);
            }
        }
    }

    /// Descriptor frames — the bulk lane's flagged kind byte, a 16-byte
    /// descriptor, a tail CRC that verifies — mixed into inline ones are
    /// rejected one by one as the reference rejects them (`BadKind`),
    /// and the inline frames around them still decode, whether the
    /// stream is dribbled or would block between chunks.
    #[test]
    fn descriptor_frames_read_like_the_reference(
        frames in prop::collection::vec((frame_strategy(), 0u8..2), 1..8),
        cuts in prop::collection::vec(1usize..96, 0..12),
    ) {
        let mut bytes = Vec::new();
        for (mut frame, flag) in frames {
            let flagged = flag == 1;
            if flagged {
                frame.payload.resize(16, 0x5A);
            }
            let mut wire = encode(&frame);
            if flagged {
                wire[4] |= SLOT_FLAG;
                let end = wire.len() - 4;
                let crc = faults::crc32_bytes(&wire[4..end]);
                wire[end..].copy_from_slice(&crc.to_le_bytes());
                prop_assert_eq!(
                    reference_decode(&wire),
                    vec![Err(FrameError::BadKind(frame.kind as u8 | SLOT_FLAG))]
                );
            }
            bytes.extend_from_slice(&wire);
        }
        assert_reads_like_reference(&bytes, &cuts)?;
        assert_reads_like_reference(&bytes, &[1])?;
    }

    /// A valid stream damaged one way — cut short, one bit flipped
    /// anywhere (length prefixes included), or a length prefix
    /// overwritten with an out-of-bounds value — reads exactly as the
    /// reference decodes it, under any short-read schedule.
    #[test]
    fn read_frame_matches_reference_on_damaged_streams(
        frames in prop::collection::vec(frame_strategy(), 1..6),
        cuts in prop::collection::vec(1usize..96, 0..12),
        damage in (0u8..4, 0usize..1 << 20, 0u32..HEADER_LEN as u32 + 4),
    ) {
        let starts: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                let start = *at;
                *at += encode(f).len();
                Some(start)
            })
            .collect();
        let mut bytes: Vec<u8> = frames.iter().flat_map(encode).collect();
        let (how, at, small) = damage;
        match how {
            0 => {}
            1 => bytes.truncate(at % (bytes.len() + 1)),
            2 => {
                let bit = at % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {
                // Too short for a header on even picks, past the cap on odd.
                let bad = if at % 2 == 0 { small } else { MAX_FRAME_LEN as u32 + 1 + small };
                let start = starts[at % starts.len()];
                bytes[start..start + 4].copy_from_slice(&bad.to_le_bytes());
            }
        }
        assert_reads_like_reference(&bytes, &cuts)?;
        assert_reads_like_reference(&bytes, &[1])?;
    }

    /// Arbitrary garbage never panics `read_frame`, and it agrees with
    /// the reference on every frame and on how the stream ends.
    #[test]
    fn read_frame_matches_reference_on_garbage(
        bytes in prop::collection::vec(0u8..=255, 0..2048),
        cuts in prop::collection::vec(1usize..96, 0..12),
    ) {
        assert_reads_like_reference(&bytes, &cuts)?;
    }

    /// Garbage mixed into a valid stream: whatever happens, reading
    /// never panics, agrees with the reference, and the frames *before*
    /// the corruption decode exactly.
    #[test]
    fn garbage_after_valid_frames_never_panics(
        frames in prop::collection::vec(frame_strategy(), 1..4),
        garbage in prop::collection::vec(0u8..=255, 0..256),
        cuts in prop::collection::vec(1usize..96, 0..12),
    ) {
        let mut bytes: Vec<u8> = frames.iter().flat_map(encode).collect();
        bytes.extend_from_slice(&garbage);
        assert_reads_like_reference(&bytes, &cuts)?;
        let (got, _, _) = read_all(&bytes, &cuts);
        prop_assert!(got.len() >= frames.len());
        for (g, want) in got.iter().zip(&frames) {
            prop_assert_eq!(g.as_ref().expect("pre-corruption frame decodes"), want);
        }
    }

    /// Truncating a valid frame anywhere never yields a frame: the
    /// stream just ends short, however it is chopped.
    #[test]
    fn truncation_is_detected_not_misdecoded(
        frame in frame_strategy(),
        cut_sel in 0usize..1 << 16,
        cuts in prop::collection::vec(1usize..96, 0..12),
    ) {
        let bytes = encode(&frame);
        let cut = cut_sel % bytes.len(); // strictly shorter than the frame
        for read in [read_all, read_all_resumed] {
            let (got, end, left) = read(&bytes[..cut], &cuts);
            prop_assert_eq!(got, vec![]);
            prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
            prop_assert_eq!(left, cut);
        }
        // The reference decoder calls the same prefix truncated.
        if cut > 0 {
            let want = reference_decode(&bytes[..cut]);
            prop_assert_eq!(want.last(), Some(&Err(FrameError::Truncated)));
        }
    }

    /// A single flipped bit is always caught: the reader either reports
    /// an error, runs out of bytes, or — if the flip lands in the
    /// uncovered length prefix and still frames — the decoded frame
    /// must equal the original (CRC covers everything after the
    /// prefix). It never panics and never delivers a mangled frame.
    #[test]
    fn single_bit_flip_never_smuggles_a_frame(
        frame in frame_strategy(),
        bit_sel in 0usize..1 << 20,
    ) {
        let mut bytes = encode(&frame);
        let bit = bit_sel % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);

        for read in [read_all, read_all_resumed] {
            let (got, _, _) = read(&bytes, &[]);
            for g in got.into_iter().flatten() {
                prop_assert_eq!(g, frame.clone());
            }
        }

        // The body parser (post-length layer) must always reject a
        // body-region flip outright.
        if bit / 8 >= 4 {
            let body = &bytes[4..];
            prop_assert!(parse_body(body, Vec::new()).is_err());
        }
    }

    /// Duplicated and reordered frames come out of the dedup window
    /// exactly once each, in seq order — for any arrival order.
    #[test]
    fn dedup_window_delivers_each_seq_once_in_order(
        n in 1usize..24,
        order_seed in prop::collection::vec((0usize..1 << 16, 0u8..4), 8..64),
    ) {
        // Arrival sequence: seqs 0..n each appearing 1 + dups times, in
        // a deterministic shuffle derived from order_seed.
        let mut arrivals: Vec<u64> = Vec::new();
        for seq in 0..n as u64 {
            arrivals.push(seq);
        }
        for (i, &(pos, dup)) in order_seed.iter().enumerate() {
            if dup > 0 {
                arrivals.push((i % n) as u64); // duplicate transmissions
            }
            let a = pos % arrivals.len();
            let b = (pos / 7) % arrivals.len();
            arrivals.swap(a, b); // reordering
        }

        let mut window = DedupWindow::new();
        let mut delivered: Vec<u64> = Vec::new();
        for seq in arrivals {
            let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
            f.seq = seq;
            match window.offer(f) {
                Offer::Deliver(d) => {
                    delivered.push(d.seq);
                    while let Some(next) = window.pop_ready() {
                        delivered.push(next.seq);
                    }
                }
                Offer::Duplicate | Offer::Stashed => {}
            }
        }
        let want: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(delivered, want);
    }

    /// `parse_body` handles arbitrary bodies (including undersized and
    /// oversized ones) without panicking, and only ever accepts bodies
    /// whose CRC tail verifies.
    #[test]
    fn parse_body_total_on_arbitrary_input(
        body in prop::collection::vec(0u8..=255, 0..(HEADER_LEN + 4) * 3),
    ) {
        if let Ok(f) = parse_body(&body, Vec::new()) {
            // Re-encoding what we parsed must reproduce the body.
            let re = encode(&f);
            prop_assert_eq!(&re[4..], &body[..]);
        }
    }
}
