//! The internal configuration access port (ICAP) and configuration memory.
//!
//! The ICAP is the on-die write port into configuration memory. Writing a
//! partial bitstream through it reconfigures the addressed frames — and
//! only those frames — while the rest of the device keeps running. The
//! model enforces the properties the VAPRES switching methodology leans
//! on:
//!
//! * a module "exists" only after its complete bitstream has passed the
//!   CRC check and desynced;
//! * a failed (corrupt/truncated) write leaves the touched frames zeroed —
//!   the PRR contents are undefined, never half-old/half-new;
//! * writes are timed at the calibrated polled-driver rate.

use crate::stream::{self, LeWords, ModuleUid, ParseError, ParsedBitstream, WordSource};
use crate::timing;
use std::collections::BTreeMap;
use vapres_fabric::frame::FrameAddress;
use vapres_sim::time::Ps;

/// The device's configuration memory: frame address → frame words.
///
/// Only frames that have been written (by full or partial reconfiguration)
/// are present; untouched addresses read as all-zero frames.
#[derive(Debug, Clone, Default)]
pub struct ConfigMemory {
    frames: BTreeMap<u32, Vec<u32>>,
}

impl ConfigMemory {
    /// Empty (erased) configuration memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The words of the frame at `far`, if it has ever been written.
    pub fn frame(&self, far: FrameAddress) -> Option<&[u32]> {
        self.frames.get(&far.encode()).map(Vec::as_slice)
    }

    /// Number of distinct frames written.
    pub fn written_frames(&self) -> usize {
        self.frames.len()
    }

    /// Iterates every written frame as `(encoded FAR, words)`, in frame-
    /// address order.
    pub fn frames(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.frames
            .iter()
            .map(|(far, words)| (*far, words.as_slice()))
    }

    fn write_frame(&mut self, far: FrameAddress, words: Vec<u32>) {
        self.frames.insert(far.encode(), words);
    }

    /// Flips one configuration bit — a simulated single-event upset.
    /// Returns `false` if the frame has never been written or the indices
    /// are out of range.
    pub fn inject_upset(&mut self, far: FrameAddress, word: usize, bit: u32) -> bool {
        if bit >= 32 {
            return false;
        }
        match self.frames.get_mut(&far.encode()) {
            Some(frame) if word < frame.len() => {
                frame[word] ^= 1 << bit;
                true
            }
            _ => false,
        }
    }

    fn zero_frame(&mut self, far: FrameAddress) {
        self.frames.insert(far.encode(), vec![0; 41]);
    }
}

vapres_sim::persist_fields!(ConfigMemory: frames);

vapres_sim::persist_fields!(Icap: memory, writes, failed_writes, words_written, words_pushed);

/// Result of a successful ICAP write: what was configured and how long the
/// write took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcapWrite {
    /// The module now instantiated in the reconfigured frames.
    pub uid: ModuleUid,
    /// Frame addresses written, in order.
    pub frames_written: Vec<FrameAddress>,
    /// Time the polled driver spent pushing words into the port.
    pub duration: Ps,
}

/// The internal configuration access port.
///
/// # Examples
///
/// ```
/// use vapres_bitstream::icap::Icap;
/// use vapres_bitstream::stream::{ModuleUid, PartialBitstream};
/// use vapres_fabric::geometry::{ClbRect, Device};
///
/// let dev = Device::xc4vlx25();
/// let prr = ClbRect::new(0, 9, 0, 15);
/// let bs = PartialBitstream::generate(&dev, &prr, ModuleUid(42))?;
///
/// let mut icap = Icap::new();
/// let write = icap.write_stream(bs.words())?;
/// assert_eq!(write.uid, ModuleUid(42));
/// assert_eq!(write.frames_written.len(), 220);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Icap {
    memory: ConfigMemory,
    writes: u64,
    failed_writes: u64,
    words_written: u64,
    words_pushed: u64,
}

impl Icap {
    /// A fresh ICAP over erased configuration memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a complete configuration word stream through the port.
    ///
    /// On success the addressed frames hold the new configuration and the
    /// instantiated [`ModuleUid`] is reported. On failure the addressed
    /// frames are zeroed (contents undefined after an aborted partial
    /// reconfiguration) and the error is returned; the caller must treat
    /// the PRR as unconfigured.
    ///
    /// # Errors
    ///
    /// Any [`ParseError`]: missing sync, truncation, malformed packets,
    /// CRC mismatch, wrong IDCODE, missing desync.
    pub fn write_stream(&mut self, words: &[u32]) -> Result<IcapWrite, ParseError> {
        self.write_source(words)
    }

    /// [`Icap::write_stream`] over a raw little-endian byte buffer —
    /// the zero-copy entry point: words are decoded on the fly, never
    /// collected into an intermediate vector.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`] if the length is not a multiple of 4,
    /// plus everything [`Icap::write_stream`] can return.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> Result<IcapWrite, ParseError> {
        self.write_source(LeWords::new(bytes)?)
    }

    /// [`Icap::write_stream`], generic over any [`WordSource`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Icap::write_stream`].
    pub fn write_source<S: WordSource>(&mut self, src: S) -> Result<IcapWrite, ParseError> {
        let n = src.word_len() as u64;
        match stream::parse_source(&src) {
            Ok(parsed) => self.write_parsed(parsed, n),
            Err(e) => {
                self.writes += 1;
                // The polled driver clocks every word into the port before
                // the configuration logic can reject the stream.
                self.words_pushed += n;
                self.failed_writes += 1;
                // Best-effort recovery of which frames were touched before
                // the failure: parse leniently for FAR/Type2 structure and
                // zero whatever we can attribute. A truncated/corrupt
                // stream may still have clocked frames in.
                for far in touched_frames(&src) {
                    self.memory.zero_frame(far);
                }
                Err(e)
            }
        }
    }

    /// Pushes a stream the caller has already parsed and CRC-checked:
    /// `parsed` must be what [`stream::parse_source`] returned for an
    /// `n_words`-word stream. Counters, the device check and the frame
    /// writes are those of [`Icap::write_source`]; the stream is not
    /// parsed again. A stream that failed to parse goes through
    /// [`Icap::write_source`], which zeroes the frames it touched.
    ///
    /// # Errors
    ///
    /// [`ParseError::WrongDevice`] if the stream targets another device.
    pub fn write_parsed(
        &mut self,
        parsed: ParsedBitstream,
        n_words: u64,
    ) -> Result<IcapWrite, ParseError> {
        self.writes += 1;
        // Pushed words count whether or not the write validates.
        self.words_pushed += n_words;
        if parsed.idcode != stream::IDCODE_XC4VLX25 {
            self.failed_writes += 1;
            return Err(ParseError::WrongDevice {
                found: parsed.idcode,
                device: stream::IDCODE_XC4VLX25,
            });
        }
        self.words_written += n_words;
        let mut written = Vec::with_capacity(parsed.frames.len());
        for (far, data) in parsed.frames {
            self.memory.write_frame(far, data);
            written.push(far);
        }
        Ok(IcapWrite {
            uid: parsed.uid,
            frames_written: written,
            duration: timing::icap_write_time(n_words),
        })
    }

    /// The configuration memory behind the port.
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Mutable access to configuration memory — for fault-injection
    /// experiments (single-event upsets), not normal operation.
    pub fn memory_mut(&mut self) -> &mut ConfigMemory {
        &mut self.memory
    }

    /// Reads back the frames a golden bitstream covers and returns the
    /// addresses whose contents differ — the detection half of
    /// configuration scrubbing (the paper's fault-tolerance citation,
    /// Emmert et al.). Also returns the readback time (same driver rate
    /// as writes).
    pub fn verify(&self, golden: &ParsedBitstream) -> (Vec<FrameAddress>, Ps) {
        let mut bad = Vec::new();
        let mut words = 0u64;
        for (far, expect) in &golden.frames {
            words += expect.len() as u64;
            match self.memory.frame(*far) {
                Some(actual) if actual == expect.as_slice() => {}
                _ => bad.push(*far),
            }
        }
        (bad, timing::icap_write_time(words))
    }

    /// Repairs every mismatched frame from the golden bitstream (the
    /// rewrite half of scrubbing). Returns the repaired addresses and the
    /// total time (readback + rewriting only the bad frames).
    pub fn scrub(&mut self, golden: &ParsedBitstream) -> (Vec<FrameAddress>, Ps) {
        let (bad, read_time) = self.verify(golden);
        // Index the golden image once: O(bad + frames) instead of a linear
        // scan of the whole image per bad frame.
        let golden_by_far: BTreeMap<u32, &Vec<u32>> = golden
            .frames
            .iter()
            .map(|(far, data)| (far.encode(), data))
            .collect();
        let mut rewrite_words = 0u64;
        for far in &bad {
            if let Some(data) = golden_by_far.get(&far.encode()) {
                rewrite_words += data.len() as u64;
                self.memory.write_frame(*far, (*data).clone());
            }
        }
        (bad, read_time + timing::icap_write_time(rewrite_words))
    }

    /// Total write attempts.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Write attempts that failed validation.
    pub fn failed_write_count(&self) -> u64 {
        self.failed_writes
    }

    /// Total configuration words accepted across all successful writes.
    pub fn words_written(&self) -> u64 {
        self.words_written
    }

    /// Total configuration words clocked into the port across *all*
    /// write attempts, failed ones included — the quantity the polled
    /// driver actually spent cycles on.
    pub fn words_pushed(&self) -> u64 {
        self.words_pushed
    }
}

/// Lenient scan for the frames a (possibly corrupt) stream addresses:
/// every decodable FAR write starts a run whose length is bounded by the
/// following FDRI payload.
fn touched_frames<S: WordSource + ?Sized>(src: &S) -> Vec<FrameAddress> {
    use crate::packet::{self, ConfigReg, Packet};
    let n = src.word_len();
    let mut out = Vec::new();
    let mut i = 0;
    let mut current: Option<FrameAddress> = None;
    while i < n {
        match packet::decode(src.word_at(i)) {
            Some(Packet::Type1Write { reg, word_count }) => {
                let end = (i + 1 + word_count as usize).min(n);
                if reg == ConfigReg::Far && i + 1 < n {
                    current = FrameAddress::decode(src.word_at(i + 1));
                }
                i = end;
            }
            Some(Packet::Type2Write { word_count }) => {
                let avail = n.saturating_sub(i + 1);
                let payload = (word_count as usize).min(avail);
                // Frames past the minor field's last address were never
                // addressed, so nothing of them can be attributed.
                for _ in 0..payload / 41 {
                    let Some(far) = current else { break };
                    out.push(far);
                    current = far.next_minor();
                }
                i += 1 + payload;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::PartialBitstream;
    use vapres_fabric::geometry::{ClbRect, Device};

    fn proto_bitstream(uid: u32) -> PartialBitstream {
        let dev = Device::xc4vlx25();
        let prr = ClbRect::new(0, 9, 0, 15);
        PartialBitstream::generate(&dev, &prr, ModuleUid(uid)).unwrap()
    }

    #[test]
    fn successful_write_configures_frames() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(0xAB);
        let w = icap.write_stream(bs.words()).unwrap();
        assert_eq!(w.uid, ModuleUid(0xAB));
        assert_eq!(w.frames_written.len(), 220);
        assert_eq!(icap.memory().written_frames(), 220);
        assert_eq!(icap.write_count(), 1);
        assert_eq!(icap.failed_write_count(), 0);
        assert_eq!(icap.words_written(), bs.words().len() as u64);
        // Duration matches the calibrated driver rate.
        assert_eq!(w.duration, timing::icap_write_time(bs.words().len() as u64));
    }

    #[test]
    fn rewrite_replaces_frames() {
        let mut icap = Icap::new();
        let a = proto_bitstream(1);
        let b = proto_bitstream(2);
        icap.write_stream(a.words()).unwrap();
        let far0 = icap.write_stream(b.words()).unwrap().frames_written[0];
        // Frame content now derives from module 2.
        let frame = icap.memory().frame(far0).unwrap();
        assert_eq!(frame[0] ^ crate::stream::UID_MASK, 2);
        assert_eq!(icap.memory().written_frames(), 220);
    }

    #[test]
    fn corrupt_write_zeroes_touched_frames() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(7);
        let mut words = bs.words().to_vec();
        let mid = words.len() / 2;
        words[mid] ^= 0x10;
        let err = icap.write_stream(&words).unwrap_err();
        assert!(matches!(err, ParseError::CrcMismatch { .. }));
        assert_eq!(icap.failed_write_count(), 1);
        assert_eq!(icap.words_written(), 0, "failed writes accept no words");
        // Every frame the stream addressed reads as zeros now.
        let some_far = touched_frames(words.as_slice())[0];
        assert_eq!(icap.memory().frame(some_far).unwrap(), &[0u32; 41]);
    }

    /// A committed case of the hostile-bitstream mutants: a zero-length
    /// FDRI header inflated to 2047 words runs the lenient recovery past
    /// its column's last minor address, which once panicked encoding the
    /// frame address instead of failing the write.
    #[test]
    fn inflated_fdri_header_fails_without_panicking() {
        let mut icap = Icap::new();
        let mut words = proto_bitstream(7).words().to_vec();
        let fdri = crate::packet::type1_write(crate::packet::ConfigReg::Fdri, 0);
        let at = words.iter().position(|&w| w == fdri).unwrap();
        words[at] |= crate::packet::TYPE1_MAX_WORDS;
        assert!(icap.write_stream(&words).is_err());
        assert_eq!(icap.failed_write_count(), 1);
        assert!(icap.memory().written_frames() > 0, "touched frames zeroed");
    }

    #[test]
    fn truncated_write_fails_and_zeroes() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(9);
        let words = &bs.words()[..bs.words().len() * 2 / 3];
        assert!(icap.write_stream(words).is_err());
        assert!(icap.memory().written_frames() > 0); // zeroed frames recorded
    }

    #[test]
    fn verify_clean_configuration_is_empty() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(5);
        icap.write_stream(bs.words()).unwrap();
        let golden = crate::stream::parse(bs.words()).unwrap();
        let (bad, t) = icap.verify(&golden);
        assert!(bad.is_empty());
        assert!(t > Ps::new(0));
    }

    #[test]
    fn seu_detected_and_scrubbed() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(5);
        let write = icap.write_stream(bs.words()).unwrap();
        let golden = crate::stream::parse(bs.words()).unwrap();
        // Flip one bit in the middle of the configuration.
        let far = write.frames_written[100];
        assert!(icap.memory_mut().inject_upset(far, 7, 13));
        let (bad, _) = icap.verify(&golden);
        assert_eq!(bad, vec![far]);
        let (repaired, t) = icap.scrub(&golden);
        assert_eq!(repaired, vec![far]);
        assert!(t > Ps::new(0));
        let (bad, _) = icap.verify(&golden);
        assert!(bad.is_empty(), "scrub must restore the configuration");
    }

    #[test]
    fn write_bytes_matches_write_stream() {
        let bs = proto_bitstream(0x44);
        let mut by_words = Icap::new();
        let a = by_words.write_stream(bs.words()).unwrap();
        let mut by_bytes = Icap::new();
        let b = by_bytes.write_bytes(&bs.to_bytes()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            by_words.memory().written_frames(),
            by_bytes.memory().written_frames()
        );
        for far in &a.frames_written {
            assert_eq!(by_words.memory().frame(*far), by_bytes.memory().frame(*far));
        }
    }

    #[test]
    fn write_parsed_matches_write_source() {
        // Handing the ICAP a parse it would have made itself changes
        // nothing observable, on success and on a device mismatch.
        let bs = proto_bitstream(0x55);
        let mut foreign = crate::stream::parse(bs.words()).unwrap();
        foreign.idcode ^= 1;
        let n = bs.words().len() as u64;
        let mut by_source = Icap::new();
        let mut by_parse = Icap::new();
        assert_eq!(
            by_source.write_source(bs.words()),
            by_parse.write_parsed(crate::stream::parse(bs.words()).unwrap(), n)
        );
        assert!(matches!(
            by_parse.write_parsed(foreign, n),
            Err(ParseError::WrongDevice { .. })
        ));
        let counters = |i: &Icap| {
            [
                i.write_count(),
                i.words_pushed(),
                i.words_written(),
                i.failed_write_count(),
            ]
        };
        assert_eq!(counters(&by_source), [1, n, n, 0]);
        assert_eq!(counters(&by_parse), [2, 2 * n, n, 1]);
        let frames = |i: &Icap| {
            i.memory()
                .frames()
                .map(|(f, d)| (f, d.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(frames(&by_source), frames(&by_parse));
    }

    #[test]
    fn words_pushed_counts_failed_attempts_too() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(3);
        let total = bs.words().len() as u64;
        icap.write_stream(bs.words()).unwrap();
        assert_eq!(icap.words_pushed(), total);
        // A corrupt stream is fully clocked in before the CRC rejects it.
        let mut words = bs.words().to_vec();
        let mid = words.len() / 2;
        words[mid] ^= 1;
        icap.write_stream(&words).unwrap_err();
        assert_eq!(icap.words_pushed(), 2 * total);
        assert_eq!(icap.words_written(), total, "accepted words unchanged");
    }

    #[test]
    fn scrub_many_frames_charges_only_bad_words() {
        let mut icap = Icap::new();
        let bs = proto_bitstream(6);
        let write = icap.write_stream(bs.words()).unwrap();
        let golden = crate::stream::parse(bs.words()).unwrap();
        // Upset a large, scattered set of frames — the O(bad x frames)
        // scan this replaced would walk the image 73 times here.
        let upset: Vec<FrameAddress> = write.frames_written.iter().step_by(3).copied().collect();
        for (k, far) in upset.iter().enumerate() {
            assert!(icap
                .memory_mut()
                .inject_upset(*far, k % 41, (k % 32) as u32));
        }
        let (_, read_time) = icap.verify(&golden);
        let (repaired, t) = icap.scrub(&golden);
        assert_eq!(repaired.len(), upset.len());
        // Repair time = full readback + rewriting ONLY the bad frames.
        let bad_words = repaired.len() as u64 * 41;
        assert_eq!(t, read_time + timing::icap_write_time(bad_words));
        let (bad, _) = icap.verify(&golden);
        assert!(bad.is_empty());
    }

    #[test]
    fn inject_upset_bounds() {
        let mut icap = Icap::new();
        let far = FrameAddress {
            block: vapres_fabric::frame::BlockType::Clb,
            band: 0,
            major: 0,
            minor: 0,
        };
        assert!(!icap.memory_mut().inject_upset(far, 0, 0)); // unwritten
        let bs = proto_bitstream(1);
        let w = icap.write_stream(bs.words()).unwrap();
        let far = w.frames_written[0];
        assert!(!icap.memory_mut().inject_upset(far, 999, 0));
        assert!(!icap.memory_mut().inject_upset(far, 0, 32));
    }

    #[test]
    fn unwritten_frames_read_none() {
        let icap = Icap::new();
        let far = FrameAddress {
            block: vapres_fabric::frame::BlockType::Clb,
            band: 0,
            major: 0,
            minor: 0,
        };
        assert!(icap.memory().frame(far).is_none());
    }
}
