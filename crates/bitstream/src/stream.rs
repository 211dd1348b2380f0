//! Partial bitstream generation and parsing.
//!
//! A [`PartialBitstream`] targets one PRR rectangle: per CLB column it
//! writes the frame address register and streams the column's frames, and
//! it ends with a CRC check and a desync. Frame contents are a
//! deterministic function of the *module UID* being loaded, so a parsed
//! bitstream identifies which hardware module it instantiates — the
//! simulation analogue of a netlist.

use crate::crc::Crc32;
use crate::packet::{self, Command, ConfigReg, Packet, DUMMY_WORD, SYNC_WORD};
use std::fmt;
use vapres_fabric::frame::{FrameAddress, FRAMES_PER_CLB_COLUMN, FRAME_WORDS};
use vapres_fabric::geometry::{ClbRect, Device, GeometryError};

/// Identifies a hardware module implementation (the synthesized netlist a
/// partial bitstream instantiates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleUid(pub u32);

impl fmt::Display for ModuleUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module#{:08x}", self.0)
    }
}

impl vapres_sim::persist::Persist for ModuleUid {
    fn persist(&self, w: &mut vapres_sim::persist::Writer) {
        w.put_u32(self.0);
    }

    fn restore(
        r: &mut vapres_sim::persist::Reader<'_>,
    ) -> Result<Self, vapres_sim::persist::PersistError> {
        Ok(ModuleUid(r.take_u32()?))
    }
}

/// The modelled IDCODE of the Virtex-4 LX25.
pub const IDCODE_XC4VLX25: u32 = 0x0167_C093;

/// Random-access view over a stream of configuration words.
///
/// The parser and the ICAP are generic over this, so byte buffers coming
/// off storage are parsed in place — no second full `Vec<u32>` is ever
/// materialized on the reconfiguration path.
pub trait WordSource {
    /// Number of words in the stream.
    fn word_len(&self) -> usize;
    /// The word at index `i`. Panics if `i >= word_len()`.
    fn word_at(&self, i: usize) -> u32;
}

impl WordSource for [u32] {
    fn word_len(&self) -> usize {
        self.len()
    }
    fn word_at(&self, i: usize) -> u32 {
        self[i]
    }
}

impl<S: WordSource + ?Sized> WordSource for &S {
    fn word_len(&self) -> usize {
        (**self).word_len()
    }
    fn word_at(&self, i: usize) -> u32 {
        (**self).word_at(i)
    }
}

/// A byte buffer viewed as little-endian configuration words, decoded one
/// word at a time via `chunks_exact`-style slicing.
#[derive(Debug, Clone, Copy)]
pub struct LeWords<'a> {
    bytes: &'a [u8],
}

impl<'a> LeWords<'a> {
    /// Wraps `bytes` as a word stream.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`] if the length is not a multiple of 4.
    pub fn new(bytes: &'a [u8]) -> Result<Self, ParseError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(ParseError::Truncated);
        }
        Ok(LeWords { bytes })
    }
}

impl WordSource for LeWords<'_> {
    fn word_len(&self) -> usize {
        self.bytes.len() / 4
    }
    fn word_at(&self, i: usize) -> u32 {
        let b = &self.bytes[i * 4..i * 4 + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

/// Deterministic frame-word generator: mixes the module UID, frame index
/// and word index (splitmix64 finalizer truncated to 32 bits).
pub fn frame_word(uid: ModuleUid, frame_idx: u32, word_idx: u32) -> u32 {
    let mut z = (u64::from(uid.0) << 32)
        ^ (u64::from(frame_idx) << 8)
        ^ u64::from(word_idx)
        ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// An error from parsing or applying a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The stream does not begin with dummy + sync words.
    MissingSync,
    /// The stream ended before the expected structure completed.
    Truncated,
    /// A word did not decode to a valid packet where one was expected.
    BadPacket {
        /// Word offset in the stream.
        offset: usize,
        /// The offending word.
        word: u32,
    },
    /// A FAR payload did not decode.
    BadFrameAddress(u32),
    /// The CRC register write did not match the accumulated CRC.
    CrcMismatch {
        /// CRC carried by the bitstream.
        expected: u32,
        /// CRC computed over the received words.
        computed: u32,
    },
    /// The IDCODE in the stream does not match the target device.
    WrongDevice {
        /// IDCODE in the stream.
        found: u32,
        /// IDCODE of the device.
        device: u32,
    },
    /// The stream did not end with a DESYNC command.
    NotDesynced,
    /// Frame data ran past the last minor address of its column.
    FrameOverflow,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingSync => write!(f, "bitstream missing sync word"),
            ParseError::Truncated => write!(f, "bitstream truncated"),
            ParseError::BadPacket { offset, word } => {
                write!(f, "undecodable packet word {word:#010x} at offset {offset}")
            }
            ParseError::BadFrameAddress(w) => {
                write!(f, "invalid frame address {w:#010x}")
            }
            ParseError::CrcMismatch { expected, computed } => write!(
                f,
                "crc mismatch: bitstream carries {expected:#010x}, computed {computed:#010x}"
            ),
            ParseError::WrongDevice { found, device } => write!(
                f,
                "bitstream idcode {found:#010x} does not match device {device:#010x}"
            ),
            ParseError::NotDesynced => write!(f, "bitstream did not desync"),
            ParseError::FrameOverflow => {
                write!(
                    f,
                    "frame data runs past the last minor address of its column"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A generated partial bitstream: the word stream plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialBitstream {
    words: Vec<u32>,
    uid: ModuleUid,
    target: ClbRect,
}

impl PartialBitstream {
    /// Generates the partial bitstream loading `uid` into the PRR `target`
    /// on `device`.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors if `target` is not a legal PRR rectangle.
    pub fn generate(
        device: &Device,
        target: &ClbRect,
        uid: ModuleUid,
    ) -> Result<PartialBitstream, GeometryError> {
        let regions = device.regions_spanned(target)?;
        let mut words = Vec::new();
        let mut crc = Crc32::new();

        words.push(DUMMY_WORD);
        words.push(SYNC_WORD);
        // Reset CRC.
        words.push(packet::type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Rcrc.encode());
        // Device check. The UID rides in the otherwise-reserved upper bits
        // of nothing — it is recoverable from the frame data instead.
        words.push(packet::type1_write(ConfigReg::Idcode, 1));
        words.push(IDCODE_XC4VLX25);
        crc.update_word(IDCODE_XC4VLX25);
        // Write configuration command.
        words.push(packet::type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Wcfg.encode());

        let mut frame_idx = 0u32;
        for region in &regions {
            for col in target.col_lo..=target.col_hi {
                let far = FrameAddress {
                    block: vapres_fabric::frame::BlockType::Clb,
                    band: region.band,
                    major: col,
                    minor: 0,
                };
                let far_word = far.encode();
                words.push(packet::type1_write(ConfigReg::Far, 1));
                words.push(far_word);
                crc.update_word(far_word);
                // Zero-length type-1 FDRI header, then a type-2 with the
                // column's full frame payload.
                words.push(packet::type1_write(ConfigReg::Fdri, 0));
                let payload = FRAMES_PER_CLB_COLUMN * FRAME_WORDS;
                words.push(packet::type2_write(payload));
                for _minor in 0..FRAMES_PER_CLB_COLUMN {
                    for w in 0..FRAME_WORDS {
                        let word = frame_word_for_position(uid, frame_idx, w);
                        words.push(word);
                        crc.update_word(word);
                    }
                    frame_idx += 1;
                }
            }
        }

        words.push(packet::type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Lfrm.encode());
        words.push(packet::type1_write(ConfigReg::Crc, 1));
        words.push(crc.value());
        words.push(packet::type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Desync.encode());
        words.push(DUMMY_WORD);

        Ok(PartialBitstream {
            words,
            uid,
            target: *target,
        })
    }

    /// The raw configuration words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Total size in bytes — the quantity that dominates reconfiguration
    /// time.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// The module this bitstream instantiates.
    pub fn uid(&self) -> ModuleUid {
        self.uid
    }

    /// The PRR rectangle this bitstream targets.
    pub fn target(&self) -> ClbRect {
        self.target
    }

    /// Serializes to little-endian bytes (the on-flash file format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs the word stream from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if the byte length is not a
    /// multiple of 4, then parses fully (structure + CRC), recovering the
    /// module UID and target columns from the stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParsedBitstream, ParseError> {
        parse_source(LeWords::new(bytes)?)
    }
}

/// A fully validated bitstream: frames keyed by address, ready to apply to
/// configuration memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedBitstream {
    /// IDCODE carried by the stream.
    pub idcode: u32,
    /// `(address, frame words)` in write order. Each frame has
    /// [`FRAME_WORDS`] words.
    pub frames: Vec<(FrameAddress, Vec<u32>)>,
    /// The module UID recovered from the first frame's content.
    pub uid: ModuleUid,
}

/// Parses and validates a configuration word stream.
///
/// # Errors
///
/// Any structural violation, CRC failure, or missing desync yields a
/// [`ParseError`]; a stream that errors must not be applied.
pub fn parse(words: &[u32]) -> Result<ParsedBitstream, ParseError> {
    parse_source(words)
}

/// [`parse`], generic over any [`WordSource`] — byte buffers off storage
/// parse in place without an intermediate word vector.
///
/// # Errors
///
/// Same contract as [`parse`].
pub fn parse_source<S: WordSource>(src: S) -> Result<ParsedBitstream, ParseError> {
    let n = src.word_len();
    let mut i = 0usize;
    // Skip dummy words, require sync.
    while i < n && src.word_at(i) == DUMMY_WORD {
        i += 1;
    }
    if i >= n || src.word_at(i) != SYNC_WORD {
        return Err(ParseError::MissingSync);
    }
    i += 1;

    let mut crc = Crc32::new();
    let mut idcode = None;
    let mut frames: Vec<(FrameAddress, Vec<u32>)> = Vec::new();
    let mut current_far: Option<FrameAddress> = None;
    let mut desynced = false;
    let mut crc_checked = false;

    while i < n {
        let w = src.word_at(i);
        if w == DUMMY_WORD {
            i += 1;
            continue;
        }
        let pkt = packet::decode(w).ok_or(ParseError::BadPacket { offset: i, word: w })?;
        i += 1;
        match pkt {
            Packet::Noop => {}
            Packet::Type1Write { reg, word_count } => {
                let start = i;
                let end = i + word_count as usize;
                if end > n {
                    return Err(ParseError::Truncated);
                }
                i = end;
                let first = (word_count > 0).then(|| src.word_at(start));
                match reg {
                    ConfigReg::Cmd => {
                        let cmd = first
                            .and_then(Command::decode)
                            .ok_or(ParseError::BadPacket {
                                offset: i - 1,
                                word: first.unwrap_or(0),
                            })?;
                        match cmd {
                            Command::Rcrc => crc.reset(),
                            Command::Desync => {
                                desynced = true;
                            }
                            Command::Null | Command::Wcfg | Command::Lfrm => {}
                        }
                    }
                    ConfigReg::Idcode => {
                        let id = first.ok_or(ParseError::Truncated)?;
                        crc.update_word(id);
                        idcode = Some(id);
                    }
                    ConfigReg::Far => {
                        let raw = first.ok_or(ParseError::Truncated)?;
                        crc.update_word(raw);
                        current_far = Some(
                            FrameAddress::decode(raw).ok_or(ParseError::BadFrameAddress(raw))?,
                        );
                    }
                    ConfigReg::Fdri => {
                        // Zero-length header announcing a type-2 payload;
                        // inline type-1 FDRI payloads are also accepted.
                        if word_count > 0 {
                            consume_frames(
                                &src,
                                start,
                                end,
                                &mut current_far,
                                &mut frames,
                                &mut crc,
                            )?;
                        }
                    }
                    ConfigReg::Crc => {
                        let expected = first.ok_or(ParseError::Truncated)?;
                        let computed = crc.value();
                        if expected != computed {
                            return Err(ParseError::CrcMismatch { expected, computed });
                        }
                        crc_checked = true;
                    }
                }
            }
            Packet::Type2Write { word_count } => {
                let end = i + word_count as usize;
                if end > n {
                    return Err(ParseError::Truncated);
                }
                consume_frames(&src, i, end, &mut current_far, &mut frames, &mut crc)?;
                i = end;
            }
        }
        if desynced {
            break;
        }
    }

    if !desynced {
        return Err(ParseError::NotDesynced);
    }
    if !crc_checked {
        return Err(ParseError::CrcMismatch {
            expected: 0,
            computed: crc.value(),
        });
    }
    let idcode = idcode.ok_or(ParseError::Truncated)?;
    let uid = frames
        .first()
        .map(|(_, data)| recover_uid(data))
        .ok_or(ParseError::Truncated)?;
    Ok(ParsedBitstream {
        idcode,
        frames,
        uid,
    })
}

/// Splits an FDRI payload (the word range `start..end` of `src`) into
/// frames, auto-incrementing the minor address the way the configuration
/// logic does; a payload that runs past the minor field's last address is
/// [`ParseError::FrameOverflow`]. The CRC is fed whole frames at a time — the batch path.
fn consume_frames<S: WordSource + ?Sized>(
    src: &S,
    start: usize,
    end: usize,
    current_far: &mut Option<FrameAddress>,
    frames: &mut Vec<(FrameAddress, Vec<u32>)>,
    crc: &mut Crc32,
) -> Result<(), ParseError> {
    if !(end - start).is_multiple_of(FRAME_WORDS as usize) {
        return Err(ParseError::Truncated);
    }
    let mut next = Some(current_far.ok_or(ParseError::BadFrameAddress(0))?);
    let mut pos = start;
    while pos < end {
        let far = next.ok_or(ParseError::FrameOverflow)?;
        let mut frame = Vec::with_capacity(FRAME_WORDS as usize);
        for k in 0..FRAME_WORDS as usize {
            frame.push(src.word_at(pos + k));
        }
        crc.update_words(&frame);
        frames.push((far, frame));
        next = far.next_minor();
        pos += FRAME_WORDS as usize;
    }
    *current_far = next;
    Ok(())
}

/// Recovers the module UID from a frame's content by inverting
/// [`frame_word`] via brute-force comparison against the first word.
///
/// The generator writes `frame_word(uid, 0, 0)` as the very first frame
/// word; rather than searching, we embed the UID directly: word 0 of frame
/// 0 XORed with a fixed mask.
fn recover_uid(frame0: &[u32]) -> ModuleUid {
    // frame_word(uid, 0, 0) is not invertible cheaply, so generation embeds
    // the UID as frame0[0] ^ UID_MASK. See `frame_word_for_position`.
    ModuleUid(frame0[0] ^ UID_MASK)
}

/// Mask applied when embedding the module UID into frame 0 word 0.
pub const UID_MASK: u32 = 0x5A5A_5A5A;

/// The word generated at `(frame_idx, word_idx)`: position (0, 0) carries
/// the masked module UID (so parsers can identify the netlist), every other
/// position carries pseudo-random configuration content from
/// [`frame_word`].
pub fn frame_word_for_position(uid: ModuleUid, frame_idx: u32, word_idx: u32) -> u32 {
    if frame_idx == 0 && word_idx == 0 {
        uid.0 ^ UID_MASK
    } else {
        frame_word(uid, frame_idx, word_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapres_fabric::geometry::Device;

    fn proto() -> (Device, ClbRect) {
        (Device::xc4vlx25(), ClbRect::new(0, 9, 0, 15))
    }

    #[test]
    fn generate_parse_roundtrip() {
        let (dev, rect) = proto();
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(0xC0FFEE)).unwrap();
        let parsed = parse(bs.words()).unwrap();
        assert_eq!(parsed.idcode, IDCODE_XC4VLX25);
        assert_eq!(parsed.frames.len(), 220);
        assert_eq!(parsed.uid, ModuleUid(0xC0FFEE));
        for (_, frame) in &parsed.frames {
            assert_eq!(frame.len(), FRAME_WORDS as usize);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let (dev, rect) = proto();
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(7)).unwrap();
        let parsed = PartialBitstream::from_bytes(&bs.to_bytes()).unwrap();
        assert_eq!(parsed.uid, ModuleUid(7));
        assert_eq!(parsed.frames.len(), 220);
    }

    #[test]
    fn prototype_bitstream_size() {
        let (dev, rect) = proto();
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap();
        // 10 column groups x (4 header words + 902 payload) + prologue(8) +
        // epilogue(7) = 9075 words.
        assert_eq!(bs.words().len(), 10 * (4 + 902) + 8 + 7);
        assert_eq!(bs.len_bytes(), 36_300);
    }

    /// CRC-valid streams whose one FDRI payload starts at minor 60: four
    /// frames fill the 6-bit minor field, a fifth has no address it can
    /// hold, so that stream is rejected rather than handed to an ICAP
    /// that cannot encode it.
    #[test]
    fn frames_past_the_minor_field_are_rejected() {
        let far = FrameAddress {
            block: vapres_fabric::frame::BlockType::Clb,
            band: 0,
            major: 3,
            minor: 60,
        };
        let stream = |frames: u32| {
            let mut crc = Crc32::new();
            let mut words = vec![DUMMY_WORD, SYNC_WORD];
            words.extend([
                packet::type1_write(ConfigReg::Cmd, 1),
                Command::Rcrc.encode(),
            ]);
            words.extend([packet::type1_write(ConfigReg::Idcode, 1), IDCODE_XC4VLX25]);
            crc.update_word(IDCODE_XC4VLX25);
            words.extend([packet::type1_write(ConfigReg::Far, 1), far.encode()]);
            crc.update_word(far.encode());
            words.push(packet::type1_write(ConfigReg::Fdri, 0));
            words.push(packet::type2_write(frames * FRAME_WORDS));
            for k in 0..frames * FRAME_WORDS {
                words.push(k);
                crc.update_word(k);
            }
            words.extend([packet::type1_write(ConfigReg::Crc, 1), crc.value()]);
            words.extend([
                packet::type1_write(ConfigReg::Cmd, 1),
                Command::Desync.encode(),
            ]);
            words
        };
        let four = parse(&stream(4)).unwrap();
        let minors: Vec<u32> = four.frames.iter().map(|(f, _)| f.minor).collect();
        assert_eq!(minors, [60, 61, 62, 63]);
        assert_eq!(parse(&stream(5)), Err(ParseError::FrameOverflow));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let (dev, rect) = proto();
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap();
        let mut words = bs.words().to_vec();
        // Flip a bit in the middle of the frame data.
        let mid = words.len() / 2;
        words[mid] ^= 1;
        assert!(matches!(parse(&words), Err(ParseError::CrcMismatch { .. })));
    }

    #[test]
    fn truncated_stream_detected() {
        let (dev, rect) = proto();
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap();
        let words = &bs.words()[..bs.words().len() / 2];
        assert!(matches!(
            parse(words),
            Err(ParseError::Truncated | ParseError::NotDesynced)
        ));
    }

    #[test]
    fn missing_sync_detected() {
        assert_eq!(
            parse(&[DUMMY_WORD, 0x1234_5678]),
            Err(ParseError::MissingSync)
        );
        assert_eq!(parse(&[]), Err(ParseError::MissingSync));
    }

    #[test]
    fn odd_byte_length_rejected() {
        assert_eq!(
            PartialBitstream::from_bytes(&[1, 2, 3]),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn different_uids_have_different_payloads() {
        let (dev, rect) = proto();
        let a = PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap();
        let b = PartialBitstream::generate(&dev, &rect, ModuleUid(2)).unwrap();
        assert_ne!(a.words(), b.words());
        assert_eq!(a.words().len(), b.words().len());
    }

    #[test]
    fn multi_region_prr_has_proportional_frames() {
        let dev = Device::xc4vlx25();
        let rect = ClbRect::new(0, 9, 0, 47);
        let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(3)).unwrap();
        let parsed = parse(bs.words()).unwrap();
        assert_eq!(parsed.frames.len(), 3 * 220);
    }
}
