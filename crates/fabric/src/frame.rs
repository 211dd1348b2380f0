//! Configuration frame geometry.
//!
//! Virtex-4 configuration memory is organized in *frames*: the atomic unit
//! of (partial) reconfiguration. A frame is 41 words of 32 bits and spans
//! exactly one clock-region height (16 CLB rows). A CLB column within one
//! region consists of [`FRAMES_PER_CLB_COLUMN`] frames. Partial bitstream
//! size — and therefore reconfiguration time, the paper's key measured
//! quantity — follows directly from this geometry.

use crate::geometry::{ClbRect, Device, GeometryError};
use std::fmt;

/// 32-bit words per configuration frame (Virtex-4: 41).
pub const FRAME_WORDS: u32 = 41;
/// Bytes per configuration frame.
pub const FRAME_BYTES: u32 = FRAME_WORDS * 4;
/// Configuration frames in one CLB column within one clock region
/// (Virtex-4: 22).
pub const FRAMES_PER_CLB_COLUMN: u32 = 22;

/// Block type field of a frame address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockType {
    /// CLB / IOB / DSP interconnect and logic.
    Clb,
    /// Block RAM contents.
    BramContent,
    /// Block RAM interconnect.
    BramInterconnect,
}

impl BlockType {
    /// The 3-bit encoding used in the frame address register.
    pub fn encode(self) -> u32 {
        match self {
            BlockType::Clb => 0b000,
            BlockType::BramContent => 0b001,
            BlockType::BramInterconnect => 0b010,
        }
    }

    /// Decodes the 3-bit FAR field.
    pub fn decode(bits: u32) -> Option<Self> {
        match bits {
            0b000 => Some(BlockType::Clb),
            0b001 => Some(BlockType::BramContent),
            0b010 => Some(BlockType::BramInterconnect),
            _ => None,
        }
    }
}

/// A frame address (FAR): identifies one configuration frame.
///
/// Layout (modelled on the Virtex-4 FAR):
///
/// ```text
/// [22]    top/bottom   (we use 0 = bottom half of the die)
/// [21:19] block type
/// [18:14] row (clock-region band within the half)
/// [13:6]  major address (column)
/// [5:0]   minor address (frame within the column)
/// ```
///
/// # Examples
///
/// ```
/// use vapres_fabric::frame::{BlockType, FrameAddress};
///
/// let far = FrameAddress {
///     block: BlockType::Clb,
///     band: 2,
///     major: 7,
///     minor: 3,
/// };
/// let word = far.encode();
/// assert_eq!(FrameAddress::decode(word), Some(far));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameAddress {
    /// Block type.
    pub block: BlockType,
    /// Clock-region band index.
    pub band: u32,
    /// Major (column) address.
    pub major: u32,
    /// Minor (frame-within-column) address.
    pub minor: u32,
}

impl FrameAddress {
    /// Packs the address into a 32-bit FAR word.
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds its bit width (band ≥ 32, major ≥ 256,
    /// minor ≥ 64).
    pub fn encode(self) -> u32 {
        assert!(self.band < 32, "band field overflow");
        assert!(self.major < 256, "major field overflow");
        assert!(self.minor < 64, "minor field overflow");
        (self.block.encode() << 19) | (self.band << 14) | (self.major << 6) | self.minor
    }

    /// The next frame of the column, as the configuration logic's FAR
    /// auto-increment steps; `None` past the last address the 6-bit minor
    /// field holds.
    pub fn next_minor(self) -> Option<Self> {
        (self.minor < 63).then_some(FrameAddress {
            minor: self.minor + 1,
            ..self
        })
    }

    /// Unpacks a FAR word; `None` if the block type field is invalid.
    pub fn decode(word: u32) -> Option<Self> {
        Some(FrameAddress {
            block: BlockType::decode((word >> 19) & 0b111)?,
            band: (word >> 14) & 0b1_1111,
            major: (word >> 6) & 0xff,
            minor: word & 0b11_1111,
        })
    }
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FAR[{:?} band={} major={} minor={}]",
            self.block, self.band, self.major, self.minor
        )
    }
}

/// The set of configuration frames covering a rectangle, in ascending FAR
/// order — the write order of a partial bitstream.
///
/// # Errors
///
/// Propagates the geometry errors of
/// [`Device::regions_spanned`].
///
/// # Examples
///
/// ```
/// use vapres_fabric::frame::{frames_for_rect, FRAMES_PER_CLB_COLUMN};
/// use vapres_fabric::geometry::{ClbRect, Device};
///
/// let dev = Device::xc4vlx25();
/// let prr = ClbRect::new(0, 9, 0, 15); // 10 columns x 1 region
/// let frames = frames_for_rect(&dev, &prr)?;
/// assert_eq!(frames.len() as u32, 10 * FRAMES_PER_CLB_COLUMN);
/// # Ok::<(), vapres_fabric::geometry::GeometryError>(())
/// ```
pub fn frames_for_rect(
    device: &Device,
    rect: &ClbRect,
) -> Result<Vec<FrameAddress>, GeometryError> {
    let regions = device.regions_spanned(rect)?;
    let mut frames = Vec::new();
    for region in &regions {
        for col in rect.col_lo..=rect.col_hi {
            for minor in 0..FRAMES_PER_CLB_COLUMN {
                frames.push(FrameAddress {
                    block: BlockType::Clb,
                    band: region.band,
                    major: col,
                    minor,
                });
            }
        }
    }
    Ok(frames)
}

/// Payload bytes of a partial bitstream covering `rect` (frame data only,
/// excluding packet overhead).
///
/// # Errors
///
/// Propagates the geometry errors of [`Device::regions_spanned`].
pub fn frame_payload_bytes(device: &Device, rect: &ClbRect) -> Result<u64, GeometryError> {
    Ok(frames_for_rect(device, rect)?.len() as u64 * u64::from(FRAME_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Device;

    #[test]
    fn far_roundtrip() {
        for block in [
            BlockType::Clb,
            BlockType::BramContent,
            BlockType::BramInterconnect,
        ] {
            for (band, major, minor) in [(0, 0, 0), (5, 27, 21), (31, 255, 63)] {
                let far = FrameAddress {
                    block,
                    band,
                    major,
                    minor,
                };
                assert_eq!(FrameAddress::decode(far.encode()), Some(far));
            }
        }
    }

    #[test]
    fn far_decode_rejects_bad_block() {
        // Block type 0b111 is unused.
        assert_eq!(FrameAddress::decode(0b111 << 19), None);
    }

    #[test]
    #[should_panic(expected = "major field overflow")]
    fn far_encode_checks_widths() {
        FrameAddress {
            block: BlockType::Clb,
            band: 0,
            major: 256,
            minor: 0,
        }
        .encode();
    }

    #[test]
    fn prototype_prr_frame_count() {
        // 640-slice PRR = 10 columns x 1 clock region = 220 frames ≈ 36 KB.
        let dev = Device::xc4vlx25();
        let prr = ClbRect::new(0, 9, 0, 15);
        let frames = frames_for_rect(&dev, &prr).unwrap();
        assert_eq!(frames.len(), 220);
        assert_eq!(
            frame_payload_bytes(&dev, &prr).unwrap(),
            220 * u64::from(FRAME_BYTES)
        );
        assert_eq!(FRAME_BYTES, 164);
    }

    #[test]
    fn frames_are_in_ascending_far_order() {
        let dev = Device::xc4vlx25();
        let rect = ClbRect::new(2, 4, 0, 31); // 2 bands x 3 columns
        let frames = frames_for_rect(&dev, &rect).unwrap();
        assert_eq!(frames.len(), 2 * 3 * FRAMES_PER_CLB_COLUMN as usize);
        let encoded: Vec<u32> = frames.iter().map(|f| f.encode()).collect();
        let mut sorted = encoded.clone();
        sorted.sort_unstable();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn taller_prr_has_proportionally_more_frames() {
        let dev = Device::xc4vlx25();
        let one = frames_for_rect(&dev, &ClbRect::new(0, 9, 0, 15)).unwrap();
        let three = frames_for_rect(&dev, &ClbRect::new(0, 9, 0, 47)).unwrap();
        assert_eq!(three.len(), 3 * one.len());
    }
}
