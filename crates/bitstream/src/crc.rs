//! Bitstream CRC.
//!
//! Xilinx configuration logic checks a CRC register before activating a
//! (partial) bitstream; a partial bitstream with a failing CRC is rejected
//! and the PRR contents are undefined. We model that gate with a standard
//! reflected CRC-32 (polynomial `0xEDB88320`) over the configuration data
//! words.

/// Slicing-by-4 lookup tables for the reflected polynomial, built at
/// compile time. `CRC_TABLES[0]` is the classic byte table: one step of it
/// replaces the eight-iteration bit loop. `CRC_TABLES[k]` advances a byte
/// through `k` further zero bytes, so one word is folded with four
/// independent lookups instead of four dependent byte steps.
const CRC_TABLES: [[u32; 256]; 4] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 4] {
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Folds one little-endian word into the running state.
#[inline(always)]
fn fold_word(state: u32, word: u32) -> u32 {
    let x = state ^ word;
    CRC_TABLES[3][(x & 0xFF) as usize]
        ^ CRC_TABLES[2][((x >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((x >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(x >> 24) as usize]
}

/// Running CRC-32 over 32-bit configuration words.
///
/// # Examples
///
/// ```
/// use vapres_bitstream::crc::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update_word(0xDEAD_BEEF);
/// let a = crc.value();
/// crc.reset();
/// crc.update_word(0xDEAD_BEEF);
/// assert_eq!(crc.value(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }
}

impl Crc32 {
    /// Creates a reset CRC accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the initial state (the bitstream `RCRC` command).
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }

    /// Feeds one byte.
    pub fn update_byte(&mut self, byte: u8) {
        let idx = ((self.state ^ u32::from(byte)) & 0xFF) as usize;
        self.state = (self.state >> 8) ^ CRC_TABLES[0][idx];
    }

    /// Feeds one 32-bit word, little-endian byte order.
    pub fn update_word(&mut self, word: u32) {
        self.state = fold_word(self.state, word);
    }

    /// Feeds a slice of words — the batch path used for whole frames.
    pub fn update_words(&mut self, words: &[u32]) {
        self.state = words.iter().fold(self.state, |s, &w| fold_word(s, w));
    }

    /// The current CRC value (final XOR applied).
    pub fn value(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC of a word slice.
pub fn crc_of_words(words: &[u32]) -> u32 {
    let mut c = Crc32::new();
    c.update_words(words);
    c.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // CRC-32 of the ASCII bytes "123456789" is 0xCBF43926.
        let mut c = Crc32::new();
        for b in b"123456789" {
            c.update_byte(*b);
        }
        assert_eq!(c.value(), 0xCBF4_3926);
        // The sliced word path: "12345678" as two little-endian words,
        // then the trailing '9'.
        let mut c = Crc32::new();
        c.update_words(&[u32::from_le_bytes(*b"1234"), u32::from_le_bytes(*b"5678")]);
        c.update_byte(b'9');
        assert_eq!(c.value(), 0xCBF4_3926);
    }

    #[test]
    fn word_update_matches_byte_update() {
        let mut by_word = Crc32::new();
        by_word.update_word(0x0403_0201);
        let mut by_byte = Crc32::new();
        for b in [0x01, 0x02, 0x03, 0x04] {
            by_byte.update_byte(b);
        }
        assert_eq!(by_word.value(), by_byte.value());
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc_of_words(&[1, 2, 3]), crc_of_words(&[1, 2, 4]));
        assert_ne!(crc_of_words(&[1, 2, 3]), crc_of_words(&[3, 2, 1]));
    }

    #[test]
    fn table_matches_bitwise_reference() {
        // The compile-time table must reproduce the textbook bit loop for
        // every byte value, so the batch frame path is value-identical to
        // the original per-bit accumulator.
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            assert_eq!(CRC_TABLES[0][i as usize], c, "table entry {i}");
        }
    }

    /// The byte-at-a-time table step the sliced word path replaced: the
    /// reference every word-level update must reproduce.
    fn bytewise_reference(words: &[u32]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &w in words {
            for b in w.to_le_bytes() {
                s = (s >> 8) ^ CRC_TABLES[0][((s ^ u32::from(b)) & 0xFF) as usize];
            }
        }
        s ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_words_match_bytewise_reference() {
        let mut rng = vapres_sim::rng::SplitMix64::new(0xC3C3_2024);
        let mut lens: Vec<usize> = vec![0, 1, 2, 3, 4, 41, 2_047];
        lens.extend((0..64).map(|_| rng.gen_usize(0..2_048)));
        for len in lens {
            let words: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
            let expect = bytewise_reference(&words);
            assert_eq!(crc_of_words(&words), expect, "update_words, {len} words");
            let mut single = Crc32::new();
            for &w in &words {
                single.update_word(w);
            }
            assert_eq!(single.value(), expect, "update_word, {len} words");
        }
    }

    #[test]
    fn generated_bitstreams_embed_unchanged_crc_words() {
        // Pinned from the bytewise implementation: the CRC word a
        // generated bitstream carries, and the FNV-1a of its bytes.
        use crate::stream::{ModuleUid, PartialBitstream};
        use vapres_fabric::geometry::{ClbRect, Device};
        let dev = Device::xc4vlx25();
        for (rect, uid, crc, fnv) in [
            (
                ClbRect::new(0, 9, 0, 15),
                1,
                0xBC7A_E5E5,
                0x7F1F_DAF0_849A_F87A,
            ),
            (
                ClbRect::new(0, 9, 16, 31),
                0xAB,
                0x04A3_1D93,
                0x6539_7936_578B_BB5E,
            ),
        ] {
            let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(uid)).unwrap();
            let words = bs.words();
            // ... CRC packet, CRC word, DESYNC packet + command, dummy.
            assert_eq!(words[words.len() - 4], crc, "uid {uid}");
            assert_eq!(vapres_sim::persist::fnv1a(&bs.to_bytes()), fnv, "uid {uid}");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = Crc32::new();
        c.update_words(&[9, 9, 9]);
        c.reset();
        assert_eq!(c.value(), Crc32::new().value());
    }
}
