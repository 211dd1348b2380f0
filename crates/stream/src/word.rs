//! Stream words.
//!
//! The paper's communication channels carry `w`-bit data words, bit-extended
//! by the producer interface with the negated FIFO-empty flag (the validity
//! MSB). A second in-band control marker — the *end-of-stream* word the
//! switching methodology relies on (Fig. 5, step 5) — is modelled as a flag
//! rather than stealing the all-ones data value, so user data is
//! unrestricted.

use std::fmt;
use std::hash::{Hash, Hasher};

/// The data value the paper uses for its end-of-stream word
/// ("(32 bits)" of ones in the text).
pub const EOS_DATA: u32 = 0xFFFF_FFFF;

/// One 32-bit stream word plus the end-of-stream control marker.
///
/// A word may additionally carry a *trace tag* — a sequence number
/// attached by an observability layer to follow this word through the
/// fabric. The tag is sideband metadata, not payload: it does not exist
/// on the modelled hardware, so equality and hashing deliberately
/// ignore it (a tagged word is the same word).
///
/// # Examples
///
/// ```
/// use vapres_stream::word::Word;
///
/// let w = Word::data(7);
/// assert_eq!(w.data, 7);
/// assert!(!w.end_of_stream);
/// let e = Word::end_of_stream();
/// assert!(e.end_of_stream);
/// assert_eq!(w.with_tag(Some(3)), w); // tags are invisible to equality
/// ```
#[derive(Debug, Clone, Copy, Eq)]
pub struct Word {
    /// The payload bits.
    pub data: u32,
    /// Whether this word is the end-of-stream marker.
    pub end_of_stream: bool,
    /// Observability sequence tag (sideband; excluded from `==`/`Hash`).
    tag: Option<u32>,
}

impl PartialEq for Word {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.end_of_stream == other.end_of_stream
    }
}

impl Hash for Word {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
        self.end_of_stream.hash(state);
    }
}

impl Word {
    /// A plain data word.
    pub const fn data(data: u32) -> Self {
        Word {
            data,
            end_of_stream: false,
            tag: None,
        }
    }

    /// The end-of-stream marker word.
    pub const fn end_of_stream() -> Self {
        Word {
            data: EOS_DATA,
            end_of_stream: true,
            tag: None,
        }
    }

    /// The same word carrying `tag` as its trace tag.
    pub const fn with_tag(mut self, tag: Option<u32>) -> Self {
        self.tag = tag;
        self
    }

    /// The trace tag, if an observability layer attached one.
    pub const fn tag(&self) -> Option<u32> {
        self.tag
    }
}

// The sideband trace tag survives a snapshot: word-tap latency
// accounting downstream of a restore depends on it.
vapres_sim::persist_fields!(Word: data, end_of_stream, tag);

impl From<u32> for Word {
    fn from(data: u32) -> Self {
        Word::data(data)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end_of_stream {
            write!(f, "EOS")
        } else {
            write!(f, "{:#010x}", self.data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(Word::from(5), Word::data(5));
        assert_eq!(Word::end_of_stream().data, EOS_DATA);
    }

    #[test]
    fn display() {
        assert_eq!(Word::data(0xAB).to_string(), "0x000000ab");
        assert_eq!(Word::end_of_stream().to_string(), "EOS");
    }

    #[test]
    fn eos_flag_distinguishes_all_ones_data() {
        // A data word of all ones is NOT end of stream.
        let w = Word::data(EOS_DATA);
        assert!(!w.end_of_stream);
        assert_ne!(w, Word::end_of_stream());
    }

    #[test]
    fn tags_are_sideband_metadata() {
        let plain = Word::data(9);
        let tagged = Word::data(9).with_tag(Some(4));
        assert_eq!(tagged.tag(), Some(4));
        assert_eq!(plain.tag(), None);
        // Equality and hashing see through the tag.
        assert_eq!(plain, tagged);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |w: &Word| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&plain), hash(&tagged));
        // Clearing a tag round-trips.
        assert_eq!(tagged.with_tag(None).tag(), None);
    }
}
