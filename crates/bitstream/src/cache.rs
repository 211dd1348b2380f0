//! Staged-bitstream cache: dedup/RLE-compressed configuration streams
//! kept resident after their first use.
//!
//! The paper's own measurement says 95.3 % of `vapres_cf2icap`'s 1.043 s
//! is moving bitstream bytes off CompactFlash. A swap that repeats a
//! (source, PRR) pair pays that transfer again for bytes the system has
//! already seen — the cache removes it entirely: a hit replays the
//! staged stream straight into the ICAP, charging only the decode pass
//! ([`crate::timing::rle_decode_time`]) and the polled write itself.
//!
//! Entries are keyed by **(source name, target PRR)** — the PRR identity
//! is the encoded frame address of the first frame the stream configures
//! — and evicted in strict LRU order under an explicit capacity. Every
//! observable (hits, misses, evictions, bytes saved, compression ratio)
//! is a deterministic function of the access sequence, and the whole
//! cache implements [`Persist`] so staged state rides checkpoints
//! bit-exactly: a restored run hits and evicts exactly like the run that
//! never stopped.

use crate::packet::{self, ConfigReg, Packet};
use std::collections::{BTreeMap, HashMap};
use vapres_fabric::frame::FRAME_WORDS;
use vapres_sim::persist::{Persist, PersistError, Reader, Writer};
use vapres_sim::time::Ps;

/// One operation of a compressed configuration stream.
///
/// Non-payload words (packet headers, commands, FAR/CRC writes, dummies)
/// are kept verbatim; FDRI payload is chunked into frames, each stored
/// once — repeats become back-references, compressible frames become
/// run-length pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Words copied verbatim.
    Raw(Vec<u32>),
    /// A literal frame ([`FRAME_WORDS`] words).
    Frame(Vec<u32>),
    /// A frame stored as `(word, run_length)` pairs summing to
    /// [`FRAME_WORDS`].
    FrameRle(Vec<(u32, u32)>),
    /// A repeat of the n-th *distinct* frame of this stream.
    FrameRef(u32),
}

impl Op {
    /// Words of cache storage this op occupies.
    fn stored_words(&self) -> u64 {
        match self {
            Op::Raw(w) => w.len() as u64,
            Op::Frame(w) => w.len() as u64,
            Op::FrameRle(runs) => runs.len() as u64 * 2,
            Op::FrameRef(_) => 1,
        }
    }
}

impl Persist for Op {
    fn persist(&self, w: &mut Writer) {
        match self {
            Op::Raw(words) => {
                w.put_u8(0);
                words.persist(w);
            }
            Op::Frame(words) => {
                w.put_u8(1);
                words.persist(w);
            }
            Op::FrameRle(runs) => {
                w.put_u8(2);
                runs.persist(w);
            }
            Op::FrameRef(ord) => {
                w.put_u8(3);
                w.put_u32(*ord);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(Op::Raw(Vec::restore(r)?)),
            1 => Ok(Op::Frame(Vec::restore(r)?)),
            2 => Ok(Op::FrameRle(Vec::restore(r)?)),
            3 => Ok(Op::FrameRef(r.take_u32()?)),
            other => Err(PersistError::Corrupt(format!("cache op tag {other:#04x}"))),
        }
    }
}

/// A configuration word stream compressed by frame dedup + per-frame RLE.
///
/// Decompression is bit-exact: [`CompressedStream::decompress`] returns
/// the original word sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedStream {
    ops: Vec<Op>,
    raw_words: u64,
    stored_words: u64,
}

impl CompressedStream {
    /// Compresses a validated configuration stream.
    ///
    /// The packet walk is lenient (like the ICAP's failure recovery):
    /// anything that is not an FDRI payload region is stored verbatim, so
    /// compression never changes what a replay writes.
    pub fn compress(words: &[u32]) -> CompressedStream {
        let n = words.len();
        let mut ops: Vec<Op> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        let mut dedup: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut distinct = 0u32;
        let mut i = 0usize;

        let mut push_frames =
            |start: usize, end: usize, ops: &mut Vec<Op>, pending: &mut Vec<u32>| {
                let mut pos = start;
                while pos + FRAME_WORDS as usize <= end {
                    let chunk = &words[pos..pos + FRAME_WORDS as usize];
                    if !pending.is_empty() {
                        ops.push(Op::Raw(std::mem::take(pending)));
                    }
                    if let Some(&ord) = dedup.get(chunk) {
                        ops.push(Op::FrameRef(ord));
                    } else {
                        dedup.insert(chunk.to_vec(), distinct);
                        distinct += 1;
                        let runs = rle_runs(chunk);
                        if runs.len() * 2 < chunk.len() {
                            ops.push(Op::FrameRle(runs));
                        } else {
                            ops.push(Op::Frame(chunk.to_vec()));
                        }
                    }
                    pos += FRAME_WORDS as usize;
                }
                // A ragged tail (only possible in malformed streams) stays raw.
                pending.extend_from_slice(&words[pos..end]);
            };

        while i < n {
            match packet::decode(words[i]) {
                Some(Packet::Type1Write { reg, word_count }) => {
                    let end = (i + 1 + word_count as usize).min(n);
                    if reg == ConfigReg::Fdri && word_count > 0 {
                        pending.push(words[i]);
                        push_frames(i + 1, end, &mut ops, &mut pending);
                    } else {
                        pending.extend_from_slice(&words[i..end]);
                    }
                    i = end;
                }
                Some(Packet::Type2Write { word_count }) => {
                    let avail = n.saturating_sub(i + 1);
                    let payload = (word_count as usize).min(avail);
                    pending.push(words[i]);
                    push_frames(i + 1, i + 1 + payload, &mut ops, &mut pending);
                    i += 1 + payload;
                }
                _ => {
                    pending.push(words[i]);
                    i += 1;
                }
            }
        }
        if !pending.is_empty() {
            ops.push(Op::Raw(pending));
        }

        let stored_words = ops.iter().map(Op::stored_words).sum();
        CompressedStream {
            ops,
            raw_words: n as u64,
            stored_words,
        }
    }

    /// Expands back to the original word sequence.
    pub fn decompress(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.raw_words as usize);
        // Spans of the distinct frames already emitted, for back-refs.
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for op in &self.ops {
            match op {
                Op::Raw(words) => out.extend_from_slice(words),
                Op::Frame(words) => {
                    seen.push((out.len(), words.len()));
                    out.extend_from_slice(words);
                }
                Op::FrameRle(runs) => {
                    let start = out.len();
                    for &(word, count) in runs {
                        for _ in 0..count {
                            out.push(word);
                        }
                    }
                    seen.push((start, out.len() - start));
                }
                Op::FrameRef(ord) => {
                    let (start, len) = seen[*ord as usize];
                    for k in 0..len {
                        out.push(out[start + k]);
                    }
                }
            }
        }
        out
    }

    /// Words of the original (uncompressed) stream.
    pub fn raw_words(&self) -> u64 {
        self.raw_words
    }

    /// Words of cache storage the compressed form occupies.
    pub fn stored_words(&self) -> u64 {
        self.stored_words
    }
}

vapres_sim::persist_fields!(CompressedStream: ops, raw_words, stored_words);

/// Run-length pairs of a frame's words.
fn rle_runs(words: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &w in words {
        match runs.last_mut() {
            Some((word, count)) if *word == w => *count += 1,
            _ => runs.push((w, 1)),
        }
    }
    runs
}

/// Deterministic cache telemetry. All counters are monotonic and a pure
/// function of the access sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to storage.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted (first stagings and re-stagings).
    pub insertions: u64,
    /// Entries dropped because their backing file was re-provisioned.
    pub invalidations: u64,
    /// Storage-transfer bytes avoided by hits.
    pub bytes_saved: u64,
    /// Original words across all insertions (compression-ratio numerator).
    pub raw_words: u64,
    /// Stored words across all insertions (compression-ratio denominator).
    pub stored_words: u64,
}

impl CacheStats {
    /// Measured compression ratio across everything ever staged
    /// (original words / stored words); 1.0 while nothing is staged.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_words == 0 {
            1.0
        } else {
            self.raw_words as f64 / self.stored_words as f64
        }
    }
}

vapres_sim::persist_fields!(
    CacheStats: hits, misses, evictions, insertions, invalidations, bytes_saved, raw_words,
    stored_words
);

/// A successful cache lookup: the expanded stream plus what the replay
/// costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHit {
    /// The full configuration word stream, bit-identical to the staged
    /// original.
    pub words: Vec<u32>,
    /// Encoded frame address identifying the target PRR.
    pub far: u32,
    /// Words of the original stream.
    pub raw_words: u64,
    /// Words the decoder actually walked (compressed size).
    pub stored_words: u64,
}

impl CacheHit {
    /// Time to expand the staged entry back into configuration words.
    pub fn decode_time(&self) -> Ps {
        crate::timing::rle_decode_time(self.stored_words)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheEntry {
    stream: CompressedStream,
    /// LRU stamp: the monotonic tick of the last touch.
    stamp: u64,
}

vapres_sim::persist_fields!(CacheEntry: stream, stamp);

/// The LRU staged-bitstream cache.
///
/// # Examples
///
/// ```
/// use vapres_bitstream::cache::BitstreamCache;
/// use vapres_bitstream::stream::{ModuleUid, PartialBitstream};
/// use vapres_fabric::geometry::{ClbRect, Device};
///
/// let dev = Device::xc4vlx25();
/// let prr = ClbRect::new(0, 9, 0, 15);
/// let bs = PartialBitstream::generate(&dev, &prr, ModuleUid(9))?;
///
/// let mut cache = BitstreamCache::new(4);
/// assert!(cache.lookup("fir.bit").is_none()); // cold: miss
/// cache.insert("fir.bit", 0, bs.words());
/// let hit = cache.lookup("fir.bit").expect("staged");
/// assert_eq!(hit.words, bs.words()); // bit-identical replay
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitstreamCache {
    capacity: usize,
    entries: BTreeMap<(String, u32), CacheEntry>,
    tick: u64,
    stats: CacheStats,
}

impl BitstreamCache {
    /// An empty cache holding at most `capacity` staged streams.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity cache is "no
    /// cache"; model that by not constructing one.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        BitstreamCache {
            capacity,
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running telemetry counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a staged stream by source name, expanding it on a hit.
    /// Counts a hit or a miss either way and refreshes the LRU stamp.
    pub fn lookup(&mut self, name: &str) -> Option<CacheHit> {
        let key = self
            .entries
            .range((name.to_string(), 0)..=(name.to_string(), u32::MAX))
            .map(|(k, _)| k.clone())
            .next();
        match key {
            Some(key) => {
                self.tick += 1;
                let entry = self.entries.get_mut(&key).expect("keyed entry");
                entry.stamp = self.tick;
                let hit = CacheHit {
                    words: entry.stream.decompress(),
                    far: key.1,
                    raw_words: entry.stream.raw_words(),
                    stored_words: entry.stream.stored_words(),
                };
                self.stats.hits += 1;
                self.stats.bytes_saved += hit.raw_words * 4;
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stages a validated stream under `(name, far)`, compressing it and
    /// evicting the least-recently-used entry if the cache is full.
    pub fn insert(&mut self, name: &str, far: u32, words: &[u32]) {
        let key = (name.to_string(), far);
        while !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // The stamp is a strictly monotonic tick, so the minimum is
            // unique and eviction order is deterministic.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty cache over capacity");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        let stream = CompressedStream::compress(words);
        self.stats.insertions += 1;
        self.stats.raw_words += stream.raw_words();
        self.stats.stored_words += stream.stored_words();
        self.tick += 1;
        self.entries.insert(
            key,
            CacheEntry {
                stream,
                stamp: self.tick,
            },
        );
    }

    /// Drops every entry staged from `name` — called when the backing
    /// file is re-provisioned, so a stale hit can never configure the
    /// old module. Returns how many entries were dropped.
    pub fn invalidate(&mut self, name: &str) -> usize {
        let keys: Vec<(String, u32)> = self
            .entries
            .range((name.to_string(), 0)..=(name.to_string(), u32::MAX))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &keys {
            self.entries.remove(k);
        }
        self.stats.invalidations += keys.len() as u64;
        keys.len()
    }

    /// Drops everything (bulk re-provisioning with unknown names).
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Names and stamps of resident entries in LRU order (oldest first)
    /// — the observable eviction queue, for tests and reports.
    pub fn lru_order(&self) -> Vec<String> {
        let mut v: Vec<(&u64, &str)> = self
            .entries
            .iter()
            .map(|((name, _), e)| (&e.stamp, name.as_str()))
            .collect();
        v.sort();
        v.into_iter().map(|(_, name)| name.to_string()).collect()
    }
}

impl Persist for BitstreamCache {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.capacity);
        w.put_u64(self.tick);
        self.stats.persist(w);
        self.entries.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let capacity = r.take_usize()?;
        if capacity == 0 {
            return Err(PersistError::Corrupt("zero cache capacity".into()));
        }
        Ok(BitstreamCache {
            capacity,
            tick: r.take_u64()?,
            stats: CacheStats::restore(r)?,
            entries: BTreeMap::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{ModuleUid, PartialBitstream};
    use vapres_fabric::geometry::{ClbRect, Device};

    fn proto_words(uid: u32) -> Vec<u32> {
        let dev = Device::xc4vlx25();
        let prr = ClbRect::new(0, 9, 0, 15);
        PartialBitstream::generate(&dev, &prr, ModuleUid(uid))
            .unwrap()
            .words()
            .to_vec()
    }

    #[test]
    fn compress_roundtrip_is_bit_exact() {
        let words = proto_words(0xBEEF);
        let c = CompressedStream::compress(&words);
        assert_eq!(c.decompress(), words);
        assert_eq!(c.raw_words(), words.len() as u64);
    }

    #[test]
    fn repeated_frames_dedup() {
        // A synthetic stream whose FDRI payload repeats one frame: the
        // dedup layer must store it once and back-reference the rest.
        let frame: Vec<u32> = (0..FRAME_WORDS).map(|i| 0x1000 + i).collect();
        let mut words = vec![packet::type2_write(FRAME_WORDS * 4)];
        for _ in 0..4 {
            words.extend_from_slice(&frame);
        }
        let c = CompressedStream::compress(&words);
        assert_eq!(c.decompress(), words);
        // 1 header + 1 literal frame + 3 one-word refs.
        assert!(
            c.stored_words() < c.raw_words() / 2,
            "stored {} raw {}",
            c.stored_words(),
            c.raw_words()
        );
    }

    #[test]
    fn constant_frames_rle() {
        let mut words = vec![packet::type2_write(FRAME_WORDS)];
        words.extend(std::iter::repeat_n(0u32, FRAME_WORDS as usize));
        let c = CompressedStream::compress(&words);
        assert_eq!(c.decompress(), words);
        // Header (1) + one (0, 41) run pair (2).
        assert_eq!(c.stored_words(), 3);
    }

    #[test]
    fn ragged_tail_stays_raw_and_roundtrips() {
        // Type-2 claiming more words than exist: lenient walk, raw tail.
        let words = vec![packet::type2_write(500), 1, 2, 3];
        let c = CompressedStream::compress(&words);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn hit_serves_bit_identical_words() {
        let words = proto_words(7);
        let mut cache = BitstreamCache::new(2);
        assert!(cache.lookup("a.bit").is_none());
        cache.insert("a.bit", 0x42, &words);
        let hit = cache.lookup("a.bit").expect("staged entry");
        assert_eq!(hit.words, words);
        assert_eq!(hit.far, 0x42);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().bytes_saved, words.len() as u64 * 4);
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let words = proto_words(1);
        let mut cache = BitstreamCache::new(2);
        cache.insert("a", 0, &words);
        cache.insert("b", 0, &words);
        // Touch "a" so "b" is now least recently used.
        cache.lookup("a").unwrap();
        cache.insert("c", 0, &words);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("b").is_none(), "b was LRU, must be evicted");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
        assert_eq!(cache.lru_order(), vec!["a", "c"]);
    }

    #[test]
    fn invalidation_drops_stale_entries() {
        let words = proto_words(1);
        let mut cache = BitstreamCache::new(4);
        cache.insert("a", 0, &words);
        cache.insert("b", 0, &words);
        assert_eq!(cache.invalidate("a"), 1);
        assert!(cache.lookup("a").is_none());
        assert!(cache.lookup("b").is_some());
        assert_eq!(cache.invalidate("nope"), 0);
        assert_eq!(cache.stats().invalidations, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn persist_roundtrip_preserves_lru_and_stats() {
        let mut cache = BitstreamCache::new(3);
        cache.insert("a", 0, &proto_words(1));
        cache.insert("b", 0, &proto_words(2));
        cache.lookup("a");
        cache.lookup("missing");
        let mut w = Writer::new();
        cache.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut restored = BitstreamCache::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored, cache);
        // The restored cache continues the exact access sequence: same
        // hit, same stamps, same future eviction decisions.
        let a = cache.lookup("a").unwrap();
        let b = restored.lookup("a").unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.lru_order(), restored.lru_order());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = BitstreamCache::new(0);
    }

    #[test]
    fn reuse_hit_rate_reproduces() {
        // E10-style reuse: a working set of 2 sources cycled 10 times
        // through a capacity-2 cache — everything after the two cold
        // misses hits; a 3-source cycle through the same cache thrashes.
        let words = proto_words(9);
        let mut cache = BitstreamCache::new(2);
        for _ in 0..10 {
            for name in ["a", "b"] {
                if cache.lookup(name).is_none() {
                    cache.insert(name, 0, &words);
                }
            }
        }
        assert_eq!(cache.stats().hits, 18);
        assert_eq!(cache.stats().misses, 2);

        let mut thrash = BitstreamCache::new(2);
        for _ in 0..10 {
            for name in ["a", "b", "c"] {
                if thrash.lookup(name).is_none() {
                    thrash.insert(name, 0, &words);
                }
            }
        }
        // Cyclic access one past capacity under LRU: zero hits, ever.
        assert_eq!(thrash.stats().hits, 0);
        assert_eq!(thrash.stats().misses, 30);
    }
}
