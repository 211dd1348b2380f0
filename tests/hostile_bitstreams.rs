//! Hostile bitstreams: seeded mutants of a generated FIR B image — bit
//! flips, truncations, inflated packet word counts and splices with a
//! second valid image — must each be rejected with a typed error and
//! never panic, both by the packet parser
//! (`PartialBitstream::from_bytes`) and by a prototype system's ICAP
//! path (`cf_store_raw` + `vapres_cf2icap`).
//!
//! The budget is fixed and the mutator is a seeded `SplitMix64`, so every
//! run feeds the decoders the same inputs. A mutant that ever crashes a
//! decoder becomes a committed test case of its own (none has so far).

use std::panic::{catch_unwind, AssertUnwindSafe};

use vapres::bitstream::packet::{self, Packet, DUMMY_WORD, SYNC_WORD, TYPE1_MAX_WORDS};
use vapres::bitstream::PartialBitstream;
use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::system::VapresSystem;
use vapres::core::SplitMix64;
use vapres::modules::{register_standard_modules, uids};

/// Mutants fed to the packet parser.
const PARSER_MUTANTS: usize = 4_000;
/// Of those, the mutants also pushed through a live system's ICAP path.
const ICAP_MUTANTS: usize = 300;

const SEED: u64 = 0xB175_7EA3;

fn prototype() -> VapresSystem {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    VapresSystem::new(SystemConfig::prototype(), lib).unwrap()
}

fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Word offsets of every packet header of a well-formed image, found by
/// walking it as the parser does.
fn packet_headers(bytes: &[u8]) -> Vec<usize> {
    let w = words(bytes);
    let mut i = w.iter().position(|&x| x == SYNC_WORD).expect("sync word") + 1;
    let mut headers = Vec::new();
    while i < w.len() {
        if w[i] == DUMMY_WORD {
            i += 1;
            continue;
        }
        let pkt = packet::decode(w[i]).expect("a generated image is well formed");
        headers.push(i);
        i += 1;
        if let Packet::Type1Write { word_count, .. } | Packet::Type2Write { word_count } = pkt {
            i += word_count as usize;
        }
    }
    headers
}

/// The `index`th mutant of `seed`: its bytes and a description of what
/// was done to the original.
fn mutant(
    seed: u64,
    index: usize,
    original: &[u8],
    other: &[u8],
    headers: &[usize],
) -> (String, Vec<u8>) {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut m = original.to_vec();
    let what = match index % 4 {
        0 => {
            let flips = 1 + rng.gen_usize(0..4);
            let bits: Vec<usize> = (0..flips).map(|_| rng.gen_usize(0..m.len() * 8)).collect();
            for &bit in &bits {
                m[bit / 8] ^= 1 << (bit % 8);
            }
            format!("bit flips {bits:?}")
        }
        1 => {
            let len = rng.gen_usize(0..m.len());
            m.truncate(len);
            format!("truncated to {len} bytes")
        }
        2 => {
            // Inflate one packet's word count past what follows it.
            let at = headers[rng.gen_usize(0..headers.len())];
            let header = words(&m)[at];
            let inflated = match packet::decode(header) {
                Some(Packet::Type2Write { word_count }) => {
                    let room = 0x07FF_FFFF - word_count;
                    (header & !0x07FF_FFFF)
                        | (word_count + 1 + rng.gen_usize(0..room as usize) as u32)
                }
                _ => header | TYPE1_MAX_WORDS,
            };
            m[at * 4..at * 4 + 4].copy_from_slice(&inflated.to_le_bytes());
            format!("header at word {at}: {header:#010x} -> {inflated:#010x}")
        }
        _ => {
            // The head of this image joined to the tail of another.
            let cut = 1 + rng.gen_usize(0..m.len() - 1);
            let from = rng.gen_usize(0..other.len());
            m.truncate(cut);
            m.extend_from_slice(&other[from..]);
            format!("spliced [..{cut}] + other[{from}..]")
        }
    };
    (what, m)
}

/// Feeds the first `count` mutants of `seed` through the parser, and the
/// first [`ICAP_MUTANTS`] of them through the ICAP path too. Returns each
/// mutant that was accepted or panicked, with what was done to it.
fn check(seed: u64, count: usize) -> Vec<String> {
    let mut sys = prototype();
    let original = sys.bitstream_for(1, uids::FIR_B).unwrap().to_bytes();
    let other = sys.bitstream_for(0, uids::FIR_A).unwrap().to_bytes();
    assert!(PartialBitstream::from_bytes(&original).is_ok());
    let headers = packet_headers(&original);
    assert!(headers.len() > 4, "{headers:?}");

    let mut bad = Vec::new();
    for index in 0..count {
        let (what, m) = mutant(seed, index, &original, &other, &headers);
        if m == original || m == other {
            continue;
        }
        match catch_unwind(|| PartialBitstream::from_bytes(&m)) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => bad.push(format!("parser accepted mutant {index} ({what})")),
            Err(_) => bad.push(format!("parser panicked on mutant {index} ({what})")),
        }
        if index < ICAP_MUTANTS {
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                sys.cf_store_raw("mutant.bit", m.clone());
                sys.vapres_cf2icap("mutant.bit")
            }));
            match loaded {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => bad.push(format!("ICAP configured mutant {index} ({what})")),
                Err(_) => {
                    bad.push(format!("ICAP path panicked on mutant {index} ({what})"));
                    sys = prototype();
                }
            }
        }
    }
    bad
}

#[test]
fn seeded_bitstream_mutants_fail_typed() {
    let bad = check(SEED, PARSER_MUTANTS);
    assert!(
        bad.is_empty(),
        "{} of {PARSER_MUTANTS}:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
