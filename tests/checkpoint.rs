//! Bit-exact checkpoint/restore of the whole system.
//!
//! The snapshot seam's contract is *restore ≡ never-stopped*: a system
//! checkpointed at an arbitrary API boundary, serialized to bytes,
//! restored into a fresh `VapresSystem`, and driven forward must be
//! indistinguishable — in every observable — from the original system
//! driven forward without interruption. These tests prove that on the
//! paper's E3 switching scenario (seamless, halt-and-swap, and a
//! fault-corrupted bitstream), at randomized checkpoint boundaries, with
//! every observation channel enabled: IOM output words with picosecond
//! timestamps, telemetry JSONL, flight-recorder JSONL, the word-trace
//! latency tape, and the VCD signal trace.
//!
//! A second property locks the codec itself: `checkpoint → restore →
//! checkpoint` is byte-identical (canonical-form serialization), and
//! snapshots refuse to restore across format versions or configuration
//! fingerprints.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::switching::{halt_and_swap, seamless_swap, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::{Ps, SplitMix64};
use vapres::kpn::e3::{swap_spec, Arrangement};
use vapres::modules::{register_standard_modules, uids};
use vapres::sim::persist::{fnv1a, PersistError, FORMAT_VERSION, MAGIC};

/// External ADC sample interval in fabric cycles.
const SAMPLE_INTERVAL: u64 = 200;
const N_SAMPLES: u32 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Seamless,
    Halt,
    /// Seamless attempt against a bit-flipped FIR B image: the swap
    /// fails at ICAP validation and the original module keeps running.
    SeamlessFault,
}

fn library() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    lib
}

/// Builds the E3 arrangement with every observation channel on:
/// IOM ⇄ FIR A on PRR 0, FIR B staged in SDRAM (corrupted for
/// [`Method::SeamlessFault`]), channels routed, nodes up, input fed.
fn e3_system(method: Method) -> (VapresSystem, SwapSpec) {
    let mut sys = VapresSystem::new(SystemConfig::prototype(), library()).unwrap();
    sys.enable_telemetry();
    sys.enable_flight_recorder(512);
    sys.enable_word_trace(5);
    sys.enable_tracing();
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    let fir_b_prr = if method == Method::Halt { 0 } else { 1 };
    let staged = [(fir_b_prr, uids::FIR_B, "fir_b.bit", "fir_b")];
    let channels = Arrangement {
        fir_a: "fir_a.bit",
        staged: &staged,
    }
    .deploy_mutated(&mut sys, |images| {
        if method == Method::SeamlessFault {
            images[0][7] ^= 0x10;
        }
    })
    .unwrap();
    sys.iom_feed(0, 0..N_SAMPLES);
    (sys, swap_spec(1, 2, "fir_b", channels))
}

/// Drives a system from an arbitrary point to the end of the scenario:
/// the swap, then a drain, then a settle.
fn finish(sys: &mut VapresSystem, spec: &SwapSpec, method: Method) {
    let swapped = match method {
        Method::Halt => halt_and_swap(sys, spec),
        _ => seamless_swap(sys, spec),
    };
    match method {
        Method::SeamlessFault => assert!(swapped.is_err(), "corrupted image must fail"),
        _ => {
            swapped.unwrap();
        }
    }
    sys.run_until(Ps::from_ms(100), |s| s.iom_pending_input(0) == 0);
    sys.run_for(Ps::from_us(50));
}

/// Every observable the simulator exposes, folded into one string.
fn observables(sys: &mut VapresSystem) -> String {
    let mut out = String::new();
    out.push_str(&format!("now={}\n", sys.now().as_ps()));
    out.push_str(&format!("outputs={:?}\n", sys.iom_output(0)));
    out.push_str(&format!("gap={:?}\n", sys.iom_gap(0)));
    let wt = sys.word_trace().expect("word trace enabled");
    out.push_str(&format!(
        "word_trace tagged={} completed={} latencies={:?}\n",
        wt.tagged(),
        wt.completed(),
        wt.latencies_ps()
    ));
    let mut buf = Vec::new();
    sys.snapshot_metrics()
        .unwrap()
        .write_jsonl(&mut buf)
        .unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    let mut buf = Vec::new();
    sys.flight().unwrap().write_jsonl(&mut buf).unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    let mut buf = Vec::new();
    sys.tracer().unwrap().write_vcd(&mut buf).unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    out
}

/// The golden equivalence: checkpoint at a randomized mid-stream
/// boundary, restore into a fresh system, run both to the end of the
/// scenario — every observable must match bit for bit.
fn assert_restore_equivalent(method: Method, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (mut reference, spec) = e3_system(method);
    // A randomized prefix: somewhere between "barely started" and "well
    // into the stream" (the stream runs ~N_SAMPLES × SAMPLE_INTERVAL
    // fabric cycles at 100 MHz ≈ 4 ms).
    let prefix_us = 100 + rng.gen_usize(0..2_000) as u64;
    reference.run_for(Ps::from_us(prefix_us));

    let bytes = reference.checkpoint();
    let mut restored = VapresSystem::restore(SystemConfig::prototype(), library(), &bytes)
        .expect("snapshot restores into its own configuration");

    // Interleave a second randomized leg before finishing, to exercise
    // the restored event queue mid-flight rather than only at the end.
    let leg_us = 1 + rng.gen_usize(0..500) as u64;
    reference.run_for(Ps::from_us(leg_us));
    restored.run_for(Ps::from_us(leg_us));

    finish(&mut reference, &spec, method);
    finish(&mut restored, &spec, method);

    assert_eq!(
        observables(&mut reference),
        observables(&mut restored),
        "{method:?} (seed {seed}, prefix {prefix_us} µs): restore diverged from never-stopped"
    );
}

#[test]
fn restore_equivalence_seamless() {
    for seed in [1, 2, 3] {
        assert_restore_equivalent(Method::Seamless, seed);
    }
}

#[test]
fn restore_equivalence_halt() {
    for seed in [4, 5, 6] {
        assert_restore_equivalent(Method::Halt, seed);
    }
}

#[test]
fn restore_equivalence_faulty_swap() {
    for seed in [7, 8, 9] {
        assert_restore_equivalent(Method::SeamlessFault, seed);
    }
}

/// Canonical-form property: `checkpoint → restore → checkpoint` is
/// byte-identical at randomized points all through the scenario,
/// including immediately after the swap itself.
#[test]
fn checkpoint_restore_checkpoint_is_byte_identical() {
    for seed in 10..14u64 {
        let mut rng = SplitMix64::new(seed);
        let (mut sys, spec) = e3_system(Method::Seamless);
        for step in 0..4 {
            sys.run_for(Ps::from_us(10 + rng.gen_usize(0..800) as u64));
            if step == 2 {
                seamless_swap(&mut sys, &spec).unwrap();
            }
            let first = sys.checkpoint();
            let mut restored =
                VapresSystem::restore(SystemConfig::prototype(), library(), &first).unwrap();
            let second = restored.checkpoint();
            assert_eq!(
                first, second,
                "re-encode differs (seed {seed}, step {step}): non-canonical state survived"
            );
            // Keep driving the *restored* system so later steps also
            // prove the restored image is itself checkpointable.
            sys = restored;
        }
    }
}

/// Checkpoints taken while the fabric holds FIFO crossings the ring has
/// not absorbed yet — a few, and more than the ring's 512 entries: the
/// image stores each crossing once, in the ring, and the restored run
/// matches the never-stopped one.
#[test]
fn checkpoint_with_buffered_crossings_matches_never_stopped() {
    for quiet_us in [5, 1_500] {
        let (mut reference, spec) = e3_system(Method::Seamless);
        let setup = reference.flight().unwrap().total_recorded();
        reference.run_for(Ps::from_us(quiet_us));
        let bytes = reference.checkpoint();
        let mut restored = VapresSystem::restore(SystemConfig::prototype(), library(), &bytes)
            .expect("snapshot restores into its own configuration");
        let recorded = reference.flight().unwrap().total_recorded();
        assert_eq!(restored.flight().unwrap().total_recorded(), recorded);
        if quiet_us > 1_000 {
            assert!(recorded - setup > 512, "{} crossings", recorded - setup);
        }
        finish(&mut reference, &spec, Method::Seamless);
        finish(&mut restored, &spec, Method::Seamless);
        assert_eq!(
            observables(&mut reference),
            observables(&mut restored),
            "quiet {quiet_us} µs: restore diverged from never-stopped"
        );
    }
}

/// The encoding itself, pinned: length and FNV-1a of E3 images at three
/// fixed points — mid-stream before the swap (IOM and fabric timers
/// pending), right after the seamless swap, and after the drain. A
/// scheduler or codec refactor that claims "same format" must keep these;
/// a deliberate encoding change updates them and says why. v5 moved the
/// image into a container section (+13 bytes: section count, tag and
/// length); the fingerprint and body bytes after them did not change.
/// v6 (+31 bytes) keeps executor ticks per component instead of per
/// domain (+8 × 4 components, −8 × 3 domains), adds the swap-step, CF
/// and SDRAM byte counters (+24), and drops the profiler slot (−1).
#[test]
fn e3_checkpoint_images_are_pinned() {
    let (mut sys, spec) = e3_system(Method::Seamless);
    let mut images = Vec::new();
    sys.run_for(Ps::from_us(317));
    images.push(sys.checkpoint());
    seamless_swap(&mut sys, &spec).unwrap();
    images.push(sys.checkpoint());
    sys.run_until(Ps::from_ms(100), |s| s.iom_pending_input(0) == 0);
    sys.run_for(Ps::from_us(50));
    images.push(sys.checkpoint());
    let got: Vec<(usize, u64)> = images.iter().map(|b| (b.len(), fnv1a(b))).collect();
    let pinned: [(usize, u64); 3] = [
        (210_152, 0x962b_8594_71b8_8f42),
        (639_219, 0x4e46_9355_1848_ff91),
        (639_219, 0xa28f_d299_021d_35dc),
    ];
    assert_eq!(got, pinned, "E3 checkpoint encoding moved");
}

#[test]
fn restore_rejects_version_mismatch() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let image = sys.checkpoint();
    // Header layout: 8 magic bytes, the format version (LE u32), then the
    // section count. A v5 image (with a profiler slot and per-domain
    // executor ticks) and a newer one both fail on the version alone.
    assert_eq!(FORMAT_VERSION, 6);
    for version in [5, FORMAT_VERSION + 1] {
        let mut bytes = image.clone();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        match VapresSystem::restore(SystemConfig::prototype(), library(), &bytes) {
            Err(PersistError::VersionMismatch { found, expected }) => {
                assert_eq!(found, version);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }
}

#[test]
fn restore_rejects_config_fingerprint_mismatch() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let bytes = sys.checkpoint();
    let mut other_cfg = SystemConfig::prototype();
    other_cfg.fsl_depth = 64;
    other_cfg.validate().unwrap();
    match VapresSystem::restore(other_cfg, library(), &bytes) {
        Err(PersistError::FingerprintMismatch { found, expected }) => {
            assert_ne!(found, expected);
            assert_eq!(found, SystemConfig::prototype().fingerprint());
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn restore_rejects_bad_magic_and_truncation() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let bytes = sys.checkpoint();

    let mut garbled = bytes.clone();
    garbled[0] ^= 0xFF;
    assert!(matches!(
        VapresSystem::restore(SystemConfig::prototype(), library(), &garbled),
        Err(PersistError::BadMagic)
    ));
    // The retired CLI and fleet envelopes are not read either.
    for magic in [b"VAPRESRP", b"VAPRESFL"] {
        let mut old = bytes.clone();
        old[..MAGIC.len()].copy_from_slice(magic);
        assert!(matches!(
            VapresSystem::restore(SystemConfig::prototype(), library(), &old),
            Err(PersistError::BadMagic)
        ));
    }

    let truncated = &bytes[..bytes.len() / 2];
    assert!(VapresSystem::restore(SystemConfig::prototype(), library(), truncated).is_err());
}

// ---------------------------------------------------------------------------
// restore ≡ never-stopped through the library E3 driver: every image a
// driven run cuts, resumed through `Drive::resume`, finishes as that run.
// ---------------------------------------------------------------------------

use vapres::core::scenario::SwapMethod;
use vapres::kpn::e3::{Checkpoints, Drive, DriveError};

/// How a driven run ended: the IOM output, the swap report, the drive's
/// result and the telemetry JSONL.
fn driven_outcome(sys: &mut VapresSystem, drive: &Drive, result: Result<(), DriveError>) -> String {
    let mut jsonl = Vec::new();
    sys.snapshot_metrics()
        .unwrap()
        .write_jsonl(&mut jsonl)
        .unwrap();
    format!(
        "now={}\noutputs={:?}\nreport={:?}\nresult={:?}\n{}",
        sys.now().as_ps(),
        sys.iom_output(0),
        drive.report,
        result.map_err(|e| e.to_string()),
        String::from_utf8(jsonl).unwrap()
    )
}

#[test]
fn every_driven_checkpoint_resumes_to_the_run_that_wrote_it() {
    for (method, fail_swap) in [
        (SwapMethod::Seamless, false),
        (SwapMethod::Halt, false),
        (SwapMethod::Seamless, true),
    ] {
        let arrangement = Arrangement::fig5(method);
        let mut sys = VapresSystem::new(SystemConfig::prototype(), library()).unwrap();
        sys.enable_telemetry();
        sys.iom_set_input_interval(0, 500);
        let channels = arrangement.deploy(&mut sys).unwrap();
        sys.iom_feed(0, 0..2_000);
        let mut drive = Drive {
            fail_swap,
            ..Drive::e3(method, channels)
        };
        let mut images = Vec::new();
        let mut keep = |_: u64, image: Vec<u8>, _: Ps| {
            images.push(image);
            Ok(())
        };
        let mut sink = Checkpoints::new(Ps::from_us(300), &mut keep);
        let result = drive.run(&mut sys, &arrangement, Some(&mut sink));
        assert_eq!(result.is_err(), fail_swap, "{result:?}");
        let golden = driven_outcome(&mut sys, &drive, result);
        // One cut after each 300 µs slice of the 1 ms pre-swap window, one
        // right after a swap that succeeded, and one per drain slice the
        // stream is still draining after it.
        assert!(
            images.len() >= if fail_swap { 4 } else { 5 },
            "{}",
            images.len()
        );
        for (i, image) in images.iter().enumerate() {
            let (mut restored, mut resumed) =
                Drive::resume(SystemConfig::prototype(), library(), image).unwrap();
            assert_eq!(resumed.ordinal, i as u64);
            // The resumed run slices as the run that wrote the image did:
            // a slice boundary costs executor ticks, which telemetry counts.
            let mut discard = |_: u64, _: Vec<u8>, _: Ps| Ok(());
            let mut sink = Checkpoints::new(Ps::from_us(300), &mut discard);
            let result = resumed.run(&mut restored, &arrangement, Some(&mut sink));
            assert_eq!(
                driven_outcome(&mut restored, &resumed, result),
                golden,
                "{method:?} (fail_swap {fail_swap}): image {i} diverged from never-stopped"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet-scale golden equivalence: restore ≡ never-stopped for a 3-RSB
// `FleetSystem`.
// ---------------------------------------------------------------------------

use std::sync::Arc;

use vapres::core::{ChannelId, FleetSystem, Freq, ShardPlan, SharedRegister};

const FLEET_RSBS: usize = 3;

/// Three deliberately heterogeneous RSBs: the middle one runs its whole
/// clock tree at half speed, so lockstep alignment has real work to do.
fn fleet_configs() -> Vec<SystemConfig> {
    let mut slow = SystemConfig::prototype();
    slow.static_clock = Freq::mhz(50);
    slow.prr_clock_menu = [Freq::mhz(50), Freq::mhz(25)];
    vec![SystemConfig::prototype(), slow, SystemConfig::prototype()]
}

/// FIR A live on PRR 0 and FIR B staged for the spare PRR 1.
const FLEET_E3: Arrangement<'static> = Arrangement {
    fir_a: "fir_a.bit",
    staged: &[(1, uids::FIR_B, "fir_b.bit", "fir_b")],
};

fn fleet_register() -> SharedRegister {
    Arc::new(|lib: &mut ModuleLibrary| register_standard_modules(lib, 0))
}

/// Per-RSB E3 arrangement with every checkpointable observation channel
/// on, plus a heterogeneous input stream. Returns each RSB's
/// (upstream, downstream) channel ids for the swap leg.
fn fleet_e3_setup(m: &mut FleetSystem) -> Vec<(ChannelId, ChannelId)> {
    (0..FLEET_RSBS)
        .map(|rsb| {
            m.with_rsb(rsb, move |sys| {
                sys.enable_telemetry();
                sys.enable_flight_recorder(512);
                sys.enable_word_trace(5);
                sys.iom_set_input_interval(0, 150 + 50 * rsb as u64);
                let channels = FLEET_E3.deploy(sys).unwrap();
                sys.iom_feed(0, 0..(400 + 100 * rsb as u32));
                channels
            })
        })
        .collect()
}

/// The post-checkpoint leg: a streaming stretch, one seamless swap per
/// RSB, then a sliced drain and settle.
fn fleet_drive_leg(m: &mut FleetSystem, channels: &[(ChannelId, ChannelId)]) {
    m.run_for(Ps::from_us(200));
    for (rsb, &channels) in channels.iter().enumerate() {
        m.with_rsb(rsb, |sys| {
            seamless_swap(sys, &swap_spec(1, 2, "fir_b", channels)).map(|_| ())
        })
        .unwrap();
        m.run_for(Ps::from_us(150));
    }
    for _ in 0..60 {
        let done = (0..FLEET_RSBS).all(|rsb| m.with_rsb(rsb, |s| s.iom_pending_input(0) == 0));
        if done {
            break;
        }
        m.run_for(Ps::from_ms(1));
    }
    m.run_for(Ps::from_us(50));
}

/// Every per-RSB observable, folded into one comparable string.
fn fleet_observables(m: &mut FleetSystem) -> String {
    let mut out = String::new();
    for rsb in 0..FLEET_RSBS {
        let per = m.with_rsb(rsb, |sys| {
            let mut s = String::new();
            s.push_str(&format!("rsb={rsb} now={}\n", sys.now().as_ps()));
            s.push_str(&format!("outputs={:?}\n", sys.iom_output(0)));
            s.push_str(&format!("gap={:?}\n", sys.iom_gap(0)));
            let wt = sys.word_trace().expect("word trace enabled");
            s.push_str(&format!(
                "word_trace tagged={} completed={} latencies={:?}\n",
                wt.tagged(),
                wt.completed(),
                wt.latencies_ps()
            ));
            let mut buf = Vec::new();
            sys.snapshot_metrics()
                .unwrap()
                .write_jsonl(&mut buf)
                .unwrap();
            s.push_str(&String::from_utf8(buf).unwrap());
            let mut buf = Vec::new();
            sys.flight().unwrap().write_jsonl(&mut buf).unwrap();
            s.push_str(&String::from_utf8(buf).unwrap());
            s
        });
        out.push_str(&per);
    }
    out
}

/// The fleet golden equivalence: checkpoint a 3-RSB fleet mid-stream,
/// restore the image, and run both to the end of the scenario — every
/// per-RSB observable and the final checkpoint bytes must match bit for
/// bit.
#[test]
fn fleet_restore_equivalence_three_rsbs() {
    let register = fleet_register();
    let mut reference =
        FleetSystem::new(fleet_configs(), |lib| register(lib)).expect("valid fleet configs");
    let channels = fleet_e3_setup(&mut reference);
    reference.run_for(Ps::from_us(300));

    let bytes = reference.checkpoint();
    let at_checkpoint = reference.now();

    fleet_drive_leg(&mut reference, &channels);
    let golden = fleet_observables(&mut reference);

    let plan = ShardPlan::round_robin(FLEET_RSBS, 1);
    let mut restored = FleetSystem::restore(fleet_configs(), register, plan, &bytes)
        .expect("fleet image restores");
    assert_eq!(
        restored.now(),
        at_checkpoint,
        "resumed at the wrong instant"
    );
    fleet_drive_leg(&mut restored, &channels);
    assert_eq!(
        fleet_observables(&mut restored),
        golden,
        "fleet restore diverged from never-stopped"
    );
    assert_eq!(
        restored.checkpoint(),
        reference.checkpoint(),
        "fleet restore left different checkpoint bytes"
    );
}
