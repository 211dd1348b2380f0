//! The profiler's work column is a view of counters the system already
//! keeps and persists: executor ticks per component, time-series frames,
//! swap steps, ICAP words, CF and SDRAM bytes, staged-cache statistics
//! and per-route fabric work. The profiler itself is host plumbing and
//! never persisted.
//!
//! These tests pin that plane on the paper's E3 scenario (Fig. 5): the
//! column's exact values, its independence from when (or whether) the
//! profiler is armed, its survival across checkpoint/restore, and the
//! System section decoder's response to seeded corruption.

use std::collections::HashSet;
use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::switching::{halt_and_swap, seamless_swap, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::{Ps, SplitMix64};
use vapres::kpn::e3::{swap_spec, Arrangement};
use vapres::modules::{register_standard_modules, uids};
use vapres::sim::persist::{Container, SectionTag};

/// External ADC sample interval in fabric cycles.
const SAMPLE_INTERVAL: u64 = 200;
const N_SAMPLES: u32 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Seamless,
    Halt,
}

fn library() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    lib
}

/// The E3 arrangement: IOM ⇄ FIR A on PRR 0, FIR B staged in SDRAM for
/// the swap target, channels routed, nodes up, input fed. The seamless
/// run samples a time series; the halt run arms the staged-bitstream
/// cache. The profiler is armed at construction when `profile` is set.
fn e3_system(method: Method, profile: bool) -> (VapresSystem, SwapSpec) {
    let mut sys = VapresSystem::new(SystemConfig::prototype(), library()).unwrap();
    if profile {
        sys.enable_profiling();
    }
    sys.enable_telemetry();
    sys.enable_flight_recorder(512);
    match method {
        Method::Seamless => sys.enable_timeseries(Ps::from_us(500), 64),
        Method::Halt => sys.enable_bitstream_cache(4),
    }
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    let fir_b_prr = if method == Method::Halt { 0 } else { 1 };
    let staged = [(fir_b_prr, uids::FIR_B, "fir_b.bit", "fir_b")];
    let channels = Arrangement {
        fir_a: "fir_a.bit",
        staged: &staged,
    }
    .deploy(&mut sys)
    .unwrap();
    sys.iom_feed(0, 0..N_SAMPLES);
    (sys, swap_spec(1, 2, "fir_b", channels))
}

/// The pre-swap stretch of the stream.
const PRE_SWAP: Ps = Ps::from_us(317);

fn swap(sys: &mut VapresSystem, spec: &SwapSpec, method: Method) {
    match method {
        Method::Seamless => seamless_swap(sys, spec).map(|_| ()),
        Method::Halt => halt_and_swap(sys, spec).map(|_| ()),
    }
    .unwrap();
}

fn drain(sys: &mut VapresSystem) {
    assert!(sys.run_until(Ps::from_ms(100), |s| s.iom_pending_input(0) == 0));
    sys.run_for(Ps::from_us(50));
}

/// The whole scenario, never stopped.
fn uncut(method: Method, profile: bool) -> VapresSystem {
    let (mut sys, spec) = e3_system(method, profile);
    sys.run_for(PRE_SWAP);
    swap(&mut sys, &spec, method);
    drain(&mut sys);
    sys
}

/// The work column: `(component, work units)` in row order.
fn work_column(sys: &mut VapresSystem) -> Vec<(String, u64)> {
    let model = sys.profile_cost_model().expect("profiler armed");
    model
        .rows
        .iter()
        .map(|r| (r.component.to_string(), r.work_units))
        .collect()
}

fn owned(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(c, u)| (c.to_string(), u)).collect()
}

/// The exact work column of both E3 runs, unchanged from when the
/// profiler kept its own persisted registry, and each `exec/*` row equal
/// to that component's executor ticks.
#[test]
fn e3_work_columns_are_pinned_and_read_executor_ticks() {
    let pinned: [(Method, &[(&str, u64)]); 2] =
        [(Method::Seamless, SEAMLESS_WORK), (Method::Halt, HALT_WORK)];
    for (method, want) in pinned {
        let mut sys = uncut(method, true);
        let got = work_column(&mut sys);
        assert_eq!(got, owned(want), "{method:?} work column moved");
        let stats = sys.exec_stats();
        let exec: Vec<u64> = got
            .iter()
            .filter(|(c, _)| c.starts_with("exec/"))
            .map(|&(_, u)| u)
            .collect();
        assert_eq!(exec, stats.component_ticks(), "{method:?}: exec rows");
        assert_eq!(exec.iter().sum::<u64>(), stats.total_ticks());
    }
}

const SEAMLESS_WORK: &[(&str, u64)] = &[
    ("exec/fabric", 4010),
    ("exec/iom0", 4003),
    ("exec/prr0", 2037),
    ("exec/prr1", 10),
    ("sample", 4266),
    ("swap/steps", 9),
    ("icap/words", 18150),
    ("cf/bytes", 72600),
    ("sdram/bytes", 72600),
    ("cache/hits", 0),
    ("cache/bytes_saved", 0),
    ("fabric/route2", 40),
    ("fabric/route3", 6),
];

const HALT_WORK: &[(&str, u64)] = &[
    ("exec/fabric", 3502),
    ("exec/iom0", 4033),
    ("exec/prr0", 2036),
    ("exec/prr1", 0),
    ("sample", 0),
    ("swap/steps", 6),
    ("icap/words", 18150),
    ("cf/bytes", 72600),
    ("sdram/bytes", 72600),
    ("cache/hits", 0),
    ("cache/bytes_saved", 0),
    ("fabric/route2", 9814),
    ("fabric/route3", 9807),
];

/// Arming the profiler changes no checkpoint byte, at any point of the
/// run, and a late-armed profiler reads the same work column as one
/// armed at construction: the column counts from construction.
#[test]
fn arming_the_profiler_changes_no_checkpoint_byte() {
    for method in [Method::Seamless, Method::Halt] {
        let (mut armed, spec) = e3_system(method, true);
        let (mut plain, _) = e3_system(method, false);
        assert_eq!(armed.checkpoint(), plain.checkpoint(), "{method:?}: setup");
        for sys in [&mut armed, &mut plain] {
            sys.run_for(PRE_SWAP);
        }
        assert_eq!(
            armed.checkpoint(),
            plain.checkpoint(),
            "{method:?}: pre-swap"
        );
        for sys in [&mut armed, &mut plain] {
            swap(sys, &spec, method);
            drain(sys);
        }
        assert_eq!(
            armed.checkpoint(),
            plain.checkpoint(),
            "{method:?}: drained"
        );
        assert!(plain.profile_cost_model().is_none());
        plain.enable_profiling();
        assert_eq!(work_column(&mut plain), work_column(&mut armed));
    }
}

/// Checkpoint the profiled run before the swap, right after it and
/// after the drain; restore each image (the profiler comes back
/// unarmed), re-arm and finish. Every cut reads the uncut run's work
/// column.
#[test]
fn restore_and_rearm_reads_the_uncut_work_column() {
    for method in [Method::Seamless, Method::Halt] {
        let want = work_column(&mut uncut(method, true));
        let (mut sys, spec) = e3_system(method, true);
        let mut images = Vec::new();
        sys.run_for(PRE_SWAP);
        images.push((0, sys.checkpoint()));
        swap(&mut sys, &spec, method);
        images.push((1, sys.checkpoint()));
        drain(&mut sys);
        images.push((2, sys.checkpoint()));
        assert_eq!(
            work_column(&mut sys),
            want,
            "{method:?}: checkpointing moved work"
        );
        for (cut, image) in images {
            let mut resumed =
                VapresSystem::restore(SystemConfig::prototype(), library(), &image).unwrap();
            assert!(
                resumed.profiler().is_none(),
                "the profiler is never persisted"
            );
            resumed.enable_profiling();
            if cut == 0 {
                swap(&mut resumed, &spec, method);
            }
            if cut < 2 {
                drain(&mut resumed);
            }
            assert_eq!(work_column(&mut resumed), want, "{method:?}: cut {cut}");
        }
    }
}

/// A work row is keyed by its component name, so a restored system must
/// never name a component twice: merging would fold the repeat into the
/// first row and `vapres diff` rejects the repeated row. Restore each
/// cut of the profiled run, finish it, and check that every name is
/// distinct and that merging the uncut model in doubles each row
/// without adding one.
#[test]
fn restored_work_rows_name_each_component_once() {
    for method in [Method::Seamless, Method::Halt] {
        let uncut_model = uncut(method, true).profile_cost_model().unwrap();
        let (mut sys, spec) = e3_system(method, true);
        sys.run_for(PRE_SWAP);
        let before = sys.checkpoint();
        swap(&mut sys, &spec, method);
        let after = sys.checkpoint();
        for (cut, image) in [(0, before), (1, after)] {
            let mut resumed =
                VapresSystem::restore(SystemConfig::prototype(), library(), &image).unwrap();
            resumed.enable_profiling();
            if cut == 0 {
                swap(&mut resumed, &spec, method);
            }
            drain(&mut resumed);
            let mut model = resumed.profile_cost_model().unwrap();
            let names: HashSet<&str> = model.rows.iter().map(|r| r.component).collect();
            assert_eq!(
                names.len(),
                model.rows.len(),
                "{method:?}: cut {cut} repeats a component"
            );
            let want: Vec<(&str, u64)> = model
                .rows
                .iter()
                .map(|r| (r.component, 2 * r.work_units))
                .collect();
            model.merge(&uncut_model);
            let got: Vec<(&str, u64)> = model
                .rows
                .iter()
                .map(|r| (r.component, r.work_units))
                .collect();
            assert_eq!(got, want, "{method:?}: cut {cut} merge");
        }
    }
}

/// 2,000 seeded mutants of a profiled E3 System section body — bit
/// flips, truncations and inflated 8-byte fields — never panic the
/// decoder: each is a typed error, or restores and re-encodes to exactly
/// its own bytes.
#[test]
fn system_section_mutants_fail_typed_or_round_trip() {
    let (mut sys, spec) = e3_system(Method::Seamless, true);
    sys.run_for(PRE_SWAP);
    swap(&mut sys, &spec, Method::Seamless);
    let image = sys.checkpoint();
    let [body] = Container::parse(&image)
        .unwrap()
        .expect([SectionTag::System])
        .unwrap();
    let body = body.to_vec();
    // Most of the body is bitstream payload held by CompactFlash and
    // SDRAM; a third of the mutants land in the head (clocks, executor,
    // fabric) and a third in the tail (counters, telemetry, flight ring,
    // time series) so every decoder sees corruption.
    let head = 4_096.min(body.len());
    let tail = body.len().saturating_sub(32_768);
    let mut rng = SplitMix64::new(0x5EC7_10B0);
    let (mut rejected, mut restored) = (0u32, 0u32);
    for i in 0..2_000u32 {
        let pos = |rng: &mut SplitMix64| match i % 3 {
            0 => rng.gen_usize(0..head),
            1 => rng.gen_usize(tail..body.len()),
            _ => rng.gen_usize(0..body.len()),
        };
        let mut mutant = body.clone();
        match i % 4 {
            0 | 1 => {
                for _ in 0..rng.gen_range(1..4) {
                    let at = pos(&mut rng);
                    mutant[at] ^= 1 << rng.gen_range(0..8);
                }
            }
            2 => mutant.truncate(pos(&mut rng)),
            _ => {
                let at = pos(&mut rng).min(body.len() - 8);
                let inflated = rng.gen_range(body.len() as u64..u64::MAX);
                mutant[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            }
        }
        match VapresSystem::restore_section(SystemConfig::prototype(), library(), &mutant) {
            Err(_) => rejected += 1,
            Ok(mut back) => {
                restored += 1;
                let again = back.checkpoint();
                let [reencoded] = Container::parse(&again)
                    .unwrap()
                    .expect([SectionTag::System])
                    .unwrap();
                assert!(
                    reencoded == &mutant[..],
                    "mutant {i} restored but re-encoded differently"
                );
            }
        }
    }
    assert!(
        rejected > 0 && restored > 0,
        "{rejected} rejected, {restored} restored"
    );
}
