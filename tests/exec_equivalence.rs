//! Golden-trace equivalence of the event-driven executor against the
//! dense tick-everything loop, on the experiment-E3 switching scenario.
//!
//! The executor's exactness contract says a run elides only provably
//! no-op ticks, so the observable trace — every IOM output word with its
//! picosecond timestamp, the gap measurements, the swap report, the final
//! clock state — must be bit-for-bit identical between the two execution
//! models. This test runs the full seamless-swap scenario both ways and
//! compares everything, then checks the executor actually skipped work.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::scenario::SwapMethod;
use vapres::core::switching::{seamless_swap, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3::{swap_spec, Arrangement};
use vapres::modules::register_standard_modules;

/// External ADC sample interval in fabric cycles — slow enough that the
/// system is mostly idle between samples, which is where the executor's
/// savings come from.
const SAMPLE_INTERVAL: u64 = 500;
const N_SAMPLES: u32 = 5_000;

fn fig5_system(dense: bool) -> (VapresSystem, SwapSpec) {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.set_dense(dense);
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    let channels = Arrangement::fig5(SwapMethod::Seamless)
        .deploy(&mut sys)
        .unwrap();

    let spec = swap_spec(1, 2, "fir_b", channels);
    (sys, spec)
}

/// Runs the E3 scenario to completion and returns the full observable
/// trace: every timestamped output word plus swap/gap/clock summaries.
struct Trace {
    output: Vec<(u64, u32, bool)>,
    gap_count: u64,
    max_gap: Option<Ps>,
    max_gap_at: Option<Ps>,
    eos_at: Ps,
    rerouted_at: Ps,
    completed_at: Ps,
    final_now: Ps,
    isolated_writes: u64,
}

fn run_scenario(dense: bool) -> (Trace, f64) {
    let (mut sys, spec) = fig5_system(dense);
    let input: Vec<u32> = (0..N_SAMPLES).map(|i| (i * 97) % 10_007).collect();
    sys.iom_feed(0, input.iter().copied());

    sys.run_for(Ps::from_ms(1));
    let report = seamless_swap(&mut sys, &spec).expect("swap succeeds");

    let expected_total = input.len() + 1; // data + the EOS marker
    let done = sys.run_until(Ps::from_ms(200), |s| {
        s.iom_output(0).len() >= expected_total && s.iom_pending_input(0) == 0
    });
    assert!(done, "stream did not finish (dense={dense})");

    let output = sys
        .iom_output(0)
        .iter()
        .map(|(at, w)| (at.as_ps(), w.data, w.end_of_stream))
        .collect();
    let trace = Trace {
        output,
        gap_count: sys.iom_gap(0).count(),
        max_gap: sys.iom_gap(0).max_gap(),
        max_gap_at: sys.iom_gap(0).max_gap_at(),
        eos_at: report.eos_at,
        rerouted_at: report.rerouted_at,
        completed_at: report.completed_at,
        final_now: sys.now(),
        isolated_writes: sys.isolated_writes(),
    };
    (trace, sys.exec_stats().tick_reduction())
}

#[test]
fn executor_matches_dense_loop_on_e3_switching() {
    let (dense, _) = run_scenario(true);
    let (lazy, reduction) = run_scenario(false);

    // Identical event order and picosecond timestamps, word for word.
    assert_eq!(dense.output.len(), lazy.output.len());
    for (i, (d, l)) in dense.output.iter().zip(&lazy.output).enumerate() {
        assert_eq!(d, l, "output word {i} diverged");
    }
    // Identical stream-interruption measurement (the paper's metric).
    assert_eq!(dense.gap_count, lazy.gap_count);
    assert_eq!(dense.max_gap, lazy.max_gap);
    assert_eq!(dense.max_gap_at, lazy.max_gap_at);
    // Identical swap milestones and end state.
    assert_eq!(dense.eos_at, lazy.eos_at);
    assert_eq!(dense.rerouted_at, lazy.rerouted_at);
    assert_eq!(dense.completed_at, lazy.completed_at);
    assert_eq!(dense.final_now, lazy.final_now);
    assert_eq!(dense.isolated_writes, lazy.isolated_writes);

    // And the executor earned its keep: with a 500-cycle sample interval
    // the system idles most of the time, so the event-driven run must
    // dispatch at least 2x fewer component ticks than the dense loop.
    assert!(
        reduction >= 2.0,
        "tick reduction {reduction:.2}x below the 2x floor"
    );
}
