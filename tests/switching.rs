//! End-to-end tests of the hardware module switching methodology
//! (paper Fig. 5): seamless swap vs. halt-and-swap, with data integrity
//! and stream-interruption measurement. This is the code path behind
//! experiment E3.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::scenario::SwapMethod;
use vapres::core::switching::{halt_and_swap, seamless_swap, BitstreamSource, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3::{swap_spec, Arrangement};
use vapres::modules::kernels::FirFilter;
use vapres::modules::{register_standard_modules, run_kernel, uids, StreamKernel};
use vapres::sim::time::Freq;

/// External ADC sample interval in fabric cycles (200 kS/s at 100 MHz):
/// slow enough that a 72 ms reconfiguration overlaps ~14k live samples.
const SAMPLE_INTERVAL: u64 = 500;

/// Builds the Fig. 5 scenario: IOM (node 0) -> filter A in PRR0 (node 1)
/// -> IOM, with filter B's bitstream staged in SDRAM for PRR1 (node 2).
fn fig5_system() -> (VapresSystem, SwapSpec) {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    // Application flow: install bitstreams for A (PRR0) and B (PRR1).
    let channels = Arrangement::fig5(SwapMethod::Seamless)
        .deploy(&mut sys)
        .unwrap();

    let spec = swap_spec(1, 2, "fir_b", channels);
    (sys, spec)
}

/// The golden model of the swap: filter A over the samples processed
/// before the handoff, then filter B (initialized with A's delay line)
/// over the rest.
fn golden_swap_output(input: &[u32], split: usize) -> Vec<u32> {
    let mut a = FirFilter::filter_a();
    let mut out = run_kernel(&mut a, &input[..split]);
    let mut b = FirFilter::filter_b();
    b.restore_state(&a.save_state());
    out.extend(run_kernel(&mut b, &input[split..]));
    out
}

#[test]
fn seamless_swap_preserves_every_sample_and_state() {
    let (mut sys, spec) = fig5_system();
    let input: Vec<u32> = (0..20_000u32).map(|i| (i * 97) % 10_007).collect();
    sys.iom_feed(0, input.iter().copied());

    // Let A process an initial stretch, then swap while streaming.
    sys.run_for(Ps::from_ms(1));
    let report = seamless_swap(&mut sys, &spec).expect("swap succeeds");

    // Drain the remainder through B.
    let expected_total = input.len() + 1; // data + the EOS marker
    let done = sys.run_until(Ps::from_ms(200), |s| {
        s.iom_output(0).len() >= expected_total && s.iom_pending_input(0) == 0
    });
    assert!(
        done,
        "stream did not finish: {} of {} words",
        sys.iom_output(0).len(),
        expected_total
    );

    // Partition the output at the EOS marker: everything before came from
    // A, everything after from B.
    let out = sys.iom_output(0);
    let eos_pos = out
        .iter()
        .position(|(_, w)| w.end_of_stream)
        .expect("EOS must appear in the output");
    // The swap overlapped live streaming: a meaningful share of samples
    // went through each filter.
    assert!(eos_pos > 1_000, "A processed only {eos_pos}");
    assert!(
        input.len() - eos_pos > 1_000,
        "B processed only {}",
        input.len() - eos_pos
    );
    let data: Vec<u32> = out
        .iter()
        .filter(|(_, w)| !w.end_of_stream)
        .map(|(_, w)| w.data)
        .collect();
    assert_eq!(
        data.len(),
        input.len(),
        "no sample may be lost or duplicated"
    );
    assert_eq!(data, golden_swap_output(&input, eos_pos));

    // The switch really moved the modules: A still sits in PRR0, B now
    // runs in the spare PRR1.
    assert_eq!(sys.prr_module_name(0), Some("fir_a"));
    assert_eq!(sys.prr_module_name(1), Some("fir_b"));
    assert_eq!(report.state_words, 5); // filter A's delay line
    assert!(report.reconfig.total() > Ps::from_ms(70)); // array2icap path
}

#[test]
fn seamless_swap_does_not_interrupt_the_stream() {
    let (mut sys, spec) = fig5_system();
    let input: Vec<u32> = (0..20_000_u32).collect();
    sys.iom_feed(0, input.iter().copied());
    sys.run_for(Ps::from_ms(1));

    let report = seamless_swap(&mut sys, &spec).expect("swap succeeds");
    sys.run_until(Ps::from_ms(200), |s| s.iom_pending_input(0) == 0);

    // The reconfiguration took ~72 ms; the output gap must stay near the
    // 5 us sample period — the paper's "no stream processing
    // interruption".
    let max_gap = sys.iom_gap(0).max_gap().expect("output flowed");
    assert!(
        max_gap < Ps::from_us(100),
        "stream interruption {max_gap} too large"
    );
    assert!(report.reconfig.total() > Ps::from_ms(70));
    assert!(max_gap.as_ps() * 500 < report.reconfig.total().as_ps());
}

#[test]
fn halt_and_swap_interrupts_for_the_full_reconfiguration() {
    let (mut sys, mut spec) = fig5_system();
    // Halt-and-swap reconfigures the active PRR in place; give it a
    // bitstream for PRR0 (node 1).
    sys.install_bitstream(0, uids::FIR_B, "fir_b_prr0.bit")
        .unwrap();
    sys.vapres_cf2array("fir_b_prr0.bit", "fir_b_prr0").unwrap();
    spec.source = BitstreamSource::Sdram("fir_b_prr0".into());

    let input: Vec<u32> = (0..20_000_u32).collect();
    sys.iom_feed(0, input.iter().copied());
    sys.run_for(Ps::from_ms(1));

    let report = halt_and_swap(&mut sys, &spec).expect("baseline swap succeeds");
    sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);

    let max_gap = sys.iom_gap(0).max_gap().expect("output flowed");
    // The gap brackets the reconfiguration time (~72 ms).
    assert!(
        max_gap > Ps::from_ms(70),
        "baseline gap {max_gap} suspiciously small"
    );
    assert_eq!(sys.prr_module_name(0), Some("fir_b"));
    assert!(report.total() > Ps::from_ms(70));
}

#[test]
fn swap_with_local_clock_domain_change() {
    // Swap onto the spare with the slow clock selected: the stream
    // completes correctly at the new rate.
    let (mut sys, mut spec) = fig5_system();
    spec.clk_sel = true; // 25 MHz for filter B
    let input: Vec<u32> = (0..2_000_u32).collect();
    sys.iom_feed(0, input.iter().copied());
    sys.run_for(Ps::from_ms(1));

    seamless_swap(&mut sys, &spec).expect("swap succeeds");
    let done = sys.run_until(Ps::from_ms(100), |s| s.iom_pending_input(0) == 0);
    assert!(done);
    assert_eq!(sys.config().prr_node(1), Some(2));
    assert_eq!(sys.prr_module_name(1), Some("fir_b"));
    // The spare's BUFGMUX now selects the 25 MHz input.
    assert!(sys.dcr(2).clk_sel);
    assert_eq!(sys.config().prr_clock_menu[1], Freq::mhz(25));
}
