//! Golden causal-tracing test: per-word end-to-end latency separates the
//! seamless swap from the halt-and-swap baseline.
//!
//! Every streamed word is tagged at the producer IOM and timestamped at
//! the consumer IOM. A seamless swap delays at most a couple of in-flight
//! words (microseconds, well under 1% of the stream), so its p99 latency
//! bucket is *identical* to a run with no swap at all. Halt-and-swap
//! parks hundreds of accepted words in the producer FIFO for the whole
//! ~72 ms reconfiguration, so its p99 explodes. That asymmetry is the
//! paper's seamlessness claim, measured per word instead of per slot.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::scenario::SwapMethod;
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3::{Arrangement, Drive};
use vapres::modules::register_standard_modules;
use vapres::sim::stats::Histogram;

const SAMPLES: u32 = 4_000;
const SAMPLE_INTERVAL: u64 = 500;
/// Histogram shape shared with the telemetry harvest: 250 ns buckets.
const BUCKET_PS: u64 = 250_000;
const BUCKETS: usize = 64;

/// Runs the E3 stream with every word tagged — the pre-swap window, then
/// the `method` swap (none at all for [`SwapMethod::None`]), the drain
/// and the settle — returning the per-word e2e latency histogram.
fn run_traced(method: SwapMethod) -> Histogram {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.enable_word_trace(1);
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    // Halt-and-swap reconfigures the active PRR (node 1 = PRR0) in
    // place, so its FIR B bitstream targets PRR0; the seamless swap
    // loads the spare PRR1 instead.
    let arrangement = Arrangement::fig5(method);
    let channels = arrangement.deploy(&mut sys).unwrap();
    sys.iom_feed(0, 0..SAMPLES);
    // Every method streams the same window first; only then is the
    // drive aimed at its swap.
    let mut drive = Drive::e3(SwapMethod::Seamless, channels);
    drive.pre_swap(&mut sys, None).unwrap();
    drive.aim(method);
    drive
        .run(&mut sys, &arrangement, None)
        .expect("the swap succeeds and the stream drains");

    let tr = sys.word_trace().expect("trace enabled");
    assert_eq!(tr.tagged(), SAMPLES as usize, "every word is tagged");
    assert_eq!(tr.completed(), SAMPLES as usize, "every word reaches out");
    let mut hist = Histogram::new(BUCKET_PS, BUCKETS);
    for lat in tr.latencies_ps() {
        hist.add(lat);
    }
    hist
}

#[test]
fn seamless_p99_matches_no_swap_baseline_and_halt_explodes() {
    let baseline = run_traced(SwapMethod::None);
    let seamless = run_traced(SwapMethod::Seamless);
    let halt = run_traced(SwapMethod::Halt);

    let base_p99 = baseline.percentile(0.99).expect("baseline populated");
    let seam_p99 = seamless.percentile(0.99).expect("seamless populated");
    let halt_p99 = halt.percentile(0.99).expect("halt populated");

    // The seamless swap's handoff delays so few words (well under 1% of
    // the stream) that the p99 latency bucket is exactly the no-swap one.
    assert_eq!(
        seam_p99, base_p99,
        "seamless swap must not move p99 latency (baseline {base_p99} ps, swap {seam_p99} ps)"
    );

    // Halt-and-swap parks accepted words for the whole reconfiguration:
    // p99 jumps from sub-microsecond to tens of milliseconds.
    assert!(
        halt_p99 > base_p99,
        "halt swap must degrade p99 (baseline {base_p99} ps, halt {halt_p99} ps)"
    );
    assert!(
        halt.max().unwrap() > Ps::from_ms(50).as_ps(),
        "halted words wait out the ~72 ms reconfiguration, max {} ps",
        halt.max().unwrap()
    );
    // Sanity on the baseline itself: words cross one module hop in well
    // under a sample slot.
    assert!(
        baseline.max().unwrap() < Ps::from_us(5).as_ps(),
        "baseline words clear the pipeline within a slot"
    );
}

#[test]
fn median_latency_is_unchanged_by_the_seamless_swap() {
    let baseline = run_traced(SwapMethod::None);
    let seamless = run_traced(SwapMethod::Seamless);
    assert_eq!(baseline.percentile(0.50), seamless.percentile(0.50));
    assert_eq!(baseline.percentile(0.95), seamless.percentile(0.95));
}
