//! Two reconfigurable streaming blocks sharing one controlling region
//! (paper Sec. III.B: "one or more RSBs").
//!
//! RSB 0 runs the adaptive-filter application; RSB 1 runs an independent
//! compression pipeline. While the shared MicroBlaze/ICAP reconfigures a
//! PRR in RSB 0 (71.9 ms), RSB 1's stream keeps flowing without a single
//! dropped or delayed word.
//!
//! Run with: `cargo run --release --example multi_rsb`

use vapres::core::config::SystemConfig;
use vapres::core::{FleetSystem, PortRef, Ps};
use vapres::kpn::{deploy, map_pipeline, Pipeline};
use vapres::modules::{register_standard_modules, uids};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut multi = FleetSystem::new(
        vec![SystemConfig::prototype(), SystemConfig::prototype()],
        |lib| register_standard_modules(lib, 0),
    )?;
    println!("data processing region: {} RSBs", multi.rsb_count());

    // RSB 0: filter A streaming, filter B staged for a later swap.
    multi.with_rsb(0, |sys| -> Result<(), Box<dyn std::error::Error>> {
        sys.iom_set_input_interval(0, 500);
        sys.install_bitstream(0, uids::FIR_A, "a.bit")?;
        sys.install_bitstream(1, uids::FIR_B, "b.bit")?;
        sys.vapres_cf2array("b.bit", "b")?;
        sys.vapres_cf2icap("a.bit")?;
        sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))?;
        sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))?;
        sys.bring_up_node(0, false)?;
        sys.bring_up_node(1, false)?;
        sys.iom_feed(0, (0..50_000u32).map(|i| i % 4_096));
        Ok(())
    })?;

    // RSB 1: a delta-compression pipeline, one word per microsecond.
    multi.with_rsb(1, |sys| -> Result<(), Box<dyn std::error::Error>> {
        sys.iom_set_input_interval(0, 100);
        let pipeline = Pipeline::new(vec![uids::DELTA_ENCODER, uids::DELTA_DECODER]);
        let mapping = map_pipeline(sys.config(), &pipeline)?;
        deploy(sys, &pipeline, &mapping)?;
        sys.iom_feed(0, (0..500_000u32).map(|i| i * 3 % 10_007));
        Ok(())
    })?;

    // Let both run, then reconfigure RSB 0's spare PRR while RSB 1 streams.
    multi.run_for(Ps::from_ms(2));
    let rsb1_before = multi.rsb(1).iom_output(0).len();
    println!("\nreconfiguring RSB0/PRR1 from SDRAM while RSB1 streams...");
    multi.with_rsb(0, |sys| {
        sys.isolate_node(2).expect("isolate spare");
        let report = sys.vapres_array2icap("b").expect("reconfig");
        println!("  RSB0 reconfiguration: {}", report.total());
    });
    let rsb1_after = multi.rsb(1).iom_output(0).len();
    let gap = multi.rsb(1).iom_gap(0).max_gap().expect("flowed");

    println!("\nRSB1 during RSB0's reconfiguration:");
    println!("  words streamed : {}", rsb1_after - rsb1_before);
    println!("  max output gap : {gap}");
    assert!(rsb1_after - rsb1_before > 60_000);
    assert!(gap < Ps::from_us(2));
    println!("\nmulti_rsb OK — independent RSBs share one controlling region");
    Ok(())
}
