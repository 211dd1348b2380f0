//! # vapres-kpn
//!
//! Kahn process network layer for the VAPRES reproduction (paper
//! Sec. III.B.1, Fig. 4): RSPSs assembled on the switch-box fabric
//! approximate a KPN — hardware modules are nodes, module-interface FIFOs
//! and FSLs are the stream buffers, and the FIFO empty/full flags give
//! blocking-read/blocking-write synchronization for free.
//!
//! * [`pipeline`] — linear KPNs, automatic mapping onto an RSB's PRR
//!   nodes, deployment (bitstream load + channel chain + bring-up), and
//!   teardown;
//! * [`mod@reference`] — the software golden-model executor that E8 checks
//!   hardware output against;
//! * [`e3`] — the paper's E3 scenario (Fig. 5) written once: the
//!   arrangement as data and the persisted swap drive that `vapres sim`,
//!   the sweep and the fleet step through;
//! * [`sweep`] — the concrete E3 scenario runner behind `vapres sweep`
//!   (the batch engine itself lives in `vapres_core::scenario`);
//! * [`fleet`] — the multi-RSB runner behind `vapres fleet`.
//!
//! # Examples
//!
//! Map and deploy a two-stage pipeline on the prototype, then verify it
//! against the reference executor:
//!
//! ```
//! use vapres_core::config::SystemConfig;
//! use vapres_core::module::ModuleLibrary;
//! use vapres_core::system::VapresSystem;
//! use vapres_core::Ps;
//! use vapres_kpn::pipeline::{deploy, map_pipeline, Pipeline};
//! use vapres_kpn::reference::run_chain;
//! use vapres_modules::kernels::{Scaler, Threshold};
//! use vapres_modules::{register_standard_modules, uids, StreamKernel};
//!
//! let mut lib = ModuleLibrary::new();
//! register_standard_modules(&mut lib, 0);
//! let mut sys = VapresSystem::new(SystemConfig::prototype(), lib)?;
//!
//! let pipeline = Pipeline::new(vec![uids::SCALER, uids::THRESHOLD]);
//! let mapping = map_pipeline(sys.config(), &pipeline)?;
//! let deployed = deploy(&mut sys, &pipeline, &mapping)?;
//!
//! sys.iom_feed(0, [100, 2_000, 300]);
//! sys.run_until(Ps::from_us(20), |s| s.iom_output(0).len() == 3);
//!
//! let hw: Vec<u32> = sys.iom_output(0).iter().map(|(_, w)| w.data).collect();
//! let mut golden: Vec<Box<dyn StreamKernel>> = vec![
//!     Box::new(Scaler::new(256)),
//!     Box::new(Threshold::new(1_000)),
//! ];
//! assert_eq!(hw, run_chain(&mut golden, &[100, 2_000, 300]));
//! deployed.teardown(&mut sys)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod dot;
pub mod e3;
pub mod fleet;
pub mod graph;
pub mod pipeline;
pub mod reference;
pub mod sweep;

pub use dot::{graph_to_dot, pipeline_to_dot};
pub use fleet::{
    checkpoint_after_setup, run_fleet, run_fleet_from, FleetResult, FleetRsbRow, FleetSpec,
    MergedFlight,
};
pub use graph::{
    deploy_graph, execute_reference, map_graph, DeployedGraph, GraphError, GraphMapping, GraphNode,
    KpnEdge, KpnGraph, RefBehavior,
};
pub use pipeline::{deploy, map_pipeline, DeployedPipeline, MapError, Mapping, Pipeline};
pub use reference::run_chain;
pub use sweep::{
    clear_prefix_cache, run_scenario, run_scenario_profiled, run_scenario_with, RunOptions,
};
