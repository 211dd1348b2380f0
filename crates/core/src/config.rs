//! System configuration: the output of the base system flow's
//! specification step (paper Fig. 6, right side).

use std::fmt;
use vapres_fabric::geometry::Device;
use vapres_floorplan::plan::Floorplan;
use vapres_floorplan::planner::{self, PrrRequest};
use vapres_sim::time::Freq;
use vapres_stream::params::FabricParams;

/// What sits at one attachment point of the switch-box array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A partially reconfigurable region hosting swappable modules.
    Prr,
    /// An I/O module bridging external pins to the fabric.
    Iom,
}

/// A configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// An internal-invariant violation surfaced as a configuration error.
    pub(crate) fn internal(message: String) -> Self {
        ConfigError(message)
    }
}

/// Full specification of a VAPRES base system with one RSB.
///
/// # Examples
///
/// ```
/// use vapres_core::config::{NodeKind, SystemConfig};
///
/// let cfg = SystemConfig::prototype();
/// assert_eq!(cfg.node_kinds.len(), 3);
/// assert_eq!(cfg.node_kinds[0], NodeKind::Iom);
/// cfg.validate().expect("prototype is valid");
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Fabric parameters (`nodes` must equal `node_kinds.len()`).
    pub params: FabricParams,
    /// Kind of each attachment point, left to right.
    pub node_kinds: Vec<NodeKind>,
    /// Target device.
    pub device: Device,
    /// Floorplan; PRR placements correspond to the `Prr` nodes in order.
    pub floorplan: Floorplan,
    /// Static region / switch-box clock (the paper runs 100 MHz).
    pub static_clock: Freq,
    /// The two BUFGMUX source clocks available to every PRR
    /// (`CLK_sel` chooses; index 0 is the power-on selection).
    pub prr_clock_menu: [Freq; 2],
    /// FSL FIFO depth in words.
    pub fsl_depth: usize,
}

impl SystemConfig {
    /// The paper's prototype system: IOM + 2 PRRs on an XC4VLX25,
    /// 100 MHz static clock, PRR clock menu {100 MHz, 25 MHz}.
    pub fn prototype() -> Self {
        let device = Device::xc4vlx25();
        let outcome = planner::plan(
            &device,
            &[PrrRequest::new("prr0", 640), PrrRequest::new("prr1", 640)],
        )
        .expect("prototype floorplan fits the LX25");
        SystemConfig {
            params: FabricParams::prototype(),
            node_kinds: vec![NodeKind::Iom, NodeKind::Prr, NodeKind::Prr],
            device,
            floorplan: outcome.floorplan,
            static_clock: Freq::mhz(100),
            prr_clock_menu: [Freq::mhz(100), Freq::mhz(25)],
            fsl_depth: 512,
        }
    }

    /// A linear system with one IOM (node 0) followed by `prr_count`
    /// 640-slice PRRs — the shape KPN pipelines map onto. Picks the
    /// smallest modelled device whose clock regions fit.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when no modelled device can host that many PRRs.
    pub fn linear(prr_count: usize) -> Result<Self, ConfigError> {
        if prr_count == 0 {
            return Err(ConfigError("need at least one PRR".into()));
        }
        let device = if prr_count <= 6 {
            Device::xc4vlx25()
        } else if prr_count <= 8 {
            Device::xc4vlx60()
        } else if prr_count <= 12 {
            Device::xc4vlx100()
        } else {
            return Err(ConfigError(format!(
                "no modelled device hosts {prr_count} PRRs"
            )));
        };
        let requests: Vec<PrrRequest> = (0..prr_count)
            .map(|i| PrrRequest::new(format!("prr{i}"), 640))
            .collect();
        let outcome = planner::plan(&device, &requests).map_err(|e| ConfigError(e.to_string()))?;
        let mut params = FabricParams::prototype();
        params.nodes = prr_count + 1;
        let mut node_kinds = vec![NodeKind::Iom];
        node_kinds.extend(std::iter::repeat_n(NodeKind::Prr, prr_count));
        Ok(SystemConfig {
            params,
            node_kinds,
            device,
            floorplan: outcome.floorplan,
            static_clock: Freq::mhz(100),
            prr_clock_menu: [Freq::mhz(100), Freq::mhz(25)],
            fsl_depth: 512,
        })
    }

    /// Like [`Self::linear`] but with a second IOM at the right end of the
    /// array — a true source-to-sink streaming pipeline (ADC in, DAC out).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when no modelled device can host that many PRRs.
    pub fn linear_dual_iom(prr_count: usize) -> Result<Self, ConfigError> {
        let mut cfg = Self::linear(prr_count)?;
        cfg.params.nodes += 1;
        cfg.node_kinds.push(NodeKind::Iom);
        Ok(cfg)
    }

    /// Number of PRR nodes.
    pub fn prr_count(&self) -> usize {
        self.node_kinds
            .iter()
            .filter(|k| **k == NodeKind::Prr)
            .count()
    }

    /// Number of IOM nodes.
    pub fn iom_count(&self) -> usize {
        self.node_kinds.len() - self.prr_count()
    }

    /// Maps a node index to its PRR index (position among PRR nodes), if
    /// the node is a PRR.
    pub fn prr_index(&self, node: usize) -> Option<usize> {
        if *self.node_kinds.get(node)? != NodeKind::Prr {
            return None;
        }
        Some(
            self.node_kinds[..node]
                .iter()
                .filter(|k| **k == NodeKind::Prr)
                .count(),
        )
    }

    /// Maps a PRR index back to its node index.
    pub fn prr_node(&self, prr: usize) -> Option<usize> {
        self.node_kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Prr)
            .nth(prr)
            .map(|(n, _)| n)
    }

    /// An FNV-1a fingerprint over every configuration field that shapes
    /// simulation state. A snapshot taken under one configuration refuses
    /// to restore into a system built from a different one (the first
    /// field of a [`vapres_sim::persist::SectionTag::System`] section);
    /// two structurally equal configs always fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        use vapres_sim::persist::{fnv1a, Persist, Writer};
        let mut w = Writer::new();
        self.params.persist(&mut w);
        w.put_usize(self.node_kinds.len());
        for kind in &self.node_kinds {
            w.put_u8(match kind {
                NodeKind::Prr => 0,
                NodeKind::Iom => 1,
            });
        }
        w.put_str(self.device.name());
        w.put_u32(self.device.clb_cols());
        w.put_u32(self.device.clb_rows());
        w.put_usize(self.floorplan.prrs().len());
        for p in self.floorplan.prrs() {
            w.put_str(&p.name);
            w.put_u32(p.rect.col_lo);
            w.put_u32(p.rect.col_hi);
            w.put_u32(p.rect.row_lo);
            w.put_u32(p.rect.row_hi);
        }
        self.static_clock.persist(&mut w);
        self.prr_clock_menu[0].persist(&mut w);
        self.prr_clock_menu[1].persist(&mut w);
        w.put_usize(self.fsl_depth);
        fnv1a(&w.into_bytes())
    }

    /// Checks internal consistency: fabric parameters, node/floorplan
    /// correspondence, floorplan validity, FSL depth.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params
            .validate()
            .map_err(|e| ConfigError(e.to_string()))?;
        if self.params.nodes != self.node_kinds.len() {
            return Err(ConfigError(format!(
                "params.nodes = {} but {} node kinds given",
                self.params.nodes,
                self.node_kinds.len()
            )));
        }
        if self.prr_count() == 0 {
            return Err(ConfigError("system needs at least one PRR".into()));
        }
        if self.floorplan.prrs().len() != self.prr_count() {
            return Err(ConfigError(format!(
                "{} PRR nodes but {} floorplan placements",
                self.prr_count(),
                self.floorplan.prrs().len()
            )));
        }
        if self.floorplan.device() != &self.device {
            return Err(ConfigError("floorplan targets a different device".into()));
        }
        self.floorplan
            .validate()
            .map_err(|e| ConfigError(e.to_string()))?;
        if self.fsl_depth < 4 {
            return Err(ConfigError("fsl_depth must be >= 4".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_validates() {
        SystemConfig::prototype().validate().unwrap();
    }

    #[test]
    fn prr_index_mapping() {
        let cfg = SystemConfig::prototype();
        assert_eq!(cfg.prr_index(0), None); // IOM
        assert_eq!(cfg.prr_index(1), Some(0));
        assert_eq!(cfg.prr_index(2), Some(1));
        assert_eq!(cfg.prr_index(9), None);
        assert_eq!(cfg.prr_node(0), Some(1));
        assert_eq!(cfg.prr_node(1), Some(2));
        assert_eq!(cfg.prr_node(2), None);
        assert_eq!(cfg.prr_count(), 2);
        assert_eq!(cfg.iom_count(), 1);
    }

    #[test]
    fn rejects_node_count_mismatch() {
        let mut cfg = SystemConfig::prototype();
        cfg.node_kinds.push(NodeKind::Iom);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_prr_floorplan_mismatch() {
        let mut cfg = SystemConfig::prototype();
        cfg.node_kinds = vec![NodeKind::Iom, NodeKind::Prr, NodeKind::Iom];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_no_prr() {
        let mut cfg = SystemConfig::prototype();
        cfg.node_kinds = vec![NodeKind::Iom, NodeKind::Iom, NodeKind::Iom];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_shallow_fsl() {
        let mut cfg = SystemConfig::prototype();
        cfg.fsl_depth = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_wrong_device_floorplan() {
        let mut cfg = SystemConfig::prototype();
        cfg.device = Device::xc4vlx60();
        assert!(cfg.validate().is_err());
    }
}
