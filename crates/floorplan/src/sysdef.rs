//! System definition files (base system flow, Sec. IV.A).
//!
//! The paper's base system flow emits a Microprocessor Hardware
//! Specification (MHS), a Microprocessor Software Specification (MSS), and
//! a User Constraints File (UCF) carrying the floorplan as `AREA_GROUP`
//! ranges. We generate all three in an EDK-flavoured textual format and can
//! parse the UCF back into a [`Floorplan`] — closing the loop the paper
//! left as future work ("scripting tools for system floorplan definition
//! and system definition file creation").

use crate::plan::{Floorplan, PrrPlacement};
use crate::resources::STATIC_COMPONENTS;
use std::fmt;
use vapres_fabric::geometry::{ClbRect, Device};
use vapres_stream::params::FabricParams;

/// Generates the MHS-style hardware description: the controlling-region
/// components plus one PRSocket, FSL pair, and switch box per node.
pub fn generate_mhs(params: &FabricParams, plan: &Floorplan) -> String {
    let mut out = String::new();
    out.push_str("# VAPRES base system — generated MHS\n");
    out.push_str(&format!(
        "PARAMETER VERSION = 2.1.0\n# device {}\n\n",
        plan.device().name()
    ));
    for c in STATIC_COMPONENTS {
        out.push_str(&format!(
            "BEGIN {}\n PARAMETER INSTANCE = {}_0\nEND\n\n",
            c.name, c.name
        ));
    }
    for node in 0..params.nodes {
        out.push_str(&format!(
            "BEGIN prsocket\n PARAMETER INSTANCE = prsocket_{node}\n PARAMETER C_DCR_BASEADDR = {:#06x}\nEND\n\n",
            0x100 + node * 0x10
        ));
        out.push_str(&format!(
            "BEGIN fsl_v20\n PARAMETER INSTANCE = fsl_to_node{node}\nEND\n\nBEGIN fsl_v20\n PARAMETER INSTANCE = fsl_from_node{node}\nEND\n\n",
        ));
        out.push_str(&format!(
            "BEGIN switch_box\n PARAMETER INSTANCE = swbox_{node}\n PARAMETER C_KR = {}\n PARAMETER C_KL = {}\n PARAMETER C_KI = {}\n PARAMETER C_KO = {}\n PARAMETER C_WIDTH = {}\nEND\n\n",
            params.kr, params.kl, params.ki, params.ko, params.width_bits
        ));
    }
    out
}

/// Generates the MSS-style software platform description.
pub fn generate_mss(params: &FabricParams) -> String {
    let mut out = String::new();
    out.push_str("# VAPRES base system — generated MSS\nPARAMETER VERSION = 2.2.0\n\n");
    out.push_str(
        "BEGIN OS\n PARAMETER OS_NAME = standalone\n PARAMETER PROC_INSTANCE = microblaze_0\nEND\n\n",
    );
    out.push_str("BEGIN LIBRARY\n PARAMETER LIBRARY_NAME = vapres\n");
    out.push_str(&format!(" PARAMETER C_NUM_NODES = {}\n", params.nodes));
    out.push_str("END\n");
    out
}

/// Generates the UCF-style constraints file carrying the floorplan.
pub fn generate_ucf(plan: &Floorplan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# VAPRES floorplan — device {}\n",
        plan.device().name()
    ));
    let s = plan.static_region();
    out.push_str(&format!(
        "AREA_GROUP \"static\" RANGE = SLICE_X{}Y{}:SLICE_X{}Y{} ;\n",
        s.col_lo, s.row_lo, s.col_hi, s.row_hi
    ));
    for p in plan.prrs() {
        out.push_str(&format!(
            "AREA_GROUP \"{}\" RANGE = SLICE_X{}Y{}:SLICE_X{}Y{} ;\n",
            p.name, p.rect.col_lo, p.rect.row_lo, p.rect.col_hi, p.rect.row_hi
        ));
        out.push_str(&format!("AREA_GROUP \"{}\" MODE = RECONFIG ;\n", p.name));
    }
    out
}

/// A UCF parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUcfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseUcfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ucf line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseUcfError {}

/// Parses a UCF produced by [`generate_ucf`] back into a [`Floorplan`].
///
/// # Errors
///
/// [`ParseUcfError`] on malformed ranges, a group named twice or a
/// missing `static` group.
pub fn parse_ucf(device: &Device, text: &str) -> Result<Floorplan, ParseUcfError> {
    let mut static_region = None;
    let mut prrs: Vec<PrrPlacement> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.contains("MODE = RECONFIG") {
            continue;
        }
        let err = |message: &str| ParseUcfError {
            line: idx + 1,
            message: message.to_string(),
        };
        if !line.starts_with("AREA_GROUP") {
            return Err(err("expected AREA_GROUP"));
        }
        let name = line
            .split('"')
            .nth(1)
            .ok_or_else(|| err("missing quoted group name"))?
            .to_string();
        let range = line
            .split("RANGE =")
            .nth(1)
            .ok_or_else(|| err("missing RANGE"))?
            .trim()
            .trim_end_matches(';')
            .trim();
        let rect = parse_slice_range(range).ok_or_else(|| err("bad SLICE range"))?;
        let repeated = match name.as_str() {
            "static" => static_region.is_some(),
            _ => prrs.iter().any(|p| p.name == name),
        };
        if repeated {
            return Err(err(&format!("AREA_GROUP \"{name}\" given more than once")));
        }
        if name == "static" {
            static_region = Some(rect);
        } else {
            prrs.push(PrrPlacement::new(name, rect));
        }
    }
    let static_region = static_region.ok_or(ParseUcfError {
        line: 0,
        message: "no static AREA_GROUP".into(),
    })?;
    Ok(Floorplan::new(device.clone(), static_region, prrs))
}

/// Parses `SLICE_X<a>Y<b>:SLICE_X<c>Y<d>`.
fn parse_slice_range(s: &str) -> Option<ClbRect> {
    let (lo, hi) = s.split_once(':')?;
    let (x0, y0) = parse_slice_coord(lo)?;
    let (x1, y1) = parse_slice_coord(hi)?;
    if x0 > x1 || y0 > y1 {
        return None;
    }
    Some(ClbRect::new(x0, x1, y0, y1))
}

fn parse_slice_coord(s: &str) -> Option<(u32, u32)> {
    let rest = s.trim().strip_prefix("SLICE_X")?;
    let (x, y) = rest.split_once('Y')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Floorplan, PrrPlacement};

    fn proto_plan() -> Floorplan {
        Floorplan::new(
            Device::xc4vlx25(),
            ClbRect::new(14, 27, 0, 95),
            vec![
                PrrPlacement::new("prr0", ClbRect::new(0, 9, 0, 15)),
                PrrPlacement::new("prr1", ClbRect::new(0, 9, 16, 31)),
            ],
        )
    }

    #[test]
    fn ucf_roundtrip() {
        let plan = proto_plan();
        let ucf = generate_ucf(&plan);
        let parsed = parse_ucf(&Device::xc4vlx25(), &ucf).unwrap();
        assert_eq!(parsed.static_region(), plan.static_region());
        assert_eq!(parsed.prrs(), plan.prrs());
        parsed.validate().unwrap();
    }

    #[test]
    fn ucf_contains_reconfig_mode() {
        let ucf = generate_ucf(&proto_plan());
        assert_eq!(ucf.matches("MODE = RECONFIG").count(), 2);
    }

    #[test]
    fn mhs_lists_all_nodes_and_components() {
        let mhs = generate_mhs(&FabricParams::prototype(), &proto_plan());
        assert!(mhs.contains("microblaze"));
        assert!(mhs.contains("prsocket_0"));
        assert!(mhs.contains("prsocket_2"));
        assert!(mhs.contains("swbox_1"));
        assert!(mhs.contains("C_KR = 2"));
        assert!(mhs.contains("fsl_to_node0"));
    }

    #[test]
    fn mss_names_library() {
        let mss = generate_mss(&FabricParams::prototype());
        assert!(mss.contains("LIBRARY_NAME = vapres"));
        assert!(mss.contains("C_NUM_NODES = 3"));
    }

    #[test]
    fn parse_rejects_garbage() {
        let dev = Device::xc4vlx25();
        assert!(parse_ucf(&dev, "WHAT").is_err());
        assert!(parse_ucf(&dev, "AREA_GROUP \"x\" RANGE = BAD ;").is_err());
        // Missing static group.
        let err = parse_ucf(&dev, "AREA_GROUP \"p\" RANGE = SLICE_X0Y0:SLICE_X1Y1 ;").unwrap_err();
        assert!(err.message.contains("static"));
        // A repeated group is an error on its second line, not a silent
        // last-one-wins (`static`) or an extra PRR (`prr0`).
        let prr = "AREA_GROUP \"prr0\" RANGE = SLICE_X0Y0:SLICE_X1Y1 ;";
        let stat = "AREA_GROUP \"static\" RANGE = SLICE_X2Y0:SLICE_X3Y1 ;";
        for (text, group) in [
            (format!("{stat}\n{stat}"), "static"),
            (format!("{stat}\n{prr}\n{prr}"), "prr0"),
        ] {
            let err = parse_ucf(&dev, &text).unwrap_err();
            assert!(err.message.contains(group), "{err}");
            assert_eq!(err.line, text.lines().count(), "{err}");
        }
    }

    #[test]
    fn parse_rejects_inverted_range() {
        assert!(parse_slice_range("SLICE_X5Y0:SLICE_X1Y1").is_none());
        assert!(parse_slice_coord("SLICE_Q1Y2").is_none());
    }
}
