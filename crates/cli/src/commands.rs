//! The `vapres` subcommands, testable against any `Write` sink.

use crate::args::{ArgError, Args};
use std::fmt;
use std::io::Write;
use vapres_bitstream::stream::{ModuleUid, PartialBitstream};
use vapres_bitstream::timing;
use vapres_fabric::geometry::{ClbRect, Device};
use vapres_fabric::resources::{ResourceBudget, ResourceKind};
use vapres_floorplan::planner::{plan, PrrRequest};
use vapres_floorplan::report::utilization_report;
use vapres_floorplan::resources::{comm_arch_slices, static_region_slices};
use vapres_floorplan::sysdef::{generate_mhs, generate_ucf, parse_ucf};
use vapres_stream::params::FabricParams;

/// A command failure (message already formatted for the user).
#[derive(Debug)]
pub struct CmdError(pub String);

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError(e.to_string())
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError(format!("io: {e}"))
    }
}

impl From<vapres_sim::persist::PersistError> for CmdError {
    fn from(e: vapres_sim::persist::PersistError) -> Self {
        CmdError(e.to_string())
    }
}

/// An output-path failure, naming the path: every file the CLI writes
/// (UCF/MHS, bitstreams, VCD, JSONL/Prometheus/trace exports, flight
/// dumps, bench artifacts, checkpoints) fails with a clear message and a
/// non-zero exit instead of a bare OS error or a panic.
fn write_err(path: &str, e: std::io::Error) -> CmdError {
    CmdError(format!("cannot write {path}: {e}"))
}

/// An input-path failure, naming the path.
fn read_err(path: &str, e: std::io::Error) -> CmdError {
    CmdError(format!("cannot read {path}: {e}"))
}

/// Opens `path` for buffered writing with a path-naming error.
fn create_output(path: &str) -> Result<std::io::BufWriter<std::fs::File>, CmdError> {
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| write_err(path, e))
}

fn device_by_name(name: &str) -> Result<Device, CmdError> {
    match name {
        "lx25" | "xc4vlx25" => Ok(Device::xc4vlx25()),
        "lx60" | "xc4vlx60" => Ok(Device::xc4vlx60()),
        "lx100" | "xc4vlx100" => Ok(Device::xc4vlx100()),
        other => Err(CmdError(format!(
            "unknown device {other:?} (lx25 | lx60 | lx100)"
        ))),
    }
}

fn fabric_params(args: &Args) -> Result<FabricParams, CmdError> {
    let base = FabricParams::prototype();
    let params = FabricParams {
        nodes: args.get_num("nodes", base.nodes)?,
        kr: args.get_num("kr", base.kr)?,
        kl: args.get_num("kl", base.kl)?,
        ki: args.get_num("ki", base.ki)?,
        ko: args.get_num("ko", base.ko)?,
        width_bits: args.get_num("width", base.width_bits)?,
        fifo_depth: args.get_num("fifo-depth", base.fifo_depth)?,
    };
    params.validate().map_err(|e| CmdError(e.to_string()))?;
    Ok(params)
}

/// `vapres resources` — the E1 slice model for arbitrary parameters.
pub fn cmd_resources(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let params = fabric_params(args)?;
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let inventory = ResourceBudget::of_device(&device);
    let device_slices = inventory.get(ResourceKind::Slice);
    let static_slices = static_region_slices(&params);
    let comm = comm_arch_slices(&params);
    writeln!(out, "device           : {device}")?;
    writeln!(
        out,
        "parameters       : N={} w={} kr={} kl={} ki={} ko={}",
        params.nodes, params.width_bits, params.kr, params.kl, params.ki, params.ko
    )?;
    writeln!(out, "comm architecture: {comm} slices")?;
    writeln!(
        out,
        "static region    : {static_slices} slices ({:.1}% of device)",
        100.0 * f64::from(static_slices) / device_slices as f64
    )?;
    if u64::from(static_slices) > device_slices {
        writeln!(out, "WARNING: static region does not fit this device")?;
    }
    Ok(())
}

/// `vapres floorplan --prrs 640,640 [--device lx25] [--ucf out.ucf] [--art yes]`.
pub fn cmd_floorplan(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let prrs: Vec<u32> = args
        .require("prrs")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CmdError(format!("bad slice count {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let requests: Vec<PrrRequest> = prrs
        .iter()
        .enumerate()
        .map(|(i, &s)| PrrRequest::new(format!("prr{i}"), s))
        .collect();
    let outcome = plan(&device, &requests).map_err(|e| CmdError(e.to_string()))?;
    for (placement, (req, alloc)) in outcome
        .floorplan
        .prrs()
        .iter()
        .zip(requests.iter().zip(&outcome.allocated))
    {
        writeln!(
            out,
            "{}: {} ({} requested, {} allocated)",
            placement.name, placement.rect, req.min_slices, alloc
        )?;
    }
    writeln!(out, "wasted slices: {}", outcome.wasted_slices(&requests))?;
    if args.get_or("art", "no") == "yes" {
        writeln!(out, "{}", outcome.floorplan.ascii_art())?;
    }
    if let Some(path) = args.get("ucf") {
        std::fs::write(path, generate_ucf(&outcome.floorplan)).map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = args.get("mhs") {
        std::fs::write(
            path,
            generate_mhs(&FabricParams::prototype(), &outcome.floorplan),
        )
        .map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// `vapres report --prrs 640,640 [--device lx25]` — the full
/// utilization report for a planned base system. With `--metrics
/// <snapshot.jsonl>` it instead digests a telemetry snapshot written by
/// `vapres sim --metrics`: swap latency breakdown per step, worst-case
/// FIFO occupancy, stall ratio per channel, and the tick-redux factor.
pub fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    if let Some(path) = args.get("metrics") {
        return cmd_report_metrics(path, out);
    }
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let params = fabric_params(args)?;
    let prrs: Vec<u32> = args
        .require("prrs")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CmdError(format!("bad slice count {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let requests: Vec<PrrRequest> = prrs
        .iter()
        .enumerate()
        .map(|(i, &s)| PrrRequest::new(format!("prr{i}"), s))
        .collect();
    let outcome = plan(&device, &requests).map_err(|e| CmdError(e.to_string()))?;
    write!(out, "{}", utilization_report(&params, &outcome.floorplan))?;
    Ok(())
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `vapres report --metrics snapshot.jsonl` — digest a telemetry
/// snapshot into the paper-facing observability summary.
fn cmd_report_metrics(path: &str, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::Ps;
    use vapres_sim::telemetry::{parse_jsonl, Record};

    let text = std::fs::read_to_string(path).map_err(|e| read_err(path, e))?;
    let records = parse_jsonl(&text).map_err(|e| CmdError(e.to_string()))?;

    // Swap latency breakdown: the nine Fig. 5 step spans tile the swap
    // interval, so their durations sum to the measured swap latency.
    let mut steps: Vec<(&str, u64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span {
                name,
                label,
                start_ps,
                end_ps,
            } if name == "swap_step" => Some((label.as_str(), end_ps - start_ps)),
            _ => None,
        })
        .collect();
    steps.sort_by(|a, b| a.0.cmp(b.0));
    if steps.is_empty() {
        writeln!(out, "no swap recorded (no swap_step spans in snapshot)")?;
    } else {
        let total: u64 = steps.iter().map(|s| s.1).sum();
        writeln!(out, "seamless swap latency breakdown:")?;
        for (label, dur) in &steps {
            writeln!(
                out,
                "  {label:<24} {:>14}  ({:5.1}%)",
                format!("{}", Ps::new(*dur)),
                100.0 * *dur as f64 / total as f64
            )?;
        }
        writeln!(
            out,
            "  {:<24} {:>14}",
            "total",
            format!("{}", Ps::new(total))
        )?;
    }

    let worst_fifo = records
        .iter()
        .filter_map(|r| match r {
            Record::Gauge {
                name,
                labels,
                value,
            } if name == "fifo_high_water" => Some((labels, *value)),
            _ => None,
        })
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((labels, words)) = worst_fifo {
        writeln!(
            out,
            "worst-case FIFO occupancy: {words:.0} words ({})",
            fmt_labels(labels)
        )?;
    }

    let mut any_channel = false;
    for r in &records {
        if let Record::Gauge {
            name,
            labels,
            value,
        } = r
        {
            if name == "channel_stall_ratio" {
                if !any_channel {
                    writeln!(out, "stall ratio per channel:")?;
                    any_channel = true;
                }
                writeln!(out, "  {}: {value:.4}", fmt_labels(labels))?;
            }
        }
    }

    // The paper's interruption metric: whole sample slots with no output
    // word (0 for a seamless swap), with the raw delay alongside.
    for r in &records {
        if let Record::Counter {
            name,
            labels,
            value,
        } = r
        {
            if name == "iom_missed_slots_total" {
                let excess = records
                    .iter()
                    .find_map(|r| match r {
                        Record::Gauge {
                            name,
                            labels: l,
                            value,
                        } if name == "iom_excess_gap_ps" && l == labels => Some(*value),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                writeln!(
                    out,
                    "stream interruption ({}): {value} missed sample slots \
                     (delayed {} beyond nominal cadence)",
                    fmt_labels(labels),
                    Ps::new(excess as u64)
                )?;
            }
        }
    }

    if let Some(redux) = records.iter().find_map(|r| match r {
        Record::Gauge { name, value, .. } if name == "exec_tick_reduction" => Some(*value),
        _ => None,
    }) {
        writeln!(out, "executor tick-redux factor: {redux:.1}x")?;
    }

    // Staged-bitstream cache digest (present only when the run armed the
    // cache): the hit rate and the measured frame-dedup + RLE compression
    // ratio of the resident streams.
    let counter = |want: &str| {
        records.iter().find_map(|r| match r {
            Record::Counter { name, value, .. } if name == want => Some(*value),
            _ => None,
        })
    };
    let gauge = |want: &str| {
        records.iter().find_map(|r| match r {
            Record::Gauge { name, value, .. } if name == want => Some(*value),
            _ => None,
        })
    };
    if let (Some(hits), Some(misses)) = (
        counter("bitstream_cache_hits_total"),
        counter("bitstream_cache_misses_total"),
    ) {
        let saved = counter("bitstream_cache_bytes_saved_total").unwrap_or(0);
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        writeln!(
            out,
            "bitstream cache: {hits} hits / {misses} misses ({:.0}% hit rate), \
             {saved} storage-transfer bytes skipped",
            100.0 * rate
        )?;
        if let Some(ratio) = gauge("bitstream_cache_compression_ratio") {
            writeln!(
                out,
                "bitstream compression (frame dedup + RLE): {ratio:.2}x over resident streams"
            )?;
        }
    }

    // Latency distributions: p50/p95/p99 bucket upper bounds for every
    // histogram in the snapshot (ICAP write bursts, word end-to-end
    // latency, per-stage cycle counts).
    let mut any_hist = false;
    for r in &records {
        if let Record::Histogram {
            name,
            labels,
            bucket_width,
            counts,
        } = r
        {
            let hist = vapres_sim::stats::Histogram::try_from_parts(
                *bucket_width,
                counts.clone(),
                None,
                None,
            )
            .map_err(|e| CmdError(format!("{path}: histogram {name:?}: {e}")))?;
            let (Some(p50), Some(p95), Some(p99)) = (
                hist.percentile(0.50),
                hist.percentile(0.95),
                hist.percentile(0.99),
            ) else {
                continue;
            };
            if !any_hist {
                writeln!(out, "latency distributions (bucket upper bounds):")?;
                any_hist = true;
            }
            let tag = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name} {}", fmt_labels(labels))
            };
            writeln!(
                out,
                "  {tag}: n={} p50<={p50} p95<={p95} p99<={p99}",
                hist.total()
            )?;
        }
    }
    Ok(())
}

/// `vapres check-ucf <file> [--device lx25]`.
pub fn cmd_check_ucf(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let path = args
        .positionals()
        .first()
        .ok_or_else(|| CmdError("usage: vapres check-ucf <file.ucf>".into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| read_err(path, e))?;
    let floorplan = parse_ucf(&device, &text).map_err(|e| CmdError(e.to_string()))?;
    floorplan.validate().map_err(|e| CmdError(e.to_string()))?;
    writeln!(
        out,
        "{path}: valid ({} PRRs on {})",
        floorplan.prrs().len(),
        device.name()
    )?;
    Ok(())
}

fn parse_rect(spec: &str) -> Result<ClbRect, CmdError> {
    let parts: Vec<u32> = spec
        .split(':')
        .map(|s| {
            s.parse()
                .map_err(|_| CmdError(format!("bad rect component {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    match parts[..] {
        [c0, c1, r0, r1] if c0 <= c1 && r0 <= r1 => Ok(ClbRect::new(c0, c1, r0, r1)),
        _ => Err(CmdError(
            "rect must be COL_LO:COL_HI:ROW_LO:ROW_HI with lo <= hi".into(),
        )),
    }
}

/// `vapres bitgen --rect 0:9:0:15 --uid 1a2b --out file.bit [--device lx25]`.
pub fn cmd_bitgen(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let rect = parse_rect(args.require("rect")?)?;
    let uid = u32::from_str_radix(args.require("uid")?, 16)
        .map_err(|_| CmdError("--uid must be hex".into()))?;
    let path = args.require("out")?;
    let bs = PartialBitstream::generate(&device, &rect, ModuleUid(uid))
        .map_err(|e| CmdError(e.to_string()))?;
    std::fs::write(path, bs.to_bytes()).map_err(|e| write_err(path, e))?;
    writeln!(
        out,
        "wrote {path}: {} bytes, {} slices, module#{uid:08x}",
        bs.len_bytes(),
        device.slices_in(&rect)
    )?;
    Ok(())
}

/// `vapres bitinfo <file.bit>` — parse and describe a bitstream file.
pub fn cmd_bitinfo(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = args
        .positionals()
        .first()
        .ok_or_else(|| CmdError("usage: vapres bitinfo <file.bit>".into()))?;
    let bytes = std::fs::read(path).map_err(|e| read_err(path, e))?;
    let parsed = PartialBitstream::from_bytes(&bytes).map_err(|e| CmdError(e.to_string()))?;
    writeln!(out, "file     : {path} ({} bytes)", bytes.len())?;
    writeln!(out, "idcode   : {:#010x}", parsed.idcode)?;
    writeln!(out, "module   : {}", parsed.uid)?;
    writeln!(out, "frames   : {}", parsed.frames.len())?;
    let first = parsed.frames.first().map(|(f, _)| *f);
    let last = parsed.frames.last().map(|(f, _)| *f);
    if let (Some(a), Some(b)) = (first, last) {
        writeln!(out, "far range: {a} .. {b}")?;
    }
    Ok(())
}

/// `vapres reconfig-time --bytes N | --rect ...` — predict both API paths.
pub fn cmd_reconfig_time(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let bytes: u64 = if let Some(spec) = args.get("rect") {
        let device = device_by_name(args.get_or("device", "lx25"))?;
        let rect = parse_rect(spec)?;
        PartialBitstream::generate(&device, &rect, ModuleUid(0))
            .map_err(|e| CmdError(e.to_string()))?
            .len_bytes()
    } else {
        args.get_num("bytes", 0u64)?
    };
    if bytes == 0 {
        return Err(CmdError("give --bytes N or --rect C0:C1:R0:R1".into()));
    }
    let words = bytes / 4;
    let icap = timing::icap_write_time(words);
    let cf = timing::cf_read_time(bytes) + icap;
    let sdram = timing::sdram_copy_time(bytes) + icap;
    writeln!(out, "bitstream      : {bytes} bytes")?;
    writeln!(out, "vapres_cf2icap   : {cf}")?;
    writeln!(out, "vapres_array2icap: {sdram}")?;
    writeln!(
        out,
        "speedup          : {:.1}x",
        cf.as_secs_f64() / sdram.as_secs_f64()
    )?;
    Ok(())
}

fn stage_by_name(name: &str) -> Result<vapres_core::ModuleUid, CmdError> {
    use vapres_modules::uids;
    match name.trim() {
        "passthrough" => Ok(uids::PASSTHROUGH),
        "scaler" => Ok(uids::SCALER),
        "delta-enc" => Ok(uids::DELTA_ENCODER),
        "delta-dec" => Ok(uids::DELTA_DECODER),
        "avg" => Ok(uids::MOVING_AVERAGE),
        "fir-a" => Ok(uids::FIR_A),
        "fir-b" => Ok(uids::FIR_B),
        other => Err(CmdError(format!(
            "unknown stage {other:?} \
             (passthrough | scaler | delta-enc | delta-dec | avg | fir-a | fir-b)"
        ))),
    }
}

/// Builds the paper's E3 scenario on `sys` (Fig. 5): IOM (node 0) →
/// FIR A (node 1) → IOM, with FIR B staged in SDRAM. For a seamless
/// swap the FIR B bitstream targets the spare PRR (node 2); for the
/// halt-and-swap baseline it targets the active PRR (node 1) so the
/// module is replaced in place. Returns the ready-to-run swap spec.
fn setup_e3_swap(
    sys: &mut vapres_core::system::VapresSystem,
    halt: bool,
) -> Result<vapres_core::switching::SwapSpec, CmdError> {
    use vapres_core::switching::{BitstreamSource, SwapSpec};
    use vapres_core::{PortRef, Ps};
    use vapres_modules::uids;

    let core = |e: vapres_core::ApiError| CmdError(e.to_string());
    sys.install_bitstream(0, uids::FIR_A, "fir_a_prr0.bit")
        .map_err(core)?;
    if halt {
        sys.install_bitstream(0, uids::FIR_B, "fir_b_prr0.bit")
            .map_err(core)?;
        sys.vapres_cf2array("fir_b_prr0.bit", "fir_b")
            .map_err(core)?;
    } else {
        sys.install_bitstream(1, uids::FIR_B, "fir_b_prr1.bit")
            .map_err(core)?;
        sys.vapres_cf2array("fir_b_prr1.bit", "fir_b")
            .map_err(core)?;
    }
    sys.vapres_cf2icap("fir_a_prr0.bit").map_err(core)?;
    let upstream = sys
        .vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
        .map_err(core)?;
    let downstream = sys
        .vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
        .map_err(core)?;
    sys.bring_up_node(0, false).map_err(core)?;
    sys.bring_up_node(1, false).map_err(core)?;
    Ok(SwapSpec {
        active_node: 1,
        spare_node: 2,
        source: BitstreamSource::Sdram("fir_b".into()),
        upstream,
        downstream,
        clk_sel: false,
        timeout: Ps::from_ms(10),
    })
}

/// Writes the system's flight ring to `path` as JSON Lines.
fn write_flight_dump(
    sys: &mut vapres_core::system::VapresSystem,
    path: &str,
) -> Result<(), CmdError> {
    let mut file = create_output(path)?;
    sys.dump_flight_jsonl(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| write_err(path, e))?;
    Ok(())
}

/// Magic bytes opening a CLI checkpoint file: a driver-meta envelope
/// (what remains of the scenario) followed by the raw system snapshot.
const CKPT_MAGIC: [u8; 8] = *b"VAPRESRP";
/// Version of the envelope, independent of the snapshot format version.
/// v2 appends the checkpoint ordinal, so a replay can stamp a `restore`
/// flight event naming the image it resumed from.
const CKPT_META_VERSION: u32 = 2;

/// Where the run stood when the checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CkptPhase {
    /// A plain pipeline run: nothing left but draining the input.
    NoSwap,
    /// The E3 swap has not happened yet; replay performs it.
    PendingSeamless,
    /// Like [`CkptPhase::PendingSeamless`] but via halt-and-swap.
    PendingHalt,
    /// The swap already completed before the checkpoint.
    SwapDone,
}

/// The driver metadata a replay needs to finish the scenario.
#[derive(Debug, Clone, Copy)]
struct CkptMeta {
    phase: CkptPhase,
    /// The run deliberately pointed the swap at a missing SDRAM array.
    fail_swap: bool,
    /// Channel ids of the E3 stream (only meaningful for pending swaps).
    upstream: u64,
    downstream: u64,
    /// Sequence number of the checkpoint within its run (`ckpt_NNNN`);
    /// replay stamps it into the `restore` flight event.
    ordinal: u64,
}

impl CkptMeta {
    fn encode(&self, w: &mut vapres_sim::persist::Writer) {
        w.put_raw(&CKPT_MAGIC);
        w.put_u32(CKPT_META_VERSION);
        w.put_u8(match self.phase {
            CkptPhase::NoSwap => 0,
            CkptPhase::PendingSeamless => 1,
            CkptPhase::PendingHalt => 2,
            CkptPhase::SwapDone => 3,
        });
        w.put_bool(self.fail_swap);
        w.put_u64(self.upstream);
        w.put_u64(self.downstream);
        w.put_u64(self.ordinal);
    }
}

/// Splits a checkpoint file into its driver metadata and the raw system
/// snapshot bytes.
fn parse_checkpoint_file(bytes: &[u8]) -> Result<(CkptMeta, &[u8]), CmdError> {
    use vapres_sim::persist::Reader;
    let mut r = Reader::new(bytes);
    let magic = r
        .take_raw(CKPT_MAGIC.len())
        .map_err(|_| CmdError("not a vapres checkpoint (file too short)".into()))?;
    if magic != CKPT_MAGIC {
        return Err(CmdError(
            "not a vapres checkpoint (expected a file written by --checkpoint-every)".into(),
        ));
    }
    let version = r.take_u32()?;
    if version != CKPT_META_VERSION {
        return Err(CmdError(format!(
            "checkpoint meta version {version} unsupported (this build reads {CKPT_META_VERSION})"
        )));
    }
    let phase = match r.take_u8()? {
        0 => CkptPhase::NoSwap,
        1 => CkptPhase::PendingSeamless,
        2 => CkptPhase::PendingHalt,
        3 => CkptPhase::SwapDone,
        other => return Err(CmdError(format!("corrupt checkpoint: phase byte {other}"))),
    };
    let fail_swap = r.take_bool()?;
    let upstream = r.take_u64()?;
    let downstream = r.take_u64()?;
    let ordinal = r.take_u64()?;
    let n = r.remaining();
    let image = r.take_raw(n)?;
    Ok((
        CkptMeta {
            phase,
            fail_swap,
            upstream,
            downstream,
            ordinal,
        },
        image,
    ))
}

/// Periodic checkpoint emission for `vapres sim`.
struct CkptSink<'a> {
    dir: &'a str,
    every: vapres_core::Ps,
    seq: u32,
}

impl CkptSink<'_> {
    /// Writes one numbered checkpoint file and reports it.
    fn emit(
        &mut self,
        sys: &mut vapres_core::system::VapresSystem,
        meta: &CkptMeta,
        out: &mut dyn Write,
    ) -> Result<(), CmdError> {
        let ordinal = u64::from(self.seq);
        // Note the event first so it rides inside the image: a restored
        // flight ring shows the checkpoint it was cut at.
        sys.note_flight(vapres_sim::flight::FlightEvent::Checkpoint { ordinal });
        let meta = CkptMeta { ordinal, ..*meta };
        let mut w = vapres_sim::persist::Writer::new();
        meta.encode(&mut w);
        w.put_raw(&sys.checkpoint());
        let path = format!("{}/ckpt_{:04}.vapresck", self.dir, self.seq);
        std::fs::write(&path, w.into_bytes()).map_err(|e| write_err(&path, e))?;
        writeln!(out, "checkpoint {path} (t={})", sys.now())?;
        self.seq += 1;
        Ok(())
    }
}

/// Runs the system for up to `budget`, pausing every `sink.every` of
/// simulated time to emit a checkpoint; stops early once `done` holds at
/// a slice boundary. Returns whether `done` held on exit.
fn run_checkpointed(
    sys: &mut vapres_core::system::VapresSystem,
    budget: vapres_core::Ps,
    sink: &mut CkptSink<'_>,
    meta: &CkptMeta,
    done: impl Fn(&vapres_core::system::VapresSystem) -> bool,
    out: &mut dyn Write,
) -> Result<bool, CmdError> {
    use vapres_core::Ps;
    let mut elapsed: u64 = 0;
    while elapsed < budget.as_ps() {
        if done(sys) {
            return Ok(true);
        }
        let slice = sink.every.as_ps().min(budget.as_ps() - elapsed);
        sys.run_for(Ps::new(slice));
        elapsed += slice;
        sink.emit(sys, meta, out)?;
    }
    Ok(done(sys))
}

/// The shared tail of `vapres replay` and `vapres sim --restore`:
/// restore the snapshot, finish whatever the metadata says remains of
/// the scenario, and (optionally) re-judge the watchdog monitors.
fn replay_from(path: &str, until_breach: bool, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::config::SystemConfig;
    use vapres_core::module::ModuleLibrary;
    use vapres_core::switching::{halt_and_swap, seamless_swap, BitstreamSource, SwapSpec};
    use vapres_core::system::VapresSystem;
    use vapres_core::{evaluate_health, ChannelId, HealthPolicy, Ps};
    use vapres_modules::register_standard_modules;

    let bytes = std::fs::read(path).map_err(|e| read_err(path, e))?;
    let (meta, image) = parse_checkpoint_file(&bytes)?;
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::restore(SystemConfig::prototype(), lib, image)
        .map_err(|e| CmdError(format!("{path}: {e}")))?;
    sys.note_flight(vapres_sim::flight::FlightEvent::Restore {
        ordinal: meta.ordinal,
    });
    sys.note_flight(vapres_sim::flight::FlightEvent::Replay { until_breach });
    writeln!(
        out,
        "restored {path}: t={}, {} input words pending",
        sys.now(),
        sys.iom_pending_input(0)
    )?;

    let report = match meta.phase {
        CkptPhase::PendingSeamless | CkptPhase::PendingHalt => {
            let spec = SwapSpec {
                active_node: 1,
                spare_node: 2,
                source: BitstreamSource::Sdram(if meta.fail_swap {
                    "nonexistent".into()
                } else {
                    "fir_b".into()
                }),
                upstream: ChannelId(meta.upstream as usize),
                downstream: ChannelId(meta.downstream as usize),
                clk_sel: false,
                timeout: Ps::from_ms(10),
            };
            let swapped = if meta.phase == CkptPhase::PendingHalt {
                halt_and_swap(&mut sys, &spec)
            } else {
                seamless_swap(&mut sys, &spec)
            };
            let report = swapped.map_err(|e| CmdError(format!("swap failed: {e}")))?;
            writeln!(
                out,
                "swap       : {} total ({} reconfig, {} state words)",
                report.total(),
                report.reconfig.total(),
                report.state_words
            )?;
            Some(report)
        }
        CkptPhase::NoSwap | CkptPhase::SwapDone => None,
    };

    let done = sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    if !done {
        return Err(CmdError("replay stalled before consuming input".into()));
    }
    sys.run_for(Ps::from_us(100));
    writeln!(out, "samples out: {}", sys.iom_output(0).len())?;
    writeln!(out, "sim time   : {}", sys.now())?;
    if let Some(tput) = sys.iom_gap(0).throughput_per_s() {
        writeln!(out, "throughput : {:.3} MS/s", tput / 1e6)?;
    }

    if until_breach {
        let health = evaluate_health(&mut sys, &HealthPolicy::e3_seamless(), report.as_ref());
        health.write_text(out)?;
        if health.healthy() {
            writeln!(out, "no breach reproduced")?;
        } else {
            let first = health
                .breaches()
                .next()
                .map_or_else(|| "?".to_string(), |b| b.monitor.name.clone());
            return Err(CmdError(format!(
                "breach reproduced: {first} ({} of {} monitors)",
                health.breaches().count(),
                health.verdicts().len()
            )));
        }
    }
    Ok(())
}

/// `vapres replay <checkpoint> [--until-breach yes]` — resume a
/// checkpoint written by `vapres sim --checkpoint-every` and drive the
/// rest of the scenario: the swap (if it had not happened yet), the
/// drain, the settle. With `--until-breach yes` the watchdog monitors
/// are re-judged at the end and the command exits non-zero naming the
/// first breached monitor — divergence-point replay: bisect a long run
/// by its checkpoints, then replay the one right before the breach.
pub fn cmd_replay(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = args.positionals().first().ok_or_else(|| {
        CmdError("usage: vapres replay <checkpoint.vapresck> [--until-breach yes]".into())
    })?;
    replay_from(path, args.get_or("until-breach", "no") == "yes", out)
}

/// `vapres sim [--stages scaler,avg] [--samples N] [--interval CYCLES]
/// [--stats yes] [--vcd out.vcd] [--swap yes] [--metrics out.jsonl]
/// [--trace-json out.json] [--prom out.prom] [--trace-words N]
/// [--flight-dump out.jsonl] [--fail-swap yes]` — deploy a kernel
/// pipeline on the prototype system, stream samples through it on the
/// event-driven executor, and report throughput (plus executor work
/// counters and a VCD waveform dump on request).
///
/// `--swap yes` runs the paper's E3 scenario instead of a pipeline:
/// FIR A streams live while FIR B is reconfigured into the spare PRR,
/// then the nine-step seamless swap hands the stream over. The metrics
/// flags enable the telemetry registry and export a snapshot (JSON
/// lines), a chrome://tracing timeline, and Prometheus-style text.
///
/// `--trace-words N` tags every Nth streamed word with a provenance
/// sequence ID and reports end-to-end latency percentiles;
/// `--flight-dump` arms the always-on flight recorder and writes its
/// ring to the given path — on a swap failure or panic the dump happens
/// before the error propagates, so the tail of the ring is the causal
/// trail into the failure. `--fail-swap yes` (with `--swap yes`) points
/// the swap at a missing SDRAM array to demonstrate exactly that.
///
/// `--checkpoint-every N --checkpoint-dir D` pauses the run every N
/// microseconds of simulated time and writes a numbered, bit-exact
/// system snapshot (`D/ckpt_NNNN.vapresck`) that `vapres replay` — or
/// `vapres sim --restore <file>` — resumes from. Checkpoint boundaries
/// change where the drain loop samples its stop condition, so a
/// checkpointed run may report a slightly later sim time than an
/// uncheckpointed one; each run is itself fully deterministic.
pub fn cmd_sim(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::config::SystemConfig;
    use vapres_core::module::ModuleLibrary;
    use vapres_core::switching::{seamless_swap, BitstreamSource};
    use vapres_core::system::VapresSystem;
    use vapres_core::Ps;
    use vapres_kpn::{deploy, map_pipeline, Pipeline};
    use vapres_modules::register_standard_modules;

    if let Some(path) = args.get("restore") {
        // Resuming an existing checkpoint: the snapshot already carries
        // the whole scenario state, so every setup flag is moot.
        return replay_from(path, false, out);
    }

    let ckpt_every: u64 = args.get_num("checkpoint-every", 0u64)?;
    let mut ckpt = match (ckpt_every, args.get("checkpoint-dir")) {
        (0, None) => None,
        (0, Some(_)) => {
            return Err(CmdError(
                "--checkpoint-dir needs --checkpoint-every N (microseconds of simulated time)"
                    .into(),
            ))
        }
        (_, None) => {
            return Err(CmdError(
                "--checkpoint-every needs --checkpoint-dir DIR".into(),
            ))
        }
        (us, Some(dir)) => {
            std::fs::create_dir_all(dir).map_err(|e| write_err(dir, e))?;
            Some(CkptSink {
                dir,
                every: Ps::from_us(us),
                seq: 0,
            })
        }
    };

    let swap = args.get_or("swap", "no") == "yes";
    let samples: u32 = args.get_num("samples", if swap { 20_000 } else { 1_000 })?;
    let interval: u64 = args.get_num("interval", if swap { 500 } else { 1 })?;
    if interval == 0 {
        return Err(CmdError("--interval must be >= 1".into()));
    }
    let trace_words: u32 = args.get_num("trace-words", 0u32)?;
    let flight_path = args.get("flight-dump");
    let sample_every_us: u64 = args.get_num("sample-every", 0u64)?;
    let wants_timeseries = args.get("timeseries").is_some()
        || args.get("timeseries-trace").is_some()
        || args.get("timeseries-csv").is_some();
    if (wants_timeseries || args.get("live-port").is_some()) && sample_every_us == 0 {
        return Err(CmdError(
            "--timeseries/--timeseries-trace/--timeseries-csv/--live-port need \
             --sample-every N (microseconds of simulated time)"
                .into(),
        ));
    }
    let profile = args.get_or("profile", "no") == "yes";
    if (args.get("flame").is_some() || args.get("cost-model").is_some()) && !profile {
        return Err(CmdError("--flame/--cost-model need --profile yes".into()));
    }
    let bitstream_cache: usize = args.get_num("bitstream-cache", 0usize)?;
    let stages = args
        .get_or("stages", "scaler")
        .split(',')
        .map(stage_by_name)
        .collect::<Result<Vec<_>, _>>()?;

    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys =
        VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| CmdError(e.to_string()))?;
    if args.get("vcd").is_some() {
        sys.enable_tracing();
    }
    let want_metrics = args.get("metrics").is_some()
        || args.get("trace-json").is_some()
        || args.get("prom").is_some();
    if want_metrics {
        sys.enable_telemetry();
    }
    if trace_words > 0 {
        sys.enable_word_trace(trace_words);
    }
    if profile {
        sys.enable_profiling();
    }
    if bitstream_cache > 0 {
        sys.enable_bitstream_cache(bitstream_cache);
    }
    if flight_path.is_some() {
        sys.enable_flight_recorder(vapres_sim::flight::DEFAULT_CAPACITY);
    }
    if sample_every_us > 0 {
        sys.enable_timeseries(
            Ps::from_us(sample_every_us),
            vapres_core::TimeSeries::DEFAULT_CAPACITY,
        );
    }
    // Held until the run finishes: dropping the server stops the
    // responder thread.
    let _live = match args.get("live-port") {
        None => None,
        Some(spec) => {
            let port: u16 = spec
                .parse()
                .map_err(|_| CmdError(format!("--live-port: cannot parse {spec:?}")))?;
            let server = crate::live::LiveServer::start(port)
                .map_err(|e| CmdError(format!("--live-port {port}: {e}")))?;
            let payloads = server.payloads();
            sys.set_live_sink(
                vapres_core::HealthPolicy::e3_seamless(),
                Box::new(move |snap| {
                    let mut p = payloads.lock().expect("live payload lock");
                    p.metrics = snap.prometheus.clone();
                    p.health = snap.health.clone();
                    p.flight = snap.flight.clone();
                }),
            );
            writeln!(
                out,
                "live endpoint: http://127.0.0.1:{}/metrics /health /flight",
                server.port()
            )?;
            Some(server)
        }
    };
    sys.iom_set_input_interval(0, interval);

    if swap {
        let mut spec = setup_e3_swap(&mut sys, false)?;
        let fail_swap = args.get_or("fail-swap", "no") == "yes";
        if fail_swap {
            // A deliberately broken source: the swap dies reconfiguring
            // the spare, exercising the flight-dump-on-failure path.
            spec.source = BitstreamSource::Sdram("nonexistent".into());
        }
        let meta = CkptMeta {
            phase: CkptPhase::PendingSeamless,
            fail_swap,
            upstream: spec.upstream.0 as u64,
            downstream: spec.downstream.0 as u64,
            ordinal: 0,
        };

        sys.iom_feed(0, 0..samples);
        match &mut ckpt {
            None => sys.run_for(Ps::from_ms(1)),
            Some(sink) => {
                run_checkpointed(&mut sys, Ps::from_ms(1), sink, &meta, |_| false, out)?;
            }
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seamless_swap(&mut sys, &spec)
        }));
        let swapped = match caught {
            Ok(r) => r,
            Err(panic) => {
                // Flush the causal trail before the panic continues up.
                if let Some(path) = flight_path {
                    let _ = write_flight_dump(&mut sys, path);
                }
                std::panic::resume_unwind(panic);
            }
        };
        let report = match swapped {
            Ok(r) => r,
            Err(e) => {
                if let Some(path) = flight_path {
                    write_flight_dump(&mut sys, path)?;
                    writeln!(out, "wrote {path}: flight ring at failure")?;
                }
                return Err(CmdError(format!("swap failed: {e}")));
            }
        };
        let drained = CkptMeta {
            phase: CkptPhase::SwapDone,
            ..meta
        };
        // The moment right after the handoff is the most useful replay
        // point, and the drain below may already be satisfied (the input
        // finishes feeding during the ~72 ms reconfiguration) — emit it
        // unconditionally rather than only at slice boundaries.
        if let Some(sink) = &mut ckpt {
            sink.emit(&mut sys, &drained, out)?;
        }
        let done = match &mut ckpt {
            None => sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0),
            Some(sink) => run_checkpointed(
                &mut sys,
                Ps::from_ms(300),
                sink,
                &drained,
                |s| s.iom_pending_input(0) == 0,
                out,
            )?,
        };
        if !done {
            return Err(CmdError(
                "swap scenario stalled before consuming input".into(),
            ));
        }
        sys.run_for(Ps::from_us(100));
        writeln!(out, "pipeline   : fir-a -> fir-b (seamless swap)")?;
        writeln!(
            out,
            "swap       : {} total ({} reconfig, {} state words)",
            report.total(),
            report.reconfig.total(),
            report.state_words
        )?;
    } else {
        let pipeline = Pipeline::new(stages);
        let mapping = map_pipeline(sys.config(), &pipeline).map_err(|e| CmdError(e.to_string()))?;
        deploy(&mut sys, &pipeline, &mapping).map_err(|e| CmdError(e.to_string()))?;

        sys.iom_feed(0, 0..samples);
        let stream_done =
            |s: &VapresSystem| s.iom_pending_input(0) == 0 && !s.iom_output(0).is_empty();
        let done = match &mut ckpt {
            None => sys.run_until(Ps::from_ms(100), stream_done),
            Some(sink) => {
                let meta = CkptMeta {
                    phase: CkptPhase::NoSwap,
                    fail_swap: false,
                    upstream: 0,
                    downstream: 0,
                    ordinal: 0,
                };
                run_checkpointed(&mut sys, Ps::from_ms(100), sink, &meta, stream_done, out)?
            }
        };
        if !done {
            return Err(CmdError("simulation stalled before consuming input".into()));
        }
        // Let in-flight words drain: a variable-rate pipeline may emit fewer
        // or more words than it consumed, so run a fixed settle window.
        sys.run_for(Ps::from_us(100));
        writeln!(out, "pipeline   : {}", args.get_or("stages", "scaler"))?;
    }

    writeln!(
        out,
        "samples in : {samples} (1 per {interval} fabric cycles)"
    )?;
    writeln!(out, "samples out: {}", sys.iom_output(0).len())?;
    writeln!(out, "sim time   : {}", sys.now())?;
    if let Some(tput) = sys.iom_gap(0).throughput_per_s() {
        writeln!(out, "throughput : {:.3} MS/s", tput / 1e6)?;
    }
    if let Some(gap) = sys.iom_gap(0).max_gap() {
        writeln!(out, "max gap    : {gap}")?;
    }
    if let Some(cache) = sys.bitstream_cache() {
        let s = cache.stats();
        writeln!(
            out,
            "bs cache   : {} hits, {} misses, {} evictions; {} transfer bytes skipped; \
             frame dedup + RLE {:.2}x",
            s.hits,
            s.misses,
            s.evictions,
            s.bytes_saved,
            s.compression_ratio()
        )?;
    }

    if trace_words > 0 {
        // Harvest latencies into the telemetry registry (if enabled) and
        // print the end-to-end percentiles directly from the trace.
        if want_metrics {
            let _ = sys.snapshot_metrics();
        }
        let tr = sys.word_trace().expect("word trace was enabled above");
        let tagged = tr.tagged();
        let completed = tr.completed();
        let mut hist = vapres_sim::stats::Histogram::new(250_000, 64);
        for lat in tr.latencies_ps() {
            hist.add(lat);
        }
        write!(out, "word trace : {tagged} tagged, {completed} completed")?;
        if let (Some(p50), Some(p95), Some(p99)) = (
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99),
        ) {
            write!(
                out,
                "; e2e latency p50<={} p95<={} p99<={} max={}",
                Ps::new(p50),
                Ps::new(p95),
                Ps::new(p99),
                Ps::new(hist.max().unwrap_or(0)),
            )?;
        }
        writeln!(out)?;
    }

    if profile {
        // Mark the export point before the flight ring is written, so a
        // dumped ring shows where the profiler's numbers were taken.
        sys.note_profile_dump();
    }
    if let Some(path) = flight_path {
        write_flight_dump(&mut sys, path)?;
        let n = sys.flight().map_or(0, |f| f.events().count());
        writeln!(out, "wrote {path}: flight ring ({n} events)")?;
    }

    if args.get_or("stats", "no") == "yes" {
        let stats = sys.exec_stats();
        writeln!(out, "\nexecutor work counters (event-driven scheduling):")?;
        for (dom, d) in stats.domains() {
            writeln!(
                out,
                "  domain {}: {} edges delivered, {} fast-forwarded, \
                 {} ticks, {} skips",
                dom.0, d.edges, d.ff_edges, d.ticks, d.skips
            )?;
        }
        writeln!(
            out,
            "  dense-equivalent ticks: {}, dispatched: {} ({:.1}x reduction)",
            stats.dense_equivalent_ticks(),
            stats.total_ticks(),
            stats.tick_reduction()
        )?;
    }

    if let Some(path) = args.get("vcd") {
        let tracer = sys.tracer().expect("tracing was enabled above");
        let mut file = create_output(path)?;
        tracer
            .write_vcd(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}: {} signal changes", tracer.len())?;
    }

    if want_metrics {
        let t = sys.snapshot_metrics().expect("telemetry was enabled above");
        if let Some(path) = args.get("metrics") {
            let mut file = create_output(path)?;
            t.write_jsonl(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(
                out,
                "wrote {path}: {} metrics + {} spans",
                t.len(),
                t.spans().len()
            )?;
        }
        if let Some(path) = args.get("trace-json") {
            let mut file = create_output(path)?;
            t.write_chrome_trace(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: chrome://tracing timeline")?;
        }
        if let Some(path) = args.get("prom") {
            let mut file = create_output(path)?;
            t.write_prometheus(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: prometheus text")?;
        }
    }

    if let Some(ts) = sys.timeseries() {
        writeln!(
            out,
            "timeseries : {} frames captured ({} retained, {} metrics, every {})",
            ts.frames_captured(),
            ts.frames_retained(),
            ts.column_count(),
            ts.interval()
        )?;
        if let Some(path) = args.get("timeseries") {
            let mut file = create_output(path)?;
            ts.write_jsonl(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: time-series JSONL")?;
        }
        if let Some(path) = args.get("timeseries-trace") {
            let mut file = create_output(path)?;
            // With the profiler armed, its completed-scope ring rides in
            // the same file as an "X" duration track (tid 1) next to the
            // counter track (tid 0).
            match sys.profiler() {
                Some(p) => ts.write_chrome_trace_with_events(&mut file, p.chrome_events()),
                None => ts.write_chrome_trace(&mut file),
            }
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
            if sys.profiler().is_some() {
                writeln!(out, "wrote {path}: chrome://tracing counter + scope tracks")?;
            } else {
                writeln!(out, "wrote {path}: chrome://tracing counter track")?;
            }
        }
        if let Some(path) = args.get("timeseries-csv") {
            let mut file = create_output(path)?;
            ts.write_csv(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: per-metric CSV")?;
        }
    }

    if profile {
        let model = sys
            .profile_cost_model()
            .expect("profiler was enabled above");
        let prof = sys.profiler().expect("profiler was enabled above");
        writeln!(out, "\nprofile: top scopes by host self time")?;
        prof.write_top_table(&mut *out, 10)?;
        if let Some(path) = args.get("flame") {
            let mut file = create_output(path)?;
            prof.write_collapsed(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: collapsed stacks (flamegraph input)")?;
        }
        if let Some(path) = args.get("cost-model") {
            let mut file = create_output(path)?;
            model
                .write_json(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(
                out,
                "wrote {path}: cost model ({} components)",
                model.rows.len()
            )?;
        }
    }
    Ok(())
}

/// `vapres health [--halt yes] [--samples N] [--interval CYCLES]
/// [--flight-dump out.jsonl]` — run the paper's E3 swap scenario under
/// the watchdog and print a monitor-by-monitor health report.
///
/// The default (seamless swap) passes every monitor: zero missed sample
/// slots, bounded FIFO occupancy, swap phases within budget. `--halt
/// yes` runs the halt-and-swap baseline instead, which breaches the
/// stream-interruption monitors — the command then exits non-zero, so
/// it doubles as a regression gate for seamlessness.
pub fn cmd_health(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::config::SystemConfig;
    use vapres_core::module::ModuleLibrary;
    use vapres_core::switching::{halt_and_swap, seamless_swap};
    use vapres_core::system::VapresSystem;
    use vapres_core::{evaluate_health, HealthPolicy, Ps};
    use vapres_modules::register_standard_modules;

    let halt = args.get_or("halt", "no") == "yes";
    let samples: u32 = args.get_num("samples", 20_000u32)?;
    let interval: u64 = args.get_num("interval", 500u64)?;
    if interval == 0 {
        return Err(CmdError("--interval must be >= 1".into()));
    }

    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys =
        VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| CmdError(e.to_string()))?;
    sys.enable_telemetry();
    sys.enable_flight_recorder(vapres_sim::flight::DEFAULT_CAPACITY);
    sys.iom_set_input_interval(0, interval);
    let spec = setup_e3_swap(&mut sys, halt)?;

    sys.iom_feed(0, 0..samples);
    sys.run_for(Ps::from_ms(1));
    let method = if halt {
        "halt-and-swap"
    } else {
        "seamless swap"
    };
    let report = if halt {
        halt_and_swap(&mut sys, &spec)
    } else {
        seamless_swap(&mut sys, &spec)
    }
    .map_err(|e| CmdError(e.to_string()))?;
    let done = sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    if !done {
        return Err(CmdError(
            "swap scenario stalled before consuming input".into(),
        ));
    }
    sys.run_for(Ps::from_us(100));

    let jsonl = args.get_or("jsonl", "no") == "yes";
    let health = evaluate_health(&mut sys, &HealthPolicy::e3_seamless(), Some(&report));
    if jsonl {
        // Machine-readable form: exactly the serialization the live
        // `/health` endpoint publishes — one `verdict` line per monitor,
        // one `health` summary line, nothing else on stdout.
        health.write_jsonl(out)?;
    } else {
        writeln!(
            out,
            "scenario: E3 ({method}, {samples} samples, 1 per {interval} cycles)"
        )?;
        health.write_text(out)?;
    }
    if let Some(path) = args.get("flight-dump") {
        write_flight_dump(&mut sys, path)?;
        if !jsonl {
            writeln!(out, "wrote {path}: flight ring")?;
        }
    }
    if health.healthy() {
        Ok(())
    } else {
        Err(CmdError(format!(
            "health check failed: {} of {} monitors breached",
            health.breaches().count(),
            health.verdicts().len()
        )))
    }
}

/// `vapres profile [--halt yes] [--samples N] [--interval CYCLES]
/// [--top N] [--flame out.folded] [--cost-model out.json]
/// [--flight-dump out.jsonl]` — run the paper's E3 swap scenario with
/// the self-profiler armed and print the top-N scopes by host self
/// time.
///
/// The profiler keeps two planes: deterministic *work units* (component
/// ticks dispatched, route spans, swap steps, ICAP words, storage
/// bytes — byte-identical across runs) and *host wall time* per nested
/// scope (machine-dependent, outside every determinism contract).
/// `--flame` exports the host tree as collapsed stacks (flamegraph
/// input); `--cost-model` joins the planes into per-component
/// `{work_units, host_ns, ns_per_unit}` rows that `vapres diff` gates.
pub fn cmd_profile(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::config::SystemConfig;
    use vapres_core::module::ModuleLibrary;
    use vapres_core::switching::{halt_and_swap, seamless_swap};
    use vapres_core::system::VapresSystem;
    use vapres_core::Ps;
    use vapres_modules::register_standard_modules;

    let halt = args.get_or("halt", "no") == "yes";
    let samples: u32 = args.get_num("samples", 20_000u32)?;
    let interval: u64 = args.get_num("interval", 500u64)?;
    if interval == 0 {
        return Err(CmdError("--interval must be >= 1".into()));
    }
    let top: usize = args.get_num("top", 10usize)?;

    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys =
        VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| CmdError(e.to_string()))?;
    sys.enable_telemetry();
    sys.enable_profiling();
    sys.enable_flight_recorder(vapres_sim::flight::DEFAULT_CAPACITY);
    sys.iom_set_input_interval(0, interval);
    let spec = setup_e3_swap(&mut sys, halt)?;

    sys.iom_feed(0, 0..samples);
    sys.run_for(Ps::from_ms(1));
    let report = if halt {
        halt_and_swap(&mut sys, &spec)
    } else {
        seamless_swap(&mut sys, &spec)
    }
    .map_err(|e| CmdError(e.to_string()))?;
    let done = sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    if !done {
        return Err(CmdError(
            "swap scenario stalled before consuming input".into(),
        ));
    }
    sys.run_for(Ps::from_us(100));

    let method = if halt {
        "halt-and-swap"
    } else {
        "seamless swap"
    };
    writeln!(
        out,
        "scenario: E3 ({method}, {samples} samples, 1 per {interval} cycles), \
         swap {} ",
        report.total()
    )?;
    let model = sys
        .profile_cost_model()
        .expect("profiler was enabled above");
    sys.note_profile_dump();
    {
        let prof = sys.profiler().expect("profiler was enabled above");
        writeln!(out, "top {top} scopes by host self time:")?;
        prof.write_top_table(&mut *out, top)?;
        writeln!(
            out,
            "work plane: {} components; host plane: {} scopes, {} completed \
             (exec/* dispatches timed about 1 in {}, scaled to an estimate)",
            prof.work().len(),
            prof.scope_count(),
            prof.completed(),
            vapres_sim::profile::DISPATCH_STRIDE_MEAN
        )?;
    }
    if let Some(path) = args.get("flame") {
        let mut file = create_output(path)?;
        sys.profiler()
            .expect("profiler was enabled above")
            .write_collapsed(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}: collapsed stacks (flamegraph input)")?;
    }
    if let Some(path) = args.get("cost-model") {
        let mut file = create_output(path)?;
        model
            .write_json(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(
            out,
            "wrote {path}: cost model ({} components)",
            model.rows.len()
        )?;
    }
    if let Some(path) = args.get("flight-dump") {
        write_flight_dump(&mut sys, path)?;
        writeln!(out, "wrote {path}: flight ring")?;
    }
    Ok(())
}

/// `vapres sweep [--jobs N] [--kr 2,3] [--kl 2,3] [--fifo-depth 64,512]
/// [--clock-mhz 100] [--swap seamless,halt,none] [--fault-rate 0.0,0.5]
/// [--samples N,...] [--interval CYCLES] [--seed S] [--jsonl out.jsonl]
/// [--bench out.json]` — expand a scenario grid into independent
/// `VapresSystem` runs, shard them across `--jobs` worker threads, and
/// merge the results into one report.
///
/// Every comma-separated flag is one axis of the grid (defaults:
/// `SweepGrid::e3_default`, the 16-scenario seamless-vs-halt comparison).
/// The report is byte-identical for any `--jobs` value: scenarios carry
/// deterministic per-index seeds and results merge in scenario-index
/// order, never completion order — so the job count is a pure wall-clock
/// knob that never appears in the report. `--jsonl` exports the merged
/// telemetry registry; `--bench` writes the per-scenario trajectory as
/// JSON (the `BENCH_sweep.json` artifact), whose single `"host"` line
/// records the machine context (CPU count, `--jobs`) so wall-clock
/// comparisons across machines aren't misread — comparisons across job
/// counts filter that one self-describing line.
pub fn cmd_sweep(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::scenario::{
        merge_telemetry, run_sweep_with, SwapMethod, SwapOutcome, SweepGrid,
    };
    use vapres_core::Ps;

    fn axis<T: std::str::FromStr>(
        args: &Args,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, CmdError> {
        match args.get(key) {
            None => Ok(default),
            Some(spec) => spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| CmdError(format!("--{key}: cannot parse {s:?}")))
                })
                .collect(),
        }
    }

    let base = SweepGrid::e3_default();
    let jobs: usize = args.get_num("jobs", 1usize)?;
    let grid = SweepGrid {
        kr: axis(args, "kr", base.kr)?,
        kl: axis(args, "kl", base.kl)?,
        fifo_depth: axis(args, "fifo-depth", base.fifo_depth)?,
        prr_clock_mhz: axis(args, "clock-mhz", base.prr_clock_mhz)?,
        swap: match args.get("swap") {
            None => base.swap,
            Some(spec) => spec
                .split(',')
                .map(|s| SwapMethod::parse(s).map_err(CmdError))
                .collect::<Result<_, _>>()?,
        },
        fault_rate: axis(args, "fault-rate", base.fault_rate)?,
        samples: axis(args, "samples", base.samples)?,
        bitstream_cache: axis(args, "bitstream-cache", base.bitstream_cache)?,
        interval: args.get_num("interval", base.interval)?,
        seed: args.get_num("seed", base.seed)?,
    };
    if grid.is_empty() {
        return Err(CmdError(
            "sweep grid is empty (an axis has no values)".into(),
        ));
    }
    let scenarios = grid.expand();
    for sc in &scenarios {
        sc.validate().map_err(CmdError)?;
    }
    writeln!(
        out,
        "sweep: {} scenarios (seed {:#x})",
        scenarios.len(),
        grid.seed
    )?;

    // `--cold yes` bypasses the warm-start prefix cache (each scenario
    // rebuilds its own pre-swap prefix) — the reference the warm path is
    // byte-compared against, and the baseline for its wall-clock win.
    let cold = args.get_or("cold", "no") == "yes";
    let sample_every_us: u64 = args.get_num("sample-every", 0u64)?;
    if (args.get("timeseries").is_some() || args.get("live-port").is_some()) && sample_every_us == 0
    {
        return Err(CmdError(
            "--timeseries/--live-port need --sample-every N (microseconds of simulated time)"
                .into(),
        ));
    }
    let profile = args.get_or("profile", "no") == "yes";
    if args.get("cost-model").is_some() && !profile {
        return Err(CmdError("--cost-model needs --profile yes".into()));
    }
    if profile && sample_every_us > 0 {
        return Err(CmdError(
            "--profile yes cannot combine with --sample-every (the profiled and \
             sampled runners use different prefix images; run two sweeps)"
                .into(),
        ));
    }
    // Held until the sweep finishes: dropping the server stops the
    // responder thread. Payloads update as each scenario completes.
    let live = match args.get("live-port") {
        None => None,
        Some(spec) => {
            let port: u16 = spec
                .parse()
                .map_err(|_| CmdError(format!("--live-port: cannot parse {spec:?}")))?;
            let server = crate::live::LiveServer::start(port)
                .map_err(|e| CmdError(format!("--live-port {port}: {e}")))?;
            writeln!(
                out,
                "live endpoint: http://127.0.0.1:{}/metrics /health /flight",
                server.port()
            )?;
            Some(server)
        }
    };
    let started = std::time::Instant::now();
    let mut series_chunks: Vec<std::sync::Mutex<Option<String>>> = Vec::new();
    let mut model_chunks: Vec<std::sync::Mutex<Option<vapres_core::CostModel>>> = Vec::new();
    let results = if profile {
        // Profiled sweep: each worker parks its scenario's cost model in
        // a per-index slot; the merge below walks the slots in scenario
        // order, so the merged work-unit plane is byte-identical for any
        // `--jobs` value (host-time fields carry no such contract).
        model_chunks = scenarios
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let chunks = &model_chunks;
        run_sweep_with(&scenarios, jobs, move |sc| {
            let (r, model) = vapres_kpn::run_scenario_profiled(sc, cold);
            *chunks[sc.index].lock().expect("cost model lock") = Some(model);
            r
        })
    } else if sample_every_us == 0 {
        run_sweep_with(
            &scenarios,
            jobs,
            if cold {
                vapres_kpn::run_scenario_cold
            } else {
                vapres_kpn::run_scenario
            },
        )
    } else {
        // Sampled sweep: each worker captures its scenario's series and
        // parks the tagged JSONL in a per-index slot, so the export is
        // in scenario order no matter which worker finished first —
        // byte-identical for any `--jobs` value.
        let every = Ps::from_us(sample_every_us);
        series_chunks = scenarios
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let chunks = &series_chunks;
        let live_ref = live.as_ref();
        run_sweep_with(&scenarios, jobs, move |sc| {
            let (r, ts) = vapres_kpn::run_scenario_sampled(sc, every, cold);
            let mut buf = Vec::new();
            let _ = ts.write_jsonl_tagged(&mut buf, Some(&sc.label()));
            *chunks[sc.index].lock().expect("series chunk lock") =
                Some(String::from_utf8_lossy(&buf).into_owned());
            if let Some(server) = live_ref {
                publish_scenario_live(server, &r);
            }
            r
        })
    };
    let wall_ms = started.elapsed().as_millis();

    let pct = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |v| Ps::new(v).to_string());
    writeln!(
        out,
        "{:<3} {:<38} {:>11} {:>11} {:>11} {:>11} {:>7} {:>7} {:>6}",
        "#", "scenario", "swap", "p50", "p95", "p99", "missed", "stall", "out"
    )?;
    for r in &results {
        let s = &r.summary;
        let swap_cell = match &s.swap {
            SwapOutcome::NotRequested => "-".to_string(),
            SwapOutcome::Completed { total_ps, .. } => Ps::new(*total_ps).to_string(),
            SwapOutcome::Failed { .. } => "FAILED".to_string(),
        };
        writeln!(
            out,
            "{:<3} {:<38} {:>11} {:>11} {:>11} {:>11} {:>7} {:>7.4} {:>6}",
            r.scenario.index,
            r.scenario.label(),
            swap_cell,
            pct(s.p50_e2e_ps),
            pct(s.p95_e2e_ps),
            pct(s.p99_e2e_ps),
            s.missed_slots,
            s.max_stall_ratio,
            s.samples_out,
        )?;
        if let SwapOutcome::Failed { error } = &s.swap {
            writeln!(out, "    failure: {error}")?;
        }
        if !s.drained {
            writeln!(out, "    WARNING: input did not fully drain")?;
        }
        if let (Some(c), Some(w)) = (s.repeat_swap_cold_ps, s.repeat_swap_warm_ps) {
            writeln!(
                out,
                "    repeat swap: cold {} -> cached {} ({:.1}x, {} hits, {} bytes skipped)",
                Ps::new(c),
                Ps::new(w),
                c as f64 / w.max(1) as f64,
                s.cache_hits,
                s.cache_bytes_saved
            )?;
        }
    }

    let failed = results
        .iter()
        .filter(|r| matches!(r.summary.swap, SwapOutcome::Failed { .. }))
        .count();
    let missed: u64 = results.iter().map(|r| r.summary.missed_slots).sum();
    writeln!(
        out,
        "aggregate: {} ok, {failed} failed; {missed} missed slots total",
        results.len() - failed
    )?;
    let merged = merge_telemetry(&results);
    if let Some(h) = merged.histogram_named("word_e2e_latency_ps", &[]) {
        if let (Some(p50), Some(p95), Some(p99)) =
            (h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
        {
            writeln!(
                out,
                "merged e2e latency: n={} p50<={} p95<={} p99<={}",
                h.total(),
                Ps::new(p50),
                Ps::new(p95),
                Ps::new(p99)
            )?;
        }
    }

    if let Some(path) = args.get("jsonl") {
        let mut file = create_output(path)?;
        merged
            .write_jsonl(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(
            out,
            "wrote {path}: merged telemetry ({} metrics + {} spans)",
            merged.len(),
            merged.spans().len()
        )?;
    }
    if let Some(path) = args.get("bench") {
        let mut file = create_output(path)?;
        let mode = if cold { "cold" } else { "warm" };
        write_sweep_trajectory(&results, grid.seed, jobs, mode, wall_ms, &mut file)?;
        file.flush().map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}: sweep trajectory")?;
    }
    if let Some(path) = args.get("timeseries") {
        let mut file = create_output(path)?;
        for chunk in &series_chunks {
            let s = chunk.lock().expect("series chunk lock");
            file.write_all(s.as_ref().expect("every scenario sampled").as_bytes())
                .map_err(|e| write_err(path, e))?;
        }
        file.flush().map_err(|e| write_err(path, e))?;
        writeln!(
            out,
            "wrote {path}: per-scenario time-series JSONL ({} scenarios)",
            series_chunks.len()
        )?;
    }
    if profile {
        let mut merged = vapres_core::CostModel::default();
        for chunk in &model_chunks {
            let m = chunk.lock().expect("cost model lock");
            merged.merge(m.as_ref().expect("every scenario profiled"));
        }
        let total_work: u64 = merged.rows.iter().map(|r| r.work_units).sum();
        writeln!(
            out,
            "profile: {} components, {total_work} work units across {} scenarios",
            merged.rows.len(),
            results.len()
        )?;
        if let Some(path) = args.get("cost-model") {
            let mut file = create_output(path)?;
            merged
                .write_json(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| write_err(path, e))?;
            writeln!(out, "wrote {path}: merged cost model")?;
        }
    }
    drop(live);
    Ok(())
}

/// Publishes one completed scenario's observability payloads to the
/// sweep's live endpoint: Prometheus text from its telemetry registry
/// and the E3 stream-SLO verdicts over its summary, in the same
/// serialization as `vapres health --jsonl yes`. Sweeps carry no flight
/// recorder, so `/flight` serves an empty body.
fn publish_scenario_live(
    server: &crate::live::LiveServer,
    r: &vapres_core::scenario::ScenarioResult,
) {
    use vapres_core::HealthPolicy;
    use vapres_sim::watchdog::{HealthReport, Monitor};

    let mut metrics = Vec::new();
    let _ = r.telemetry.write_prometheus(&mut metrics);
    let policy = HealthPolicy::e3_seamless();
    let s = &r.summary;
    let mut report = HealthReport::new();
    report.observe(
        Monitor::at_most("missed_slots", policy.missed_slots_max as f64, "slots"),
        s.missed_slots as f64,
    );
    report.observe(
        Monitor::at_most("excess_gap_ps", policy.excess_gap_max.as_ps() as f64, "ps"),
        s.excess_gap_ps as f64,
    );
    report.observe(
        Monitor::at_most("max_stall_ratio", policy.backpressure_ratio_max, "ratio"),
        s.max_stall_ratio,
    );
    let mut health = Vec::new();
    let _ = report.write_jsonl(&mut health);
    server.publish(
        String::from_utf8_lossy(&metrics).into_owned(),
        String::from_utf8_lossy(&health).into_owned(),
        String::new(),
    );
}

/// Writes the per-scenario sweep trajectory as JSON (hand-rolled, like
/// the telemetry exporters — the tree has no serde). Deterministic: the
/// rows are in scenario-index order and contain no wall-clock values.
/// The one machine-dependent line is `"host"` — CPU count, the `--jobs`
/// value, whether the prefix cache was warm or cold, and the measured
/// wall-clock — so the artifact says whether a parallel speedup was even
/// possible on the recording machine and what the warm start bought;
/// invariance checks filter that line before comparing.
fn write_sweep_trajectory(
    results: &[vapres_core::scenario::ScenarioResult],
    seed: u64,
    jobs: usize,
    mode: &str,
    wall_ms: u128,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    use vapres_core::scenario::SwapOutcome;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    writeln!(out, "{{")?;
    writeln!(out, "  \"bench\": \"sweep\",")?;
    writeln!(out, "  \"seed\": {seed},")?;
    writeln!(
        out,
        "  \"host\": {{\"cpus\": {cpus}, \"jobs\": {jobs}, \
         \"mode\": \"{mode}\", \"wall_ms\": {wall_ms}}},"
    )?;
    writeln!(out, "  \"scenarios\": [")?;
    for (i, r) in results.iter().enumerate() {
        let s = &r.summary;
        let (outcome, swap_total_ps) = match &s.swap {
            SwapOutcome::NotRequested => ("not_requested", 0),
            SwapOutcome::Completed { total_ps, .. } => ("completed", *total_ps),
            SwapOutcome::Failed { .. } => ("failed", 0),
        };
        write!(
            out,
            "    {{\"index\":{},\"label\":\"{}\",\"outcome\":\"{outcome}\",\
             \"swap_total_ps\":{swap_total_ps},\"p50_e2e_ps\":{},\"p95_e2e_ps\":{},\
             \"p99_e2e_ps\":{},\"missed_slots\":{},\"excess_gap_ps\":{},\
             \"max_stall_ratio\":{:.6},\"samples_out\":{},\"sim_time_ps\":{},\
             \"cache_hits\":{},\"cache_bytes_saved\":{},\
             \"repeat_swap_cold_ps\":{},\"repeat_swap_warm_ps\":{}}}",
            r.scenario.index,
            r.scenario.label(),
            opt(s.p50_e2e_ps),
            opt(s.p95_e2e_ps),
            opt(s.p99_e2e_ps),
            s.missed_slots,
            s.excess_gap_ps,
            s.max_stall_ratio,
            s.samples_out,
            s.sim_time_ps,
            s.cache_hits,
            s.cache_bytes_saved,
            opt(s.repeat_swap_cold_ps),
            opt(s.repeat_swap_warm_ps),
        )?;
        writeln!(out, "{}", if i + 1 < results.len() { "," } else { "" })?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
}

/// `vapres fleet`: a fleet of RSBs streaming concurrently with a
/// rotating seamless-swap schedule against one shared controlling
/// region. Everything but the `host:` line is deterministic.
pub fn cmd_fleet(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::Ps;
    use vapres_kpn::FleetSpec;

    let rsbs: usize = args.get_num("rsbs", 8usize)?;
    let spec = FleetSpec {
        rsbs,
        samples: args.get_num("samples", 400u32)?,
        interval: args.get_num("interval", 50u64)?,
        swaps: args.get_num("swaps", rsbs)?,
        seed: args.get_num("seed", 0xE3u64)?,
        sample_every: match args.get_num("sample-every", 0u64)? {
            0 => None,
            us => Some(Ps::from_us(us)),
        },
    };
    spec.validate().map_err(CmdError)?;
    if args.get("timeseries").is_some() && spec.sample_every.is_none() {
        return Err(CmdError(
            "--timeseries needs --sample-every N (microseconds of simulated time)".into(),
        ));
    }
    writeln!(
        out,
        "fleet: {} RSBs, {} swaps (seed {:#x})",
        spec.rsbs, spec.swaps, spec.seed
    )?;
    let started = std::time::Instant::now();
    let result = vapres_kpn::run_fleet(&spec, 1, None).map_err(CmdError)?;
    let wall_ms = started.elapsed().as_millis();

    // The wall clock lives on the `host:` line alone, so determinism
    // checks can filter it before byte-comparing reports.
    writeln!(
        out,
        "host: cpus={} wall_ms={wall_ms}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )?;

    let pct = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |v| Ps::new(v).to_string());
    writeln!(
        out,
        "{:<4} {:>6} {:>8} {:>5} {:<10} {:>7} {:>6} {:>11} {:>10} {:>6}",
        "#", "in", "interval", "swaps", "outcome", "out", "missed", "p99", "work", "health"
    )?;
    for r in &result.rows {
        writeln!(
            out,
            "{:<4} {:>6} {:>8} {:>5} {:<10} {:>7} {:>6} {:>11} {:>10} {:>6}",
            r.index,
            r.samples_in,
            r.interval,
            r.swaps,
            r.outcome,
            r.samples_out,
            r.missed_slots,
            pct(r.p99_e2e_ps),
            r.work_units,
            if r.healthy { "ok" } else { "BREACH" },
        )?;
    }
    let unhealthy = result.rows.iter().filter(|r| !r.healthy).count();
    let undrained = result.rows.iter().filter(|r| !r.drained).count();
    let total_work: u64 = result.rows.iter().map(|r| r.work_units).sum();
    writeln!(
        out,
        "aggregate: {} healthy, {unhealthy} breached, {undrained} undrained; \
         {total_work} work units; sim time {}",
        result.rows.len() - unhealthy,
        result.sim_time,
    )?;
    for row in &result.merged_work.rows {
        writeln!(
            out,
            "work: {:<24} {:>12} units",
            row.component, row.work_units
        )?;
    }

    if let Some(path) = args.get("jsonl") {
        let mut file = create_output(path)?;
        result
            .merged_telemetry
            .write_jsonl(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(
            out,
            "wrote {path}: merged telemetry ({} metrics + {} spans)",
            result.merged_telemetry.len(),
            result.merged_telemetry.spans().len()
        )?;
    }
    if let Some(path) = args.get("flight") {
        let mut file = create_output(path)?;
        result
            .merged_flight
            .write_jsonl(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(
            out,
            "wrote {path}: merged flight JSONL ({} events)",
            result.merged_flight.len()
        )?;
    }
    if let Some(path) = args.get("timeseries") {
        let mut file = create_output(path)?;
        file.write_all(result.timeseries.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}: per-RSB time-series JSONL")?;
    }
    if let Some(path) = args.get("bench") {
        let mut file = create_output(path)?;
        write_fleet_trajectory(&spec, &result, wall_ms, &mut file)?;
        file.flush().map_err(|e| write_err(path, e))?;
        writeln!(out, "wrote {path}: fleet trajectory")?;
    }
    if unhealthy > 0 {
        return Err(CmdError(format!(
            "{unhealthy} RSB(s) breached the health policy"
        )));
    }
    Ok(())
}

/// Writes the fleet trajectory as JSON (hand-rolled, like the sweep
/// trajectory). Deterministic everywhere except the `"host"` line (CPU
/// count, wall clock), which carries its marker in the line itself so
/// determinism checks can filter it before comparing.
fn write_fleet_trajectory(
    spec: &vapres_kpn::FleetSpec,
    result: &vapres_kpn::FleetResult,
    wall_ms: u128,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    writeln!(out, "{{")?;
    writeln!(out, "  \"bench\": \"fleet\",")?;
    writeln!(
        out,
        "  \"seed\": {}, \"rsb_count\": {}, \"swap_count\": {},",
        spec.seed, spec.rsbs, spec.swaps
    )?;
    writeln!(
        out,
        "  \"host\": {{\"cpus\": {cpus}, \"wall_ms\": {wall_ms}}},"
    )?;
    writeln!(out, "  \"rsbs\": [")?;
    for (i, r) in result.rows.iter().enumerate() {
        write!(
            out,
            "    {{\"index\":{},\"samples_in\":{},\"interval\":{},\"swaps\":{},\
             \"outcome\":\"{}\",\"drained\":{},\"samples_out\":{},\"missed_slots\":{},\
             \"p99_e2e_ps\":{},\"sim_time_ps\":{},\"work_units\":{},\"est_cost\":{},\
             \"healthy\":{}}}",
            r.index,
            r.samples_in,
            r.interval,
            r.swaps,
            r.outcome,
            r.drained,
            r.samples_out,
            r.missed_slots,
            opt(r.p99_e2e_ps),
            r.sim_time_ps,
            r.work_units,
            r.est_cost,
            r.healthy,
        )?;
        writeln!(out, "{}", if i + 1 < result.rows.len() { "," } else { "" })?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"work\": [")?;
    for (i, row) in result.merged_work.rows.iter().enumerate() {
        // Work units only: the host-ns column has no determinism
        // contract and would poison the jobs-invariance byte-compare.
        write!(
            out,
            "    {{\"component\": \"{}\", \"work_units\": {}}}",
            row.component, row.work_units
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < result.merged_work.rows.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
}

/// The `--flags` each subcommand understands. The parser accepts any
/// `--key value` pair, so without this table a typo'd flag (say
/// `--trace-word` for `--trace-words`) would be a silent no-op; the
/// dispatcher checks every parsed key against the subcommand's set and
/// rejects strangers by name.
fn known_flags(subcommand: &str) -> Option<&'static [&'static str]> {
    Some(match subcommand {
        "resources" => &[
            "nodes",
            "kr",
            "kl",
            "ki",
            "ko",
            "width",
            "fifo-depth",
            "device",
        ],
        "floorplan" => &["prrs", "device", "ucf", "mhs", "art"],
        "report" => &[
            "metrics",
            "prrs",
            "device",
            "nodes",
            "kr",
            "kl",
            "ki",
            "ko",
            "width",
            "fifo-depth",
        ],
        "check-ucf" => &["device"],
        "bitgen" => &["rect", "uid", "out", "device"],
        "bitinfo" => &[],
        "reconfig-time" => &["bytes", "rect", "device"],
        "sim" => &[
            "stages",
            "samples",
            "interval",
            "stats",
            "vcd",
            "swap",
            "fail-swap",
            "metrics",
            "trace-json",
            "prom",
            "trace-words",
            "flight-dump",
            "checkpoint-every",
            "checkpoint-dir",
            "restore",
            "sample-every",
            "timeseries",
            "timeseries-trace",
            "timeseries-csv",
            "live-port",
            "profile",
            "flame",
            "cost-model",
            "bitstream-cache",
        ],
        "replay" => &["until-breach"],
        "health" => &["halt", "samples", "interval", "flight-dump", "jsonl"],
        "profile" => &[
            "halt",
            "samples",
            "interval",
            "top",
            "flame",
            "cost-model",
            "flight-dump",
        ],
        "sweep" => &[
            "jobs",
            "seed",
            "kr",
            "kl",
            "fifo-depth",
            "clock-mhz",
            "swap",
            "fault-rate",
            "samples",
            "interval",
            "jsonl",
            "bench",
            "cold",
            "sample-every",
            "timeseries",
            "live-port",
            "profile",
            "cost-model",
            "bitstream-cache",
        ],
        "fleet" => &[
            "rsbs",
            "samples",
            "interval",
            "swaps",
            "seed",
            "jsonl",
            "flight",
            "bench",
            "sample-every",
            "timeseries",
        ],
        "diff" => &["tolerance"],
        _ => return None,
    })
}

/// Rejects any `--flag` the subcommand does not understand.
fn check_known_flags(subcommand: &str, args: &Args) -> Result<(), CmdError> {
    let Some(known) = known_flags(subcommand) else {
        return Ok(());
    };
    for key in args.keys() {
        if !known.contains(&key) {
            let accepted = if known.is_empty() {
                "takes no options".to_string()
            } else {
                format!(
                    "known options: {}",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            };
            return Err(CmdError(format!(
                "{subcommand}: unknown option --{key} ({accepted})"
            )));
        }
    }
    Ok(())
}

/// Usage text.
pub fn usage() -> &'static str {
    "vapres — VAPRES (DATE 2010) design tools\n\
     \n\
     subcommands:\n\
     \x20 resources      [--nodes N --kr K --kl K --ki I --ko O --width W] [--device D]\n\
     \x20 floorplan      --prrs 640,640 [--device D] [--ucf out.ucf] [--mhs out.mhs] [--art yes]\n\
     \x20 report         --prrs 640,640 [--device D] [fabric params]\n\
     \x20                | --metrics snapshot.jsonl   (telemetry digest)\n\
     \x20 check-ucf      <file.ucf> [--device D]\n\
     \x20 bitgen         --rect C0:C1:R0:R1 --uid HEX --out file.bit [--device D]\n\
     \x20 bitinfo        <file.bit>\n\
     \x20 reconfig-time  --bytes N | --rect C0:C1:R0:R1 [--device D]\n\
     \x20 sim            [--stages scaler,avg] [--samples N] [--interval CYCLES]\n\
     \x20                [--stats yes] [--vcd out.vcd] [--swap yes] [--fail-swap yes]\n\
     \x20                [--metrics out.jsonl] [--trace-json out.json] [--prom out.prom]\n\
     \x20                [--trace-words N] [--flight-dump out.jsonl]\n\
     \x20                [--checkpoint-every US --checkpoint-dir D] [--restore ckpt]\n\
     \x20                [--sample-every US] [--timeseries out.jsonl]\n\
     \x20                [--timeseries-trace out.json] [--timeseries-csv out.csv]\n\
     \x20                [--live-port N]   (serves /metrics /health /flight)\n\
     \x20                [--profile yes] [--flame out.folded] [--cost-model out.json]\n\
     \x20                [--bitstream-cache N]   (staged-bitstream cache, N entries)\n\
     \x20 replay         <checkpoint.vapresck> [--until-breach yes]   (exit 1 on breach)\n\
     \x20 health         [--halt yes] [--samples N] [--interval CYCLES]\n\
     \x20                [--flight-dump out.jsonl] [--jsonl yes]   (exit 1 on breach)\n\
     \x20 profile        [--halt yes] [--samples N] [--interval CYCLES] [--top N]\n\
     \x20                [--flame out.folded] [--cost-model out.json]\n\
     \x20                [--flight-dump out.jsonl]   (self-profile the E3 scenario)\n\
     \x20 sweep          [--jobs N] [--kr 2,3] [--kl 2,3] [--fifo-depth 64,512]\n\
     \x20                [--clock-mhz 100] [--swap seamless,halt,none]\n\
     \x20                [--fault-rate 0.0,0.5] [--samples N,...] [--interval CYCLES]\n\
     \x20                [--seed S] [--jsonl out.jsonl] [--bench out.json] [--cold yes]\n\
     \x20                [--sample-every US] [--timeseries out.jsonl] [--live-port N]\n\
     \x20                [--profile yes] [--cost-model out.json]\n\
     \x20                [--bitstream-cache 0,4]   (staged-cache capacity axis)\n\
     \x20 fleet          [--rsbs N] [--samples N] [--interval CYCLES] [--swaps N]\n\
     \x20                [--seed S] [--jsonl out.jsonl] [--flight out.jsonl]\n\
     \x20                [--bench out.json] [--sample-every US --timeseries out.jsonl]\n\
     \x20                (multi-RSB run sharing one controlling region)\n\
     \x20 diff           <baseline> <candidate> [--tolerance 0.05]   (exit 1 on regression)\n\
     \n\
     devices: lx25 (default) | lx60 | lx100\n\
     stages : passthrough | scaler | delta-enc | delta-dec | avg | fir-a | fir-b\n"
}

/// Dispatches a subcommand.
///
/// # Errors
///
/// [`CmdError`] with a user-facing message.
pub fn dispatch(subcommand: &str, args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    check_known_flags(subcommand, args)?;
    match subcommand {
        "resources" => cmd_resources(args, out),
        "report" => cmd_report(args, out),
        "floorplan" => cmd_floorplan(args, out),
        "check-ucf" => cmd_check_ucf(args, out),
        "bitgen" => cmd_bitgen(args, out),
        "bitinfo" => cmd_bitinfo(args, out),
        "reconfig-time" => cmd_reconfig_time(args, out),
        "sim" => cmd_sim(args, out),
        "replay" => cmd_replay(args, out),
        "health" => cmd_health(args, out),
        "profile" => cmd_profile(args, out),
        "sweep" => cmd_sweep(args, out),
        "fleet" => cmd_fleet(args, out),
        "diff" => crate::diff::cmd_diff(args, out),
        other => Err(CmdError(format!(
            "unknown subcommand {other:?}\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sub: &str, tokens: &[&str]) -> Result<String, CmdError> {
        let args = Args::parse(tokens.iter().copied())?;
        let mut out = Vec::new();
        dispatch(sub, &args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn resources_prototype_matches_paper() {
        let text = run("resources", &[]).unwrap();
        assert!(text.contains("comm architecture: 1020 slices"));
        assert!(text.contains("static region    : 9421 slices"));
    }

    #[test]
    fn resources_warns_when_overflowing() {
        let text = run("resources", &["--nodes", "40", "--kr", "8", "--kl", "8"]).unwrap();
        assert!(text.contains("WARNING"));
    }

    #[test]
    fn floorplan_places_and_reports_waste() {
        let text = run("floorplan", &["--prrs", "640,100"]).unwrap();
        assert!(text.contains("prr0: SLICE_X0Y0:SLICE_X9Y15"));
        assert!(text.contains("wasted slices: 28"));
    }

    #[test]
    fn floorplan_rejects_oversize() {
        assert!(run("floorplan", &["--prrs", "99999"]).is_err());
    }

    #[test]
    fn bitgen_and_bitinfo_roundtrip() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bit");
        let path_s = path.to_str().unwrap();
        let text = run(
            "bitgen",
            &["--rect", "0:9:0:15", "--uid", "c0ffee", "--out", path_s],
        )
        .unwrap();
        assert!(text.contains("36300 bytes"));
        let info = run("bitinfo", &[path_s]).unwrap();
        assert!(info.contains("module#00c0ffee"));
        assert!(info.contains("frames   : 220"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_ucf_accepts_generated_file() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ucf = dir.join("t.ucf");
        let ucf_s = ucf.to_str().unwrap();
        run("floorplan", &["--prrs", "640,640", "--ucf", ucf_s]).unwrap();
        let text = run("check-ucf", &[ucf_s]).unwrap();
        assert!(text.contains("valid (2 PRRs"));
        std::fs::remove_file(&ucf).ok();
    }

    #[test]
    fn reconfig_time_matches_paper_for_prototype_rect() {
        let text = run("reconfig-time", &["--rect", "0:9:0:15"]).unwrap();
        assert!(text.contains("1.04"), "cf path: {text}");
        assert!(text.contains("71.9"), "sdram path: {text}");
        assert!(text.contains("14.5x"));
    }

    #[test]
    fn report_prints_design_summary() {
        let text = run("report", &["--prrs", "640,640"]).unwrap();
        assert!(text.contains("Design Summary"));
        assert!(text.contains("9421"));
        assert!(text.contains("prr1"));
    }

    #[test]
    fn sim_streams_and_reports_stats() {
        let text = run(
            "sim",
            &["--stages", "scaler", "--samples", "200", "--stats", "yes"],
        )
        .unwrap();
        assert!(text.contains("samples out: 200"), "{text}");
        assert!(text.contains("executor work counters"), "{text}");
        assert!(text.contains("reduction"), "{text}");
    }

    #[test]
    fn sim_dumps_vcd() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vcd = dir.join("t.vcd");
        let vcd_s = vcd.to_str().unwrap();
        let text = run("sim", &["--samples", "50", "--vcd", vcd_s]).unwrap();
        assert!(text.contains("signal changes"), "{text}");
        let dump = std::fs::read_to_string(&vcd).unwrap();
        assert!(dump.starts_with("$date"), "VCD header missing");
        assert!(dump.contains("$timescale 1 ps $end"));
        std::fs::remove_file(&vcd).ok();
    }

    #[test]
    fn sim_rejects_bad_stage() {
        assert!(run("sim", &["--stages", "nope"]).is_err());
        assert!(run("sim", &["--interval", "0"]).is_err());
    }

    #[test]
    fn sim_swap_exports_metrics_and_report_digests_them() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("swap.jsonl");
        let jsonl_s = jsonl.to_str().unwrap();
        let trace = dir.join("swap.trace.json");
        let trace_s = trace.to_str().unwrap();

        let text = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--metrics",
                jsonl_s,
                "--trace-json",
                trace_s,
            ],
        )
        .unwrap();
        assert!(text.contains("seamless swap"), "{text}");
        assert!(text.contains("wrote"), "{text}");

        // The snapshot parses and holds exactly the nine Fig. 5 steps.
        let snapshot = std::fs::read_to_string(&jsonl).unwrap();
        let records = vapres_sim::telemetry::parse_jsonl(&snapshot).unwrap();
        let steps = records.iter().filter(|r| r.name() == "swap_step").count();
        assert_eq!(steps, 9, "expected nine swap_step spans");

        let timeline = std::fs::read_to_string(&trace).unwrap();
        assert!(timeline.contains("\"traceEvents\""));

        let report = run("report", &["--metrics", jsonl_s]).unwrap();
        assert!(
            report.contains("seamless swap latency breakdown:"),
            "{report}"
        );
        assert!(report.contains("2_reconfigure_spare"), "{report}");
        assert!(report.contains("worst-case FIFO occupancy:"), "{report}");
        assert!(report.contains("stall ratio per channel:"), "{report}");
        assert!(report.contains("tick-redux factor:"), "{report}");
        // E3 is the zero-interruption scenario: the handoff delays the
        // stream by less than one sample slot, so no slot is missed.
        assert!(
            report.contains("stream interruption (iom=0): 0 missed sample slots"),
            "{report}"
        );

        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn sim_trace_words_reports_latency_percentiles() {
        let text = run(
            "sim",
            &["--swap", "yes", "--samples", "2000", "--trace-words", "10"],
        )
        .unwrap();
        assert!(
            text.contains("word trace : 200 tagged, 200 completed"),
            "{text}"
        );
        assert!(text.contains("e2e latency p50<="), "{text}");
        assert!(text.contains("p99<="), "{text}");
    }

    #[test]
    fn sim_failed_swap_dumps_flight_ring_with_failing_step() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("flight_fail.jsonl");
        let dump_s = dump.to_str().unwrap();
        let err = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--fail-swap",
                "yes",
                "--flight-dump",
                dump_s,
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("swap failed"), "{}", err.0);
        let trail = std::fs::read_to_string(&dump).unwrap();
        assert!(trail.contains("swap_failed"), "{trail}");
        assert!(trail.contains("2_reconfigure_spare"), "{trail}");
        std::fs::remove_file(&dump).ok();
    }

    #[test]
    fn sim_successful_swap_dumps_flight_ring() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("flight_ok.jsonl");
        let dump_s = dump.to_str().unwrap();
        let text = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--flight-dump",
                dump_s,
            ],
        )
        .unwrap();
        assert!(text.contains("flight ring"), "{text}");
        let trail = std::fs::read_to_string(&dump).unwrap();
        // The successful swap's step transitions are in the ring.
        assert!(trail.contains("swap_step"), "{trail}");
        assert!(trail.contains("9_reconnect_downstream"), "{trail}");
        assert!(!trail.contains("swap_failed"), "{trail}");
        std::fs::remove_file(&dump).ok();
    }

    #[test]
    fn health_seamless_passes_all_monitors() {
        let text = run("health", &["--samples", "2000"]).unwrap();
        assert!(text.contains("seamless swap"), "{text}");
        assert!(text.contains("[PASS] swap_reconfig_ps"), "{text}");
        assert!(text.contains("[PASS] iom0_missed_slots"), "{text}");
        assert!(text.contains("overall: HEALTHY"), "{text}");
    }

    #[test]
    fn health_halt_swap_breaches_and_exits_nonzero() {
        let err = run("health", &["--halt", "yes", "--samples", "2000"]).unwrap_err();
        assert!(err.0.contains("health check failed"), "{}", err.0);
    }

    #[test]
    fn report_metrics_prints_histogram_percentiles() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("hist.jsonl");
        let jsonl_s = jsonl.to_str().unwrap();
        run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--trace-words",
                "10",
                "--metrics",
                jsonl_s,
            ],
        )
        .unwrap();
        let report = run("report", &["--metrics", jsonl_s]).unwrap();
        assert!(report.contains("latency distributions"), "{report}");
        assert!(report.contains("icap_write_cycles"), "{report}");
        assert!(report.contains("word_e2e_latency_ps"), "{report}");
        assert!(report.contains("word_stage_cycles stage=hop"), "{report}");
        std::fs::remove_file(&jsonl).ok();
    }

    #[test]
    fn report_metrics_mode_rejects_garbage() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(run("report", &["--metrics", bad.to_str().unwrap()]).is_err());
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let err = run("frobnicate", &[]).unwrap_err();
        assert!(err.0.contains("subcommands:"));
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        // One misspelled flag per subcommand: each must fail by naming
        // the flag, not silently ignore it.
        let cases: &[(&str, &[&str])] = &[
            ("resources", &["--node", "5"]),
            ("floorplan", &["--prr", "640"]),
            ("report", &["--metric", "x.jsonl"]),
            ("check-ucf", &["--devices", "lx25"]),
            ("bitgen", &["--rects", "0:9:0:15"]),
            ("bitinfo", &["--verbose", "yes"]),
            ("reconfig-time", &["--byte", "100"]),
            ("sim", &["--trace-word", "100"]),
            ("sim", &["--checkpoint-ever", "200"]),
            ("sim", &["--checkpoint-dirs", "/tmp/x"]),
            ("sim", &["--restor", "x.vapresck"]),
            ("replay", &["--until-break", "yes"]),
            ("health", &["--halts", "yes"]),
            ("health", &["--json", "yes"]),
            ("sweep", &["--job", "4"]),
            ("sweep", &["--warm", "yes"]),
            ("sim", &["--sample-ever", "100"]),
            ("sim", &["--timeserie", "ts.jsonl"]),
            ("sim", &["--live-prt", "9100"]),
            ("sweep", &["--sample-every-us", "100"]),
            ("sweep", &["--live-prt", "9100"]),
            ("diff", &["--tolerence", "0.05"]),
            ("sim", &["--profil", "yes"]),
            ("sim", &["--flamme", "out.folded"]),
            ("sim", &["--cost-mode", "out.json"]),
            ("profile", &["--tops", "5"]),
            ("profile", &["--cost-models", "out.json"]),
            ("sweep", &["--profiles", "yes"]),
            ("sweep", &["--cost-modle", "out.json"]),
            ("fleet", &["--rsb", "8"]),
            ("fleet", &["--swap", "3"]),
            ("fleet", &["--flights", "f.jsonl"]),
            // Removed with the multi-threaded fleet engine.
            ("fleet", &["--jobs", "2"]),
            ("fleet", &["--cost-model", "model.json"]),
        ];
        for (sub, tokens) in cases {
            let err = run(sub, tokens).unwrap_err();
            assert!(
                err.0.contains("unknown option --"),
                "{sub}: wrong error: {}",
                err.0
            );
            assert!(
                err.0.contains(tokens[0]),
                "{sub}: error must name the flag: {}",
                err.0
            );
        }
    }

    #[test]
    fn known_flags_cover_every_dispatched_subcommand() {
        for sub in [
            "resources",
            "report",
            "floorplan",
            "check-ucf",
            "bitgen",
            "bitinfo",
            "reconfig-time",
            "sim",
            "replay",
            "health",
            "profile",
            "sweep",
            "fleet",
            "diff",
        ] {
            assert!(
                known_flags(sub).is_some(),
                "{sub} is dispatched but has no known-flag table"
            );
        }
    }

    #[test]
    fn sweep_runs_a_small_grid_and_reports() {
        let text = run(
            "sweep",
            &[
                "--kr",
                "2",
                "--kl",
                "2",
                "--fifo-depth",
                "512",
                "--swap",
                "none,seamless",
                "--samples",
                "300",
                "--interval",
                "50",
            ],
        )
        .unwrap();
        assert!(text.contains("sweep: 2 scenarios"), "{text}");
        assert!(text.contains("kr2kl2_f512_c100_none_fr0.00_n300"), "{text}");
        assert!(
            text.contains("kr2kl2_f512_c100_seamless_fr0.00_n300"),
            "{text}"
        );
        assert!(text.contains("aggregate: 2 ok, 0 failed"), "{text}");
        assert!(text.contains("merged e2e latency: n="), "{text}");
    }

    #[test]
    fn sweep_cache_axis_reports_the_repeat_swap_win() {
        let dir = std::env::temp_dir().join("vapres_cli_sweep_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("bench.json");
        let text = run(
            "sweep",
            &[
                "--kr",
                "2",
                "--kl",
                "2",
                "--fifo-depth",
                "512",
                "--swap",
                "seamless",
                "--samples",
                "300",
                "--interval",
                "50",
                "--bitstream-cache",
                "0,4",
                "--bench",
                bench.to_str().unwrap(),
            ],
        )
        .unwrap();
        let traj = std::fs::read_to_string(&bench).unwrap();
        std::fs::remove_file(&bench).ok();
        // Capacity 0 keeps the pre-cache label and reports no probe;
        // capacity 4 gets the `_bc4` label and the repeat-swap line.
        assert!(text.contains("sweep: 2 scenarios"), "{text}");
        assert!(
            text.contains("kr2kl2_f512_c100_seamless_fr0.00_n300 "),
            "{text}"
        );
        assert!(
            text.contains("kr2kl2_f512_c100_seamless_fr0.00_n300_bc4"),
            "{text}"
        );
        assert!(text.contains("repeat swap: cold "), "{text}");
        // The trajectory records the probe: the cached replay must beat
        // the cold configuration by >= 10x.
        let row = traj
            .lines()
            .find(|l| l.contains("_bc4"))
            .expect("cached scenario row in trajectory");
        let field = |key: &str| -> u64 {
            let tail = row.split(&format!("\"{key}\":")).nth(1).unwrap_or_else(|| {
                panic!("field {key} missing in {row}");
            });
            tail.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap_or_else(|_| panic!("field {key} not numeric in {row}"))
        };
        let cold = field("repeat_swap_cold_ps");
        let warm = field("repeat_swap_warm_ps");
        assert!(
            cold >= 10 * warm,
            "repeat swap not >=10x faster: cold {cold} ps, warm {warm} ps"
        );
        assert!(field("cache_hits") >= 1, "{row}");
        assert!(field("cache_bytes_saved") > 0, "{row}");
        // The uncached row carries the fields too, as nulls/zeros.
        let base = traj
            .lines()
            .find(|l| l.contains("_n300\"") && !l.contains("_bc"))
            .expect("uncached scenario row in trajectory");
        assert!(base.contains("\"repeat_swap_cold_ps\":null"), "{base}");
        assert!(base.contains("\"cache_hits\":0"), "{base}");
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let dir = std::env::temp_dir().join("vapres_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_jobs = |jobs: &str, tag: &str| {
            let jsonl = dir.join(format!("{tag}.jsonl"));
            let bench = dir.join(format!("{tag}.json"));
            let text = run(
                "sweep",
                &[
                    "--kr",
                    "2",
                    "--kl",
                    "2",
                    "--fifo-depth",
                    "512",
                    "--swap",
                    "none,seamless",
                    "--samples",
                    "300",
                    "--interval",
                    "50",
                    "--seed",
                    "7",
                    "--jobs",
                    jobs,
                    "--jsonl",
                    jsonl.to_str().unwrap(),
                    "--bench",
                    bench.to_str().unwrap(),
                ],
            )
            .unwrap();
            // The report body (everything except the path-bearing "wrote"
            // lines) plus both artifacts must be jobs-invariant.
            let body: String = text.lines().filter(|l| !l.starts_with("wrote ")).fold(
                String::new(),
                |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                },
            );
            let merged = std::fs::read_to_string(&jsonl).unwrap();
            let traj = std::fs::read_to_string(&bench).unwrap();
            std::fs::remove_file(&jsonl).ok();
            std::fs::remove_file(&bench).ok();
            (body, merged, traj)
        };
        let a = run_jobs("1", "a");
        let b = run_jobs("4", "b");
        assert_eq!(a.0, b.0, "report differs between --jobs 1 and --jobs 4");
        assert_eq!(a.1, b.1, "merged JSONL differs");
        // The trajectory is jobs-invariant except the one "host" context
        // line, which must reflect each run's actual --jobs value.
        let sans_host = |traj: &str| {
            let mut lines: Vec<&str> = traj.lines().collect();
            let host = lines
                .iter()
                .position(|l| l.contains("\"host\""))
                .expect("trajectory has a host line");
            (lines.remove(host).to_string(), lines.join("\n"))
        };
        let (host_a, body_a) = sans_host(&a.2);
        let (host_b, body_b) = sans_host(&b.2);
        assert_eq!(
            body_a, body_b,
            "trajectory JSON differs beyond the host line"
        );
        assert!(host_a.contains("\"jobs\": 1"), "{host_a}");
        assert!(host_b.contains("\"jobs\": 4"), "{host_b}");
        assert!(host_a.contains("\"cpus\": "), "{host_a}");
        assert!(a.2.contains("\"bench\": \"sweep\""), "{}", a.2);
        assert!(a.2.contains("\"outcome\":\"completed\""), "{}", a.2);
    }

    #[test]
    fn profile_runs_e3_and_exports_both_planes() {
        let dir = std::env::temp_dir().join("vapres_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let flame = dir.join("flame.folded");
        let model = dir.join("cost.json");
        let text = run(
            "profile",
            &[
                "--samples",
                "2000",
                "--top",
                "5",
                "--flame",
                flame.to_str().unwrap(),
                "--cost-model",
                model.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("top 5 scopes by host self time"), "{text}");
        assert!(text.contains("scope"), "{text}");
        assert!(text.contains("self%"), "{text}");
        assert!(
            text.contains("run"),
            "top table names the run scope: {text}"
        );
        assert!(text.contains("work plane: "), "{text}");
        assert!(text.contains("timed about 1 in 16"), "{text}");

        let flame_text = std::fs::read_to_string(&flame).unwrap();
        assert!(
            flame_text
                .lines()
                .any(|l| l.starts_with("run;exec/fabric ")),
            "collapsed stacks carry nested paths: {flame_text}"
        );
        let model_text = std::fs::read_to_string(&model).unwrap();
        assert!(model_text.contains("\"cost_model\": 1"), "{model_text}");
        assert!(
            model_text.contains("\"component\":\"exec/fabric\""),
            "{model_text}"
        );
        assert!(
            model_text.contains("\"component\":\"swap/steps\""),
            "{model_text}"
        );
        assert!(
            model_text.contains("\"component\":\"icap/words\""),
            "{model_text}"
        );
        assert!(model_text.contains("\"ns_per_unit\":"), "{model_text}");
        std::fs::remove_file(&flame).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn sim_profile_flags_require_each_other() {
        let err = run("sim", &["--flame", "out.folded"]).unwrap_err();
        assert!(err.0.contains("--profile yes"), "{}", err.0);
        let err = run("sim", &["--cost-model", "out.json"]).unwrap_err();
        assert!(err.0.contains("--profile yes"), "{}", err.0);
        let err = run("sweep", &["--cost-model", "out.json"]).unwrap_err();
        assert!(err.0.contains("--profile yes"), "{}", err.0);
        let err = run("sweep", &["--profile", "yes", "--sample-every", "100"]).unwrap_err();
        assert!(err.0.contains("cannot combine"), "{}", err.0);
    }

    /// Strips the machine-dependent host fields from a cost-model JSON,
    /// leaving the deterministic component/work-unit plane.
    fn work_plane_of(json: &str) -> String {
        json.lines()
            .map(|l| match l.find("\"host_ns\"") {
                Some(cut) => format!("{}...", &l[..cut]),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn sweep_cost_model_work_plane_is_jobs_and_warmth_invariant() {
        let dir = std::env::temp_dir().join("vapres_cli_costmodel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_one = |jobs: &str, cold: &str, tag: &str| {
            let model = dir.join(format!("{tag}.json"));
            let text = run(
                "sweep",
                &[
                    "--kr",
                    "2",
                    "--kl",
                    "2",
                    "--fifo-depth",
                    "512",
                    "--swap",
                    "none,seamless",
                    "--samples",
                    "300",
                    "--interval",
                    "50",
                    "--seed",
                    "7",
                    "--jobs",
                    jobs,
                    "--cold",
                    cold,
                    "--profile",
                    "yes",
                    "--cost-model",
                    model.to_str().unwrap(),
                ],
            )
            .unwrap();
            assert!(text.contains("profile: "), "{text}");
            let json = std::fs::read_to_string(&model).unwrap();
            std::fs::remove_file(&model).ok();
            json
        };
        let a = run_one("1", "no", "a");
        let b = run_one("4", "no", "b");
        let c = run_one("1", "yes", "c");
        assert_eq!(
            work_plane_of(&a),
            work_plane_of(&b),
            "work-unit plane differs between --jobs 1 and --jobs 4"
        );
        assert_eq!(
            work_plane_of(&a),
            work_plane_of(&c),
            "work-unit plane differs between warm and cold sweeps"
        );
        assert!(a.contains("\"component\":\"fabric/route"), "{a}");
    }

    #[test]
    fn sweep_rejects_bad_grids() {
        let err = run("sweep", &["--swap", "sideways"]).unwrap_err();
        assert!(err.0.contains("unknown swap method"), "{}", err.0);
        let err = run("sweep", &["--fault-rate", "2.0"]).unwrap_err();
        assert!(err.0.contains("fault rate"), "{}", err.0);
        let err = run("sweep", &["--kr", ""]).unwrap_err();
        assert!(err.0.contains("cannot parse"), "{}", err.0);
    }

    #[test]
    fn report_metrics_rejects_inconsistent_histogram_parts() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad_hist.jsonl");
        // Valid JSONL shape, inconsistent content: a zero bucket width.
        std::fs::write(
            &bad,
            "{\"type\":\"histogram\",\"name\":\"h\",\"labels\":{},\
             \"bucket_width\":0,\"counts\":[1]}\n",
        )
        .unwrap();
        let err = run("report", &["--metrics", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("bucket width"), "{}", err.0);
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn sim_checkpoints_and_replay_finishes_the_scenario() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let text = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                &dir_s,
            ],
        )
        .unwrap();
        assert!(text.contains("checkpoint "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(files.len() >= 2, "expected several checkpoints: {files:?}");

        // The first checkpoint predates the swap: replay performs it and
        // still drains the full stream.
        let first = files.first().unwrap().to_str().unwrap();
        let text = run("replay", &[first]).unwrap();
        assert!(text.contains("restored "), "{text}");
        assert!(text.contains("swap       : "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        // The last checkpoint postdates the swap: replay only drains.
        let last = files.last().unwrap().to_str().unwrap();
        let text = run("replay", &[last]).unwrap();
        assert!(!text.contains("swap       : "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        // --until-breach on the healthy seamless scenario re-judges the
        // monitors and reports no divergence.
        let text = run("replay", &[first, "--until-breach", "yes"]).unwrap();
        assert!(text.contains("[PASS] swap_reconfig_ps"), "{text}");
        assert!(text.contains("no breach reproduced"), "{text}");

        // `sim --restore` is the same resume path.
        let text = run("sim", &["--restore", first]).unwrap();
        assert!(text.contains("restored "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reproduces_a_swap_failure_from_a_checkpoint() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_fail_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        // The sim itself fails at the swap, but its pre-swap checkpoints
        // were already written — exactly the divergence-point workflow.
        let err = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--fail-swap",
                "yes",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                &dir_s,
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("swap failed"), "{}", err.0);

        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let first = files.first().expect("pre-swap checkpoints exist");
        let err = run("replay", &[first.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("swap failed"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_non_checkpoint_files() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.vapresck");
        std::fs::write(&junk, b"definitely not a checkpoint").unwrap();
        let err = run("replay", &[junk.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("not a vapres checkpoint"), "{}", err.0);
        std::fs::remove_file(&junk).ok();

        let err = run("replay", &["/nonexistent_vapres/x.vapresck"]).unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
        let err = run("replay", &[]).unwrap_err();
        assert!(err.0.contains("usage"), "{}", err.0);
    }

    #[test]
    fn checkpoint_flags_must_be_paired() {
        let err = run("sim", &["--checkpoint-every", "100"]).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
        let err = run("sim", &["--checkpoint-dir", "/tmp/x"]).unwrap_err();
        assert!(err.0.contains("--checkpoint-every"), "{}", err.0);
    }

    #[test]
    fn unwritable_output_paths_fail_with_the_path_in_the_message() {
        // A parent directory that cannot exist: every writer must fail
        // with a "cannot write <path>" message (and a non-zero exit from
        // main), never a panic or a bare OS error.
        let bad = "/nonexistent_vapres_dir/out.file";
        let cases: &[(&str, Vec<&str>)] = &[
            ("floorplan", vec!["--prrs", "640", "--ucf", bad]),
            ("floorplan", vec!["--prrs", "640", "--mhs", bad]),
            (
                "bitgen",
                vec!["--rect", "0:9:0:15", "--uid", "1", "--out", bad],
            ),
            ("sim", vec!["--samples", "50", "--vcd", bad]),
            ("sim", vec!["--samples", "50", "--metrics", bad]),
            ("sim", vec!["--samples", "50", "--flight-dump", bad]),
            (
                "sweep",
                vec![
                    "--kr",
                    "2",
                    "--kl",
                    "2",
                    "--fifo-depth",
                    "512",
                    "--swap",
                    "none",
                    "--samples",
                    "300",
                    "--jsonl",
                    bad,
                ],
            ),
            (
                "sweep",
                vec![
                    "--kr",
                    "2",
                    "--kl",
                    "2",
                    "--fifo-depth",
                    "512",
                    "--swap",
                    "none",
                    "--samples",
                    "300",
                    "--bench",
                    bad,
                ],
            ),
        ];
        for (sub, tokens) in cases {
            let err = run(sub, tokens).unwrap_err();
            assert!(
                err.0.contains("cannot write") && err.0.contains(bad),
                "{sub} {tokens:?}: wrong error: {}",
                err.0
            );
        }

        // An unwritable checkpoint dir (a path component is a file).
        let blocker = std::env::temp_dir().join("vapres_cli_blocker");
        std::fs::write(&blocker, b"").unwrap();
        let nested = blocker.join("sub");
        let err = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                nested.to_str().unwrap(),
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("cannot write"), "{}", err.0);
        std::fs::remove_file(&blocker).ok();

        // Unreadable inputs name the path too.
        let err = run("bitinfo", &["/nonexistent_vapres/x.bit"]).unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
        let err = run("report", &["--metrics", "/nonexistent_vapres/x.jsonl"]).unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
    }

    #[test]
    fn bad_rect_rejected() {
        assert!(run(
            "bitgen",
            &["--rect", "9:0:0:15", "--uid", "1", "--out", "/tmp/x"]
        )
        .is_err());
        assert!(run("reconfig-time", &["--rect", "1:2:3"]).is_err());
        assert!(run("reconfig-time", &[]).is_err());
    }

    #[test]
    fn sim_timeseries_samples_and_exports_every_format() {
        let dir = std::env::temp_dir().join("vapres_cli_ts_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("ts.jsonl");
        let trace = dir.join("ts_trace.json");
        let csv = dir.join("ts.csv");
        let text = run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--sample-every",
                "100",
                "--timeseries",
                jsonl.to_str().unwrap(),
                "--timeseries-trace",
                trace.to_str().unwrap(),
                "--timeseries-csv",
                csv.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("timeseries : "), "{text}");

        let ts = std::fs::read_to_string(&jsonl).unwrap();
        assert!(ts.contains("\"type\":\"series\""), "{ts}");
        assert!(ts.contains("\"type\":\"frame\""), "{ts}");
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.starts_with("{\"traceEvents\":["), "{tr}");
        assert!(tr.contains("\"ph\":\"C\""), "{tr}");
        let head = std::fs::read_to_string(&csv).unwrap();
        assert!(head.starts_with("metric,labels,at_ps,value"), "{head}");
        for f in [&jsonl, &trace, &csv] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn timeseries_and_live_flags_need_sample_every() {
        for tokens in [
            &["--timeseries", "/tmp/x.jsonl"][..],
            &["--timeseries-trace", "/tmp/x.json"][..],
            &["--live-port", "0"][..],
        ] {
            let err = run("sim", tokens).unwrap_err();
            assert!(err.0.contains("--sample-every"), "{}", err.0);
        }
        let err = run(
            "sweep",
            &[
                "--kr",
                "2",
                "--kl",
                "2",
                "--fifo-depth",
                "512",
                "--swap",
                "none",
                "--samples",
                "300",
                "--timeseries",
                "/tmp/x.jsonl",
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("--sample-every"), "{}", err.0);
    }

    #[test]
    fn sweep_timeseries_is_byte_identical_across_jobs() {
        let dir = std::env::temp_dir().join("vapres_cli_sweep_ts_test");
        std::fs::create_dir_all(&dir).unwrap();
        let j1 = dir.join("ts_j1.jsonl");
        let j4 = dir.join("ts_j4.jsonl");
        for (jobs, path) in [("1", &j1), ("4", &j4)] {
            run(
                "sweep",
                &[
                    "--kr",
                    "2",
                    "--kl",
                    "2,3",
                    "--fifo-depth",
                    "512",
                    "--swap",
                    "none,seamless",
                    "--samples",
                    "300",
                    "--interval",
                    "50",
                    "--jobs",
                    jobs,
                    "--sample-every",
                    "100",
                    "--timeseries",
                    path.to_str().unwrap(),
                ],
            )
            .unwrap();
        }
        let a = std::fs::read(&j1).unwrap();
        let b = std::fs::read(&j4).unwrap();
        assert!(!a.is_empty(), "sampled sweep wrote no series");
        assert_eq!(a, b, "time-series JSONL must be jobs-invariant");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_catches_an_injected_p99_latency_regression() {
        let dir = std::env::temp_dir().join("vapres_cli_diff_inject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.jsonl");
        let baseline_s = baseline.to_str().unwrap().to_string();
        run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--trace-words",
                "10",
                "--metrics",
                &baseline_s,
            ],
        )
        .unwrap();

        // A byte-identical candidate passes the gate.
        let text = run("diff", &[&baseline_s, &baseline_s]).unwrap();
        assert!(text.contains("no regressions"), "{text}");

        // Stretch the end-to-end latency histogram's bucket width by 20%:
        // every percentile (p99 included) shifts up 20%, the exact shape
        // of a "this change made words slower" regression.
        let mut perturbed = String::new();
        for line in std::fs::read_to_string(&baseline).unwrap().lines() {
            if line.contains("\"name\":\"word_e2e_latency_ps\"") {
                let (pre, rest) = line.split_once("\"bucket_width\":").unwrap();
                let (width, post) = rest.split_once(',').unwrap();
                let wider = width.parse::<u64>().unwrap() * 6 / 5;
                perturbed.push_str(&format!("{pre}\"bucket_width\":{wider},{post}\n"));
            } else {
                perturbed.push_str(line);
                perturbed.push('\n');
            }
        }
        let candidate = dir.join("candidate.jsonl");
        std::fs::write(&candidate, perturbed).unwrap();
        let err = run("diff", &[&baseline_s, candidate.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("regression"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_stamp_flight_events_and_meta_ordinals() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_flight_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.jsonl");
        let ckpts = dir.join("ckpts");
        run(
            "sim",
            &[
                "--swap",
                "yes",
                "--samples",
                "2000",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                ckpts.to_str().unwrap(),
                "--flight-dump",
                flight.to_str().unwrap(),
            ],
        )
        .unwrap();

        // The run's final ring may have churned the early checkpoint
        // cuts out (FIFO edges dominate); the dump itself must exist.
        assert!(!std::fs::read_to_string(&flight).unwrap().is_empty());

        // Each file's meta carries its sequence number, and the image
        // itself holds the ring up to (and including) its own cut — the
        // cut is the newest entry, so eviction can't have dropped it.
        // Restore + replay then stamp their events on top of it.
        let mut files: Vec<_> = std::fs::read_dir(&ckpts)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(files.len() >= 2, "expected several checkpoints: {files:?}");
        for (i, path) in files.iter().enumerate() {
            let bytes = std::fs::read(path).unwrap();
            let (meta, image) = parse_checkpoint_file(&bytes).unwrap();
            assert_eq!(meta.ordinal, i as u64, "{path:?}");
            let mut lib = vapres_core::module::ModuleLibrary::new();
            vapres_modules::register_standard_modules(&mut lib, 0);
            let mut sys = vapres_core::system::VapresSystem::restore(
                vapres_core::config::SystemConfig::prototype(),
                lib,
                image,
            )
            .unwrap();
            sys.note_flight(vapres_sim::flight::FlightEvent::Restore {
                ordinal: meta.ordinal,
            });
            let mut buf = Vec::new();
            sys.dump_flight_jsonl(&mut buf).unwrap();
            let ring = String::from_utf8(buf).unwrap();
            assert!(
                ring.contains(&format!("\"event\":\"checkpoint\",\"ordinal\":{i}")),
                "{ring}"
            );
            assert!(
                ring.contains(&format!("\"event\":\"restore\",\"ordinal\":{i}")),
                "{ring}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_jsonl_is_machine_readable() {
        let text = run("health", &["--jsonl", "yes"]).unwrap();
        for line in text.lines() {
            assert!(
                line.starts_with("{\"type\":\"verdict\"")
                    || line.starts_with("{\"type\":\"health\""),
                "non-JSONL line in --jsonl output: {line}"
            );
        }
        assert!(text.contains("\"type\":\"health\""), "{text}");
        assert!(text.contains("\"healthy\":true"), "{text}");

        // The breaching variant still renders JSONL, then exits non-zero.
        let err = run(
            "health",
            &["--halt", "yes", "--samples", "2000", "--jsonl", "yes"],
        )
        .unwrap_err();
        assert!(err.0.contains("health check failed"), "{}", err.0);
    }

    #[test]
    fn sim_live_port_serves_metrics_health_and_flight_mid_run() {
        use std::io::{Read as _, Write as _};

        // Port 0 binds an ephemeral port announced on the first output
        // line; probe it from a thread while the simulation runs.
        let args = Args::parse([
            "--swap",
            "yes",
            "--samples",
            "2000",
            "--sample-every",
            "100",
            "--live-port",
            "0",
        ])
        .unwrap();
        let mut out = AnnouncedProbe::default();
        dispatch("sim", &args, &mut out).unwrap();
        let (metrics, health) = out.probed.expect("live endpoint was announced and probed");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("vapres_"), "{metrics}");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"type\":\"health\""), "{health}");

        /// Captures sim output. The banner prints before the run (no
        /// sample published yet), so the probe waits for the first
        /// post-run line — the command (and its server) is still live —
        /// then issues raw `TcpStream` GETs against the announced port.
        #[derive(Default)]
        struct AnnouncedProbe {
            buf: Vec<u8>,
            probed: Option<(String, String)>,
        }
        impl Write for AnnouncedProbe {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.buf.extend_from_slice(data);
                if self.probed.is_none() {
                    let text = String::from_utf8_lossy(&self.buf).into_owned();
                    if text.contains("samples out:") {
                        let port: u16 = text
                            .lines()
                            .find(|l| l.starts_with("live endpoint: "))
                            .and_then(|l| l.split("127.0.0.1:").nth(1))
                            .and_then(|r| r.split('/').next())
                            .and_then(|p| p.parse().ok())
                            .expect("port in banner");
                        self.probed = Some((probe(port, "/metrics"), probe(port, "/health")));
                    }
                }
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        fn probe(port: u16, path: &str) -> String {
            let mut s = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            resp
        }
    }

    #[test]
    fn fleet_runs_and_is_byte_identical_across_runs() {
        let dir = std::env::temp_dir().join("vapres_cli_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |tag: &str| {
            let jsonl = dir.join(format!("{tag}.jsonl"));
            let flight = dir.join(format!("{tag}_flight.jsonl"));
            let bench = dir.join(format!("{tag}.json"));
            let text = run(
                "fleet",
                &[
                    "--rsbs",
                    "4",
                    "--samples",
                    "200",
                    "--interval",
                    "50",
                    "--swaps",
                    "5",
                    "--seed",
                    "9",
                    "--jsonl",
                    jsonl.to_str().unwrap(),
                    "--flight",
                    flight.to_str().unwrap(),
                    "--bench",
                    bench.to_str().unwrap(),
                ],
            )
            .unwrap();
            // The wall clock is confined to the `host:` report line and
            // the `"host"` JSON line; the rest must be byte-identical.
            let body: String = text
                .lines()
                .filter(|l| !l.starts_with("wrote ") && !l.starts_with("host:"))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
            let merged = std::fs::read_to_string(&jsonl).unwrap();
            let fl = std::fs::read_to_string(&flight).unwrap();
            let traj = std::fs::read_to_string(&bench).unwrap();
            std::fs::remove_file(&jsonl).ok();
            std::fs::remove_file(&flight).ok();
            std::fs::remove_file(&bench).ok();
            (body, merged, fl, traj)
        };
        let a = run_once("a");
        let b = run_once("b");
        assert_eq!(a.0, b.0, "report differs between runs");
        assert_eq!(a.1, b.1, "merged telemetry JSONL differs");
        assert_eq!(a.2, b.2, "merged flight JSONL differs");
        let sans_host = |traj: &str| {
            traj.lines()
                .filter(|l| !l.contains("\"host\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            sans_host(&a.3),
            sans_host(&b.3),
            "trajectory differs beyond the host line"
        );
        assert!(a.3.contains("\"bench\": \"fleet\""), "{}", a.3);
        assert!(a.3.contains("\"outcome\":\"ok\""), "{}", a.3);
        assert!(!a.3.contains("\"partition"), "{}", a.3);
        assert!(!a.0.contains("partition:"), "{}", a.0);
        assert!(
            a.0.contains("work: "),
            "report lists the merged work plane:\n{}",
            a.0
        );
        // The flight merge is rsb-stamped and sim-time-major.
        assert!(
            a.2.lines().next().unwrap_or("").starts_with("{\"rsb\":"),
            "{}",
            a.2
        );
    }

    #[test]
    fn fleet_rejects_bad_specs() {
        assert!(run("fleet", &["--rsbs", "0"]).is_err());
        assert!(run("fleet", &["--samples", "0"]).is_err());
        assert!(run("fleet", &["--timeseries", "ts.jsonl"]).is_err());
    }
}
