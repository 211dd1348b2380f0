//! The `vapres` subcommands, testable against any `Write` sink.

use crate::args::{ArgError, Args};
use crate::live::LiveServer;
use std::fmt;
use std::io::Write;
use vapres_bitstream::stream::{ModuleUid, PartialBitstream};
use vapres_bitstream::timing;
use vapres_core::scenario::SwapMethod;
use vapres_core::system::VapresSystem;
use vapres_core::{evaluate_health, HealthPolicy, Ps, SwapReport};
use vapres_fabric::geometry::{ClbRect, Device};
use vapres_fabric::resources::{ResourceBudget, ResourceKind};
use vapres_floorplan::planner::{plan, PlanOutcome, PrrRequest};
use vapres_floorplan::report::utilization_report;
use vapres_floorplan::resources::{comm_arch_slices, static_region_slices};
use vapres_floorplan::sysdef::{generate_mhs, generate_ucf, parse_ucf};
use vapres_kpn::e3::{Arrangement, Checkpoints, Drive, DriveError, Phase};
use vapres_sim::persist::PersistError;
use vapres_sim::watchdog::HealthReport;
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

/// Creates `path` and fills it through `write`, naming the path in any
/// failure.
fn write_file(
    path: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), CmdError> {
    let mut file = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| write_err(path, e))?;
    write(&mut file)
        .and_then(|()| file.flush())
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

/// Floorplans the `--prrs` slice counts on `--device`: the requests
/// (named `prr0`, `prr1`, ...) and the planner's outcome.
fn plan_prrs(args: &Args) -> Result<(Vec<PrrRequest>, PlanOutcome), CmdError> {
    let device = device_by_name(args.get_or("device", "lx25"))?;
    let requests = args
        .require("prrs")?
        .split(',')
        .enumerate()
        .map(|(i, s)| match s.trim().parse() {
            Ok(slices) => Ok(PrrRequest::new(format!("prr{i}"), slices)),
            Err(_) => Err(CmdError(format!("bad slice count {s:?}"))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = plan(&device, &requests).map_err(|e| CmdError(e.to_string()))?;
    Ok((requests, outcome))
}

/// `vapres floorplan --prrs 640,640 [--device lx25] [--ucf out.ucf] [--art yes]`.
pub fn cmd_floorplan(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let (requests, outcome) = plan_prrs(args)?;
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
    if args.flag("art")? {
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
    let params = fabric_params(args)?;
    let (_, outcome) = plan_prrs(args)?;
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

/// Starts the `--live-port` endpoint when asked for and announces its
/// address. The server serves until dropped.
fn start_live(args: &Args, out: &mut dyn Write) -> Result<Option<LiveServer>, CmdError> {
    if args.get("live-port").is_none() {
        return Ok(None);
    }
    let port = args.get_num("live-port", 0u16)?;
    let server =
        LiveServer::start(port).map_err(|e| CmdError(format!("--live-port {port}: {e}")))?;
    writeln!(
        out,
        "live endpoint: http://127.0.0.1:{}/metrics /health /flight",
        server.port()
    )?;
    Ok(Some(server))
}

/// Writes the system's flight ring to `path` as JSON Lines.
fn write_flight_dump(sys: &mut VapresSystem, path: &str) -> Result<(), CmdError> {
    write_file(path, |f| sys.dump_flight_jsonl(f))
}

/// Runs `state` to its end through the library drive. With `ckpt`
/// (cadence, directory) every cut is written to `DIR/ckpt_NNNN.vapresck`
/// and reported. On a failed swap or a panic the run's `--flight-dump`
/// ring and `--trace-json` timeline are written before the error
/// propagates, so both show the causal trail into the failure.
fn drive(
    sys: &mut VapresSystem,
    state: &mut Drive,
    ckpt: Option<(Ps, &str)>,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let method = if state.phase == Phase::PendingHalt {
        SwapMethod::Halt
    } else {
        SwapMethod::Seamless
    };
    let arrangement = Arrangement::fig5(method);
    let mut write = |ordinal: u64, image: Vec<u8>, now: Ps| {
        let path = format!("{}/ckpt_{ordinal:04}.vapresck", ckpt.map_or("", |c| c.1));
        std::fs::write(&path, image).map_err(|e| std::io::Error::other(write_err(&path, e).0))?;
        writeln!(out, "checkpoint {path} (t={now})")
            .map_err(|e| std::io::Error::other(CmdError::from(e).0))
    };
    let mut sink = ckpt.map(|(every, _)| Checkpoints::new(every, &mut write));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.run(sys, &arrangement, sink.as_mut())
    }));
    match run {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e @ DriveError::Swap(_))) => {
            write_failure_dumps(sys, args, out)?;
            Err(CmdError(e.to_string()))
        }
        Ok(Err(e)) => Err(CmdError(e.to_string())),
        Err(panic) => {
            let _ = write_failure_dumps(sys, args, &mut std::io::sink());
            std::panic::resume_unwind(panic);
        }
    }
}

/// Writes a failed run's `--flight-dump` ring and `--trace-json`
/// timeline, naming each file written.
fn write_failure_dumps(
    sys: &mut VapresSystem,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    if let Some(path) = args.get("flight-dump") {
        write_flight_dump(sys, path)?;
        writeln!(out, "wrote {path}: flight ring at failure")?;
    }
    if let Some(path) = args.get("trace-json") {
        write_file(path, |f| sys.write_timeline(f))?;
        writeln!(out, "wrote {path}: chrome://tracing timeline at failure")?;
    }
    Ok(())
}

/// How `--health` reports the watchdog verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HealthOut {
    /// The text verdicts, after the run summary.
    Text,
    /// Only the JSONL verdict block on stdout (the live `/health` form).
    Jsonl,
}

/// A `vapres sim` run, parsed once from its flags. A flag that cannot
/// apply to the run is rejected here by name, before anything runs.
struct RunSpec<'a> {
    /// `--restore`: resume a checkpoint, which carries its own scenario.
    restore: Option<&'a str>,
    /// `--swap`: `none` streams the `--stages` pipeline; `seamless` and
    /// `halt` run the paper's E3 scenario.
    swap: SwapMethod,
    stages: &'a str,
    samples: u32,
    interval: u64,
    fail_swap: bool,
    /// `--checkpoint-every` (given in µs of simulated time) and its
    /// directory.
    checkpoint: Option<(Ps, &'a str)>,
    health: Option<HealthOut>,
    profile: bool,
    stats: bool,
    /// `--metrics`/`--trace-json`/`--prom` asked for a telemetry export.
    telemetry: bool,
    trace_words: u32,
    /// `--sample-every` (given in µs of simulated time).
    sample_every: Option<Ps>,
    bitstream_cache: usize,
}

impl<'a> RunSpec<'a> {
    fn parse(args: &'a Args) -> Result<Self, CmdError> {
        let health = match args.get_or("health", "no") {
            "no" => None,
            "yes" => Some(HealthOut::Text),
            "jsonl" => Some(HealthOut::Jsonl),
            v => {
                return Err(CmdError(format!(
                    "--health: expected yes, jsonl or no, got {v:?}"
                )))
            }
        };
        let restore = args.get("restore");
        if let Some(key) = args
            .keys()
            .find(|k| restore.is_some() && !matches!(*k, "restore" | "health"))
        {
            return Err(CmdError(format!(
                "--{key} cannot apply with --restore (the checkpoint carries the \
                 whole scenario; only --health can be added)"
            )));
        }
        let swap = SwapMethod::parse(args.get_or("swap", "none"))
            .map_err(|e| CmdError(format!("--swap: {e}")))?;
        let e3 = swap != SwapMethod::None;
        if e3 && args.get("stages").is_some() {
            return Err(CmdError(format!(
                "--stages cannot apply with --swap {swap} (the E3 scenario streams FIR A, then FIR B)"
            )));
        }
        if !e3 && args.get("fail-swap").is_some() {
            return Err(CmdError(
                "--fail-swap cannot apply without --swap seamless|halt".into(),
            ));
        }
        let interval = args.get_num("interval", if e3 { 500 } else { 1 })?;
        if interval == 0 {
            return Err(CmdError("--interval must be >= 1".into()));
        }
        let checkpoint = match (args.get_us("checkpoint-every")?, args.get("checkpoint-dir")) {
            (None, None) => None,
            (Some(every), Some(dir)) => Some((every, dir)),
            _ => {
                return Err(CmdError(
                    "--checkpoint-every N (microseconds of simulated time) and \
                     --checkpoint-dir DIR go together"
                        .into(),
                ))
            }
        };
        let sample_every = args.get_us("sample-every")?;
        let sampled = ["timeseries", "timeseries-csv", "live-port"];
        if sample_every.is_none() && sampled.iter().any(|k| args.get(k).is_some()) {
            return Err(CmdError(
                "--timeseries/--timeseries-csv/--live-port need \
                 --sample-every N (microseconds of simulated time)"
                    .into(),
            ));
        }
        let profile = args.flag("profile")?;
        if (args.get("flame").is_some() || args.get("cost-model").is_some()) && !profile {
            return Err(CmdError("--flame/--cost-model need --profile yes".into()));
        }
        Ok(RunSpec {
            restore,
            swap,
            stages: args.get_or("stages", "scaler"),
            samples: args.get_num("samples", if e3 { 20_000 } else { 1_000 })?,
            interval,
            fail_swap: args.flag("fail-swap")?,
            checkpoint,
            health,
            profile,
            stats: args.flag("stats")?,
            telemetry: ["metrics", "trace-json", "prom"]
                .iter()
                .any(|k| args.get(k).is_some()),
            trace_words: args.get_num("trace-words", 0u32)?,
            sample_every,
            bitstream_cache: args.get_num("bitstream-cache", 0usize)?,
        })
    }
}

/// `vapres sim` — the one front-end for streaming runs and the paper's
/// E3 scenario.
///
/// `--swap none` (the default) deploys the `--stages` kernel pipeline on
/// the prototype system and streams samples through it on the
/// event-driven executor. `--swap seamless` runs E3 (Fig. 5): FIR A
/// streams live while FIR B is reconfigured into the spare PRR, then the
/// nine-step seamless swap hands the stream over; `--swap halt` runs the
/// halt-and-swap baseline, which stops the stream and reconfigures in
/// place. `--fail-swap yes` points the swap at a missing SDRAM array.
///
/// Output modes ride on the same run. `--health yes` judges the
/// watchdog monitors after the run summary and exits non-zero on a
/// breach (`--health jsonl` prints only the JSONL verdict block);
/// `--profile yes` arms the self-profiler and prints its top scopes,
/// with `--flame`/`--cost-model` exports. `--metrics`/`--trace-json`/
/// `--prom` export telemetry, `--trace-words N` tags every Nth word for
/// end-to-end latency, `--flight-dump` writes the flight ring (before
/// the error on a failed swap), `--sample-every` with `--timeseries*`
/// captures a time series, and `--live-port` serves it mid-run.
/// `--trace-json` writes one chrome://tracing timeline of everything the
/// run armed: spans, time-series counters and flight instants on a
/// simulated-time process, profiler scopes on a host-time process.
///
/// `--checkpoint-every N --checkpoint-dir D` pauses the run every N
/// microseconds of simulated time and writes a numbered, bit-exact
/// checkpoint (`D/ckpt_NNNN.vapresck`): the system and the drive state.
/// `--restore <file>` resumes one through the same drive, where it was
/// cut, and prints the summary and verdicts the run that never stopped
/// prints. With `--health`, that is divergence-point replay: bisect a
/// long run by its checkpoints, then restore the one right before the
/// breach.
pub fn cmd_sim(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let spec = RunSpec::parse(args)?;
    // `--health jsonl` is the machine-readable form: exactly the
    // serialization the live `/health` endpoint publishes, and nothing
    // else on stdout.
    let jsonl = spec.health == Some(HealthOut::Jsonl);
    let mut quiet = std::io::sink();
    let log: &mut dyn Write = if jsonl { &mut quiet } else { &mut *out };
    let Some(health) = run_sim(&spec, args, log)? else {
        return Ok(());
    };
    if jsonl {
        health.write_jsonl(out)?;
    } else {
        health.write_text(out)?;
    }
    if health.healthy() {
        return Ok(());
    }
    let breached: Vec<&str> = health.breaches().map(|v| v.monitor.name.as_str()).collect();
    Err(CmdError(format!(
        "health check failed: {} of {} monitors breached ({})",
        breached.len(),
        health.verdicts().len(),
        breached.join(", ")
    )))
}

/// Builds a fresh system for `spec` with the requested instruments
/// armed and the live endpoint started, then sets up the E3 scenario or
/// deploys the pipeline. Returns the drive state before its first phase
/// and the live server, which serves until dropped.
fn build_fresh(
    spec: &RunSpec<'_>,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(VapresSystem, Drive, Option<LiveServer>), CmdError> {
    use vapres_core::config::SystemConfig;
    use vapres_core::module::ModuleLibrary;
    use vapres_kpn::{deploy, map_pipeline, Pipeline};

    let mut lib = ModuleLibrary::new();
    vapres_modules::register_standard_modules(&mut lib, 0);
    let mut sys =
        VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| CmdError(e.to_string()))?;
    if args.get("vcd").is_some() {
        sys.enable_tracing();
    }
    if spec.telemetry {
        sys.enable_telemetry();
    }
    if spec.trace_words > 0 {
        sys.enable_word_trace(spec.trace_words);
    }
    if spec.profile {
        sys.enable_profiling();
    }
    if spec.bitstream_cache > 0 {
        sys.enable_bitstream_cache(spec.bitstream_cache);
    }
    if args.get("flight-dump").is_some() {
        sys.enable_flight_recorder(vapres_sim::flight::DEFAULT_CAPACITY);
    }
    if let Some(every) = spec.sample_every {
        sys.enable_timeseries(every, vapres_core::TimeSeries::DEFAULT_CAPACITY);
    }
    let live = start_live(args, out)?;
    if let Some(server) = &live {
        let payloads = server.payloads();
        sys.set_live_sink(
            HealthPolicy::e3_seamless(),
            Box::new(move |snap| {
                let mut p = payloads.lock().expect("live payload lock");
                p.metrics = snap.prometheus.clone();
                p.health = snap.health.clone();
                p.flight = snap.flight.clone();
            }),
        );
    }
    sys.iom_set_input_interval(0, spec.interval);

    let state = if spec.swap == SwapMethod::None {
        let stages = spec
            .stages
            .split(',')
            .map(stage_by_name)
            .collect::<Result<Vec<_>, _>>()?;
        let pipeline = Pipeline::new(stages);
        let mapping = map_pipeline(sys.config(), &pipeline).map_err(|e| CmdError(e.to_string()))?;
        deploy(&mut sys, &pipeline, &mapping).map_err(|e| CmdError(e.to_string()))?;
        Drive::pipeline()
    } else {
        let channels = Arrangement::fig5(spec.swap)
            .deploy(&mut sys)
            .map_err(|e| CmdError(e.to_string()))?;
        Drive {
            fail_swap: spec.fail_swap,
            ..Drive::e3(spec.swap, channels)
        }
    };
    Ok((sys, state, live))
}

/// Builds or restores the system, drives the scenario, prints the run
/// summary and every requested export, and returns the watchdog verdicts
/// when `--health` asked for them.
fn run_sim(
    spec: &RunSpec<'_>,
    args: &Args,
    out: &mut dyn Write,
) -> Result<Option<HealthReport>, CmdError> {
    // The live server is held until the run finishes: dropping it stops
    // the responder thread.
    let (mut sys, state, fed, _live) = match spec.restore {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| read_err(path, e))?;
            let corrupt = |e: PersistError| CmdError(format!("{path}: {e}"));
            let mut lib = vapres_core::module::ModuleLibrary::new();
            vapres_modules::register_standard_modules(&mut lib, 0);
            let (mut sys, mut state) =
                Drive::resume(vapres_core::config::SystemConfig::prototype(), lib, &bytes)
                    .map_err(corrupt)?;
            sys.note_flight(vapres_sim::flight::FlightEvent::Replay {
                until_breach: spec.health.is_some(),
            });
            writeln!(
                out,
                "restored {path}: t={}, {} input words pending",
                sys.now(),
                sys.iom_pending_input(0)
            )?;
            drive(&mut sys, &mut state, None, args, out)?;
            (sys, state, None, None)
        }
        None => {
            if let Some((_, dir)) = spec.checkpoint {
                std::fs::create_dir_all(dir).map_err(|e| write_err(dir, e))?;
            }
            let (mut sys, mut state, live) = build_fresh(spec, args, out)?;
            sys.iom_feed(0, 0..spec.samples);
            drive(&mut sys, &mut state, spec.checkpoint, args, out)?;
            let pipeline = match spec.swap {
                SwapMethod::None => spec.stages,
                SwapMethod::Seamless => "fir-a -> fir-b (seamless swap)",
                SwapMethod::Halt => "fir-a -> fir-b (halt-and-swap)",
            };
            writeln!(out, "pipeline   : {pipeline}")?;
            (sys, state, Some((spec.samples, spec.interval)), live)
        }
    };
    let report = state.report.as_ref();
    write_summary(&sys, report, fed, out)?;
    let policy = HealthPolicy::e3_seamless();
    let health = spec
        .health
        .map(|_| evaluate_health(&mut sys, &policy, report));
    write_exports(&mut sys, spec, args, out)?;
    Ok(health)
}

/// The run summary, the same block for fresh and restored runs: the swap
/// this run performed, the stream counts and timing, and the staged
/// bitstream cache. A fresh run also names what it fed.
fn write_summary(
    sys: &VapresSystem,
    report: Option<&SwapReport>,
    fed: Option<(u32, u64)>,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    if let Some(r) = report {
        writeln!(
            out,
            "swap       : {} total ({} reconfig, {} state words)",
            r.total(),
            r.reconfig.total(),
            r.state_words
        )?;
    }
    if let Some((samples, interval)) = fed {
        writeln!(
            out,
            "samples in : {samples} (1 per {interval} fabric cycles)"
        )?;
    }
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
    Ok(())
}

/// Everything a run was asked to report beyond the summary: word-trace
/// percentiles, the flight ring, executor counters, the VCD, telemetry
/// and time-series exports, and the profile block.
fn write_exports(
    sys: &mut VapresSystem,
    spec: &RunSpec<'_>,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    if spec.trace_words > 0 {
        // Harvest latencies into the telemetry registry (if enabled) and
        // print the end-to-end percentiles directly from the trace.
        if spec.telemetry {
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

    if spec.profile {
        // Mark the export point before the flight ring is written, so a
        // dumped ring shows where the profiler's numbers were taken.
        sys.note_profile_dump();
    }
    if let Some(path) = args.get("flight-dump") {
        write_flight_dump(sys, path)?;
        let n = sys.flight().map_or(0, |f| f.events().count());
        writeln!(out, "wrote {path}: flight ring ({n} events)")?;
    }

    if spec.stats {
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
        write_file(path, |f| tracer.write_vcd(f))?;
        writeln!(out, "wrote {path}: {} signal changes", tracer.len())?;
    }

    if spec.telemetry {
        let t = sys.snapshot_metrics().expect("telemetry was enabled above");
        if let Some(path) = args.get("metrics") {
            write_file(path, |f| t.write_jsonl(f))?;
            writeln!(
                out,
                "wrote {path}: {} metrics + {} spans",
                t.len(),
                t.spans().len()
            )?;
        }
        if let Some(path) = args.get("prom") {
            write_file(path, |f| t.write_prometheus(f))?;
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
            write_file(path, |f| ts.write_jsonl(f))?;
            writeln!(out, "wrote {path}: time-series JSONL")?;
        }
        if let Some(path) = args.get("timeseries-csv") {
            write_file(path, |f| ts.write_csv(f))?;
            writeln!(out, "wrote {path}: per-metric CSV")?;
        }
    }

    if let Some(path) = args.get("trace-json") {
        // One timeline: spans, counters and flight instants on the
        // simulated-time process, profiler scopes on the host-time one.
        write_file(path, |f| sys.write_timeline(f))?;
        writeln!(out, "wrote {path}: chrome://tracing timeline")?;
    }

    if spec.profile {
        // Two planes: deterministic work units (byte-identical across
        // runs, gated exactly by `vapres diff`) and host wall time per
        // nested scope (machine-dependent, outside every determinism
        // contract). `--cost-model` joins them per component.
        let model = sys
            .profile_cost_model()
            .expect("profiler was enabled above");
        let prof = sys.profiler().expect("profiler was enabled above");
        writeln!(out, "\ntop 10 scopes by host self time:")?;
        prof.write_top_table(&mut *out, 10)?;
        writeln!(
            out,
            "work plane: {} components; host plane: {} scopes, {} completed \
             (exec/* dispatches timed about 1 in {}, scaled to an estimate)",
            model.rows.len(),
            prof.scope_count(),
            prof.completed(),
            vapres_sim::profile::DISPATCH_STRIDE_MEAN
        )?;
        if let Some(path) = args.get("flame") {
            write_file(path, |f| prof.write_collapsed(f))?;
            writeln!(out, "wrote {path}: collapsed stacks (flamegraph input)")?;
        }
        if let Some(path) = args.get("cost-model") {
            write_file(path, |f| model.write_json(f))?;
            writeln!(
                out,
                "wrote {path}: cost model ({} components)",
                model.rows.len()
            )?;
        }
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
/// `SweepGrid::e3_default`, the 16-scenario seamless-vs-halt comparison);
/// an axis may not repeat a value. `--cold`, `--sample-every` and
/// `--profile` pick how the one runner runs each scenario and combine
/// freely. The report is byte-identical for any `--jobs` value:
/// scenarios carry deterministic per-index seeds and results merge in
/// scenario-index order, never completion order — so the job count is a
/// pure wall-clock knob that never appears in the report. `--jsonl` exports the merged
/// telemetry registry; `--bench` writes the per-scenario trajectory as
/// JSON (the `BENCH_sweep.json` artifact), whose single `"host"` line
/// records the machine context (CPU count, `--jobs`) so wall-clock
/// comparisons across machines aren't misread — comparisons across job
/// counts filter that one self-describing line.
pub fn cmd_sweep(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use vapres_core::scenario::{merge_telemetry, run_sweep_with, SwapOutcome, SweepGrid};

    /// One comma-separated grid axis, or `default` when the flag is
    /// absent. A repeated value is an error: it would run the same
    /// scenario twice under one label.
    fn axis<T: PartialEq>(
        args: &Args,
        key: &str,
        default: Vec<T>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, CmdError> {
        let Some(spec) = args.get(key) else {
            return Ok(default);
        };
        let mut values = Vec::new();
        for s in spec.split(',').map(str::trim) {
            let v = parse(s).map_err(|e| CmdError(format!("--{key}: {e}")))?;
            if values.contains(&v) {
                return Err(CmdError(format!(
                    "--{key} {spec}: {s} repeats a value of the axis"
                )));
            }
            values.push(v);
        }
        Ok(values)
    }
    fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("cannot parse {s:?}"))
    }

    let base = SweepGrid::e3_default();
    let jobs: usize = args.get_num("jobs", 1usize)?;
    let grid = SweepGrid {
        kr: axis(args, "kr", base.kr, num)?,
        kl: axis(args, "kl", base.kl, num)?,
        fifo_depth: axis(args, "fifo-depth", base.fifo_depth, num)?,
        prr_clock_mhz: axis(args, "clock-mhz", base.prr_clock_mhz, num)?,
        swap: axis(args, "swap", base.swap, SwapMethod::parse)?,
        fault_rate: axis(args, "fault-rate", base.fault_rate, num)?,
        samples: axis(args, "samples", base.samples, num)?,
        bitstream_cache: axis(args, "bitstream-cache", base.bitstream_cache, num)?,
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
    let cold = args.flag("cold")?;
    let sample_every = args.get_us("sample-every")?;
    if (args.get("timeseries").is_some() || args.get("live-port").is_some())
        && sample_every.is_none()
    {
        return Err(CmdError(
            "--timeseries/--live-port need --sample-every N (microseconds of simulated time)"
                .into(),
        ));
    }
    let profile = args.flag("profile")?;
    if args.get("cost-model").is_some() && !profile {
        return Err(CmdError("--cost-model needs --profile yes".into()));
    }
    // Held until the sweep finishes: dropping the server stops the
    // responder thread. Payloads update as each scenario completes.
    let server = start_live(args, out)?;
    let live = server.as_ref();
    let opts = vapres_kpn::RunOptions {
        cold,
        sample_every,
        profile,
    };
    let started = std::time::Instant::now();
    // Results come back in scenario order whichever worker finished
    // first, so every export below is byte-identical for any `--jobs`.
    let results = run_sweep_with(&scenarios, jobs, |sc| {
        let r = vapres_kpn::run_scenario_with(sc, opts);
        if let Some(server) = live {
            publish_scenario_live(server, &r);
        }
        r
    });
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
        write_file(path, |f| merged.write_jsonl(f))?;
        writeln!(
            out,
            "wrote {path}: merged telemetry ({} metrics + {} spans)",
            merged.len(),
            merged.spans().len()
        )?;
    }
    if let Some(path) = args.get("bench") {
        let mode = if cold { "cold" } else { "warm" };
        write_file(path, |f| {
            write_sweep_trajectory(&results, grid.seed, jobs, mode, wall_ms, f)
        })?;
        writeln!(out, "wrote {path}: sweep trajectory")?;
    }
    if let Some(path) = args.get("timeseries") {
        write_file(path, |f| {
            results.iter().try_for_each(|r| {
                let ts = r.series.as_ref().expect("every scenario sampled");
                ts.write_jsonl_tagged(&mut *f, Some(&r.scenario.label()))
            })
        })?;
        writeln!(
            out,
            "wrote {path}: per-scenario time-series JSONL ({} scenarios)",
            results.len()
        )?;
    }
    if profile {
        let mut merged = vapres_core::CostModel::default();
        for r in &results {
            merged.merge(r.cost_model.as_ref().expect("every scenario profiled"));
        }
        let total_work: u64 = merged.rows.iter().map(|r| r.work_units).sum();
        writeln!(
            out,
            "profile: {} components, {total_work} work units across {} scenarios",
            merged.rows.len(),
            results.len()
        )?;
        if let Some(path) = args.get("cost-model") {
            write_file(path, |f| merged.write_json(f))?;
            writeln!(out, "wrote {path}: merged cost model")?;
        }
    }
    Ok(())
}

/// Publishes one completed scenario's observability payloads to the
/// sweep's live endpoint: Prometheus text from its telemetry registry
/// and the E3 stream-SLO verdicts over its summary, in the same
/// serialization as `vapres sim --health jsonl`. Sweeps carry no flight
/// recorder, so `/flight` serves an empty body.
fn publish_scenario_live(server: &LiveServer, r: &vapres_core::scenario::ScenarioResult) {
    use vapres_sim::watchdog::Monitor;

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
) -> std::io::Result<()> {
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
    use vapres_kpn::FleetSpec;

    let rsbs: usize = args.get_num("rsbs", 8usize)?;
    let spec = FleetSpec {
        rsbs,
        samples: args.get_num("samples", 400u32)?,
        interval: args.get_num("interval", 50u64)?,
        swaps: args.get_num("swaps", rsbs)?,
        seed: args.get_num("seed", 0xE3u64)?,
        sample_every: args.get_us("sample-every")?,
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
        write_file(path, |f| result.merged_telemetry.write_jsonl(f))?;
        writeln!(
            out,
            "wrote {path}: merged telemetry ({} metrics + {} spans)",
            result.merged_telemetry.len(),
            result.merged_telemetry.spans().len()
        )?;
    }
    if let Some(path) = args.get("flight") {
        write_file(path, |f| result.merged_flight.write_jsonl(f))?;
        writeln!(
            out,
            "wrote {path}: merged flight JSONL ({} events)",
            result.merged_flight.len()
        )?;
    }
    if let Some(path) = args.get("timeseries") {
        write_file(path, |f| f.write_all(result.timeseries.as_bytes()))?;
        writeln!(out, "wrote {path}: per-RSB time-series JSONL")?;
    }
    if let Some(path) = args.get("bench") {
        write_file(path, |f| write_fleet_trajectory(&spec, &result, wall_ms, f))?;
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
) -> std::io::Result<()> {
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
            "    {{\"component\":\"{}\",\"work_units\":{}}}",
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
            "timeseries-csv",
            "live-port",
            "profile",
            "flame",
            "cost-model",
            "bitstream-cache",
            "health",
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
     \x20 sim            [--swap none|seamless|halt] [--stages scaler,avg] (none only)\n\
     \x20                [--samples N] [--interval CYCLES] [--fail-swap yes] (swap only)\n\
     \x20                [--health yes|jsonl]   (watchdog verdicts, exit 1 on breach)\n\
     \x20                [--profile yes] [--flame out.folded] [--cost-model out.json]\n\
     \x20                [--stats yes] [--vcd out.vcd] [--trace-words N]\n\
     \x20                [--metrics out.jsonl] [--trace-json out.json] [--prom out.prom]\n\
     \x20                [--flight-dump out.jsonl] [--bitstream-cache N]\n\
     \x20                [--sample-every US] [--timeseries out.jsonl] [--timeseries-csv out.csv]\n\
     \x20                [--live-port N]   (serves /metrics /health /flight)\n\
     \x20                [--checkpoint-every US --checkpoint-dir D]\n\
     \x20                | --restore ckpt [--health yes|jsonl]   (finish a checkpoint)\n\
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
    use vapres_sim::persist::{Container, Persist, SectionTag, Writer};

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
                "seamless",
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
            &[
                "--swap",
                "seamless",
                "--samples",
                "2000",
                "--trace-words",
                "10",
            ],
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
                "seamless",
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
                "seamless",
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
    fn sim_health_seamless_passes_all_monitors() {
        let text = run(
            "sim",
            &["--swap", "seamless", "--samples", "2000", "--health", "yes"],
        )
        .unwrap();
        // The verdicts follow the run summary.
        let summary = text.find("samples out: 2001").expect(&text);
        let verdicts = text.find("[PASS] swap_reconfig_ps").expect(&text);
        assert!(summary < verdicts, "{text}");
        assert!(text.contains("seamless swap"), "{text}");
        assert!(text.contains("[PASS] iom0_missed_slots"), "{text}");
        assert!(text.ends_with("overall: HEALTHY (6 monitors)\n"), "{text}");
    }

    #[test]
    fn sim_health_halt_swap_breaches_and_exits_nonzero() {
        let err = run(
            "sim",
            &["--swap", "halt", "--samples", "2000", "--health", "yes"],
        )
        .unwrap_err();
        assert_eq!(
            err.0,
            "health check failed: 3 of 6 monitors breached \
             (fifo_high_water, iom0_missed_slots, iom0_excess_gap_ps)"
        );
    }

    #[test]
    fn sim_rejects_flags_that_cannot_apply() {
        // (tokens, substring the error must contain)
        let cases: &[(&[&str], &str)] = &[
            (
                &["--swap", "seamless", "--stages", "avg"],
                "--stages cannot apply",
            ),
            (
                &["--swap", "halt", "--stages", "avg"],
                "--stages cannot apply",
            ),
            (&["--fail-swap", "yes"], "--fail-swap cannot apply"),
            (
                &["--swap", "none", "--fail-swap", "no"],
                "--fail-swap cannot apply",
            ),
            (
                &["--restore", "x.vapresck", "--samples", "10"],
                "--samples cannot apply",
            ),
            (
                &["--restore", "x.vapresck", "--swap", "halt"],
                "--swap cannot apply",
            ),
            (
                &["--restore", "x.vapresck", "--profile", "yes"],
                "--profile cannot apply",
            ),
            (&["--swap", "yes"], "unknown swap method \"yes\""),
            (&["--health", "true"], "--health: expected yes, jsonl or no"),
            (&["--stats", "true"], "--stats: expected yes or no"),
            (&["--profile", "on"], "--profile: expected yes or no"),
        ];
        for (tokens, want) in cases {
            let err = run("sim", tokens).unwrap_err();
            assert!(err.0.contains(want), "{tokens:?}: {}", err.0);
        }
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
                "seamless",
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
        // `health`, `profile` and `replay` are output modes of `sim` now.
        for sub in ["frobnicate", "health", "profile", "replay"] {
            let err = run(sub, &[]).unwrap_err();
            assert!(err.0.contains("unknown subcommand"), "{sub}: {}", err.0);
            assert!(err.0.contains("subcommands:"), "{sub}");
        }
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
            ("sim", &["--healt", "yes"]),
            // Flags of the folded `health`/`profile`/`replay` front-ends.
            ("sim", &["--halt", "yes"]),
            ("sim", &["--top", "5"]),
            ("sim", &["--until-breach", "yes"]),
            ("sim", &["--jsonl", "yes"]),
            ("sweep", &["--job", "4"]),
            ("sweep", &["--warm", "yes"]),
            ("sim", &["--sample-ever", "100"]),
            ("sim", &["--timeserie", "ts.jsonl"]),
            // Folded into `--trace-json`'s one timeline.
            ("sim", &["--timeseries-trace", "ts.json"]),
            ("sim", &["--live-prt", "9100"]),
            ("sweep", &["--sample-every-us", "100"]),
            ("sweep", &["--live-prt", "9100"]),
            ("diff", &["--tolerence", "0.05"]),
            ("sim", &["--profil", "yes"]),
            ("sim", &["--flamme", "out.folded"]),
            ("sim", &["--cost-mode", "out.json"]),
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
    fn sim_profile_runs_e3_and_exports_both_planes() {
        let dir = std::env::temp_dir().join("vapres_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let flame = dir.join("flame.folded");
        let model = dir.join("cost.json");
        let text = run(
            "sim",
            &[
                "--swap",
                "seamless",
                "--samples",
                "2000",
                "--profile",
                "yes",
                "--flame",
                flame.to_str().unwrap(),
                "--cost-model",
                model.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("top 10 scopes by host self time:"), "{text}");
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
    }

    /// A profiled and sampled sweep runs both observers in one pass: its
    /// series is byte-identical to the sampled-only sweep's, and its work
    /// plane is identical across job counts and warm/cold.
    #[test]
    fn sweep_profiled_and_sampled_matches_each_observer_alone() {
        let dir = std::env::temp_dir().join("vapres_cli_sweep_both_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let sweep = |extra: &[&str]| {
            let mut tokens = vec![
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
                "--seed",
                "7",
                "--sample-every",
                "100",
            ];
            tokens.extend_from_slice(extra);
            run("sweep", &tokens).unwrap()
        };
        sweep(&["--timeseries", &path("alone.jsonl")]);
        let alone = std::fs::read(path("alone.jsonl")).unwrap();
        assert!(!alone.is_empty(), "sampled sweep wrote no series");
        let mut planes = Vec::new();
        for (tag, extra) in [
            ("j1", ["--jobs", "1"]),
            ("j3", ["--jobs", "3"]),
            ("cold", ["--cold", "yes"]),
        ] {
            let (series, model) = (path(&format!("{tag}.jsonl")), path(&format!("{tag}.json")));
            let text = sweep(&[
                extra[0],
                extra[1],
                "--profile",
                "yes",
                "--timeseries",
                &series,
                "--cost-model",
                &model,
            ]);
            assert!(text.contains("profile: "), "{text}");
            assert_eq!(
                std::fs::read(&series).unwrap(),
                alone,
                "{tag}: profiling changed the series"
            );
            planes.push(work_plane_of(&std::fs::read_to_string(&model).unwrap()));
        }
        assert!(
            planes[0].contains("\"component\":\"sample\""),
            "{}",
            planes[0]
        );
        assert_eq!(
            planes[0], planes[1],
            "work plane differs between --jobs 1 and 3"
        );
        assert_eq!(
            planes[0], planes[2],
            "work plane differs between warm and cold"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fault rates that two decimals would round apart still get
    /// distinct labels, so the trajectory diffs against itself; an axis
    /// that repeats a value is rejected by name.
    #[test]
    fn sweep_labels_are_unique_and_axes_reject_repeats() {
        let dir = std::env::temp_dir().join("vapres_cli_sweep_labels_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("b.json").to_str().unwrap().to_string();
        let text = run(
            "sweep",
            &[
                "--kr",
                "2",
                "--kl",
                "2",
                "--fifo-depth",
                "64",
                "--swap",
                "seamless",
                "--samples",
                "200",
                "--fault-rate",
                "0.001,0.004",
                "--bench",
                &bench,
            ],
        )
        .unwrap();
        assert!(text.contains("_fr0.001_n200"), "{text}");
        assert!(text.contains("_fr0.004_n200"), "{text}");
        run("diff", &[&bench, &bench]).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        for (flag, spec) in [
            ("--kr", "2,2"),
            ("--swap", "halt,seamless,halt"),
            ("--fault-rate", "0.5,0.50"),
            ("--bitstream-cache", "0,4,0"),
        ] {
            let err = run("sweep", &[flag, spec]).unwrap_err();
            assert!(err.0.starts_with(&format!("{flag} {spec}: ")), "{}", err.0);
            assert!(err.0.contains("repeats"), "{}", err.0);
        }
    }

    /// A failed swap still writes the timeline: the flight instants of
    /// the steps it ran, up to the failure, on the simulated-time process.
    #[test]
    fn sim_trace_json_is_written_when_the_swap_fails() {
        let dir = std::env::temp_dir().join("vapres_cli_failed_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("x.json").to_str().unwrap().to_string();
        let flight = dir.join("f.jsonl").to_str().unwrap().to_string();
        let err = run(
            "sim",
            &[
                "--swap",
                "seamless",
                "--samples",
                "2000",
                "--fail-swap",
                "yes",
                "--trace-json",
                &trace,
                "--flight-dump",
                &flight,
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("swap failed"), "{}", err.0);
        let doc = vapres_sim::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().items().unwrap();
        let on_sim = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str().ok()) == Some(name))
                .filter(|e| e.get("pid").and_then(|p| p.as_u64().ok()) == Some(1))
                .count()
        };
        assert!(on_sim("swap_step") >= 1, "no swap_step on pid 1");
        assert_eq!(on_sim("swap_failed"), 1, "the failure itself is on pid 1");
        std::fs::remove_dir_all(&dir).ok();
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

    /// The checkpoint files in `dir`, in the order the run wrote them.
    fn checkpoint_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    #[test]
    fn sim_checkpoints_and_restore_finishes_the_scenario() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let text = run(
            "sim",
            &[
                "--swap",
                "seamless",
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

        let files = checkpoint_files(&dir);
        assert!(files.len() >= 2, "expected several checkpoints: {files:?}");

        // The first checkpoint predates the swap: the restored run
        // performs it and still drains the full stream.
        let first = files.first().unwrap().to_str().unwrap();
        let text = run("sim", &["--restore", first]).unwrap();
        assert!(text.contains("restored "), "{text}");
        assert!(text.contains("swap       : "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        // The last checkpoint postdates the swap: the restored run only
        // drains, and still reports the swap its image records.
        let last = files.last().unwrap().to_str().unwrap();
        let text = run("sim", &["--restore", last]).unwrap();
        assert!(text.contains("swap       : "), "{text}");
        assert!(text.contains("samples out: 2001"), "{text}");

        // --health on the healthy seamless scenario re-judges the
        // monitors and reports no divergence.
        let text = run("sim", &["--restore", first, "--health", "yes"]).unwrap();
        assert!(text.contains("[PASS] swap_reconfig_ps"), "{text}");
        assert!(text.contains("overall: HEALTHY"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_reproduces_a_swap_failure_from_a_checkpoint() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_fail_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        // The sim itself fails at the swap, but its pre-swap checkpoints
        // were already written — exactly the divergence-point workflow.
        let err = run(
            "sim",
            &[
                "--swap",
                "seamless",
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

        let files = checkpoint_files(&dir);
        let first = files.first().expect("pre-swap checkpoints exist");
        let err = run("sim", &["--restore", first.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("swap failed"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_non_checkpoint_files() {
        let dir = std::env::temp_dir().join("vapres_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.vapresck");
        std::fs::write(&junk, b"definitely not a checkpoint").unwrap();
        let err = run("sim", &["--restore", junk.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("bad magic"), "{}", err.0);
        // A bare system image carries no drive state to resume.
        let mut lib = vapres_core::module::ModuleLibrary::new();
        vapres_modules::register_standard_modules(&mut lib, 0);
        let mut sys =
            VapresSystem::new(vapres_core::config::SystemConfig::prototype(), lib).unwrap();
        std::fs::write(&junk, sys.checkpoint()).unwrap();
        let err = run("sim", &["--restore", junk.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("1 sections, expected 2"), "{}", err.0);
        std::fs::remove_file(&junk).ok();

        let err = run("sim", &["--restore", "/nonexistent_vapres/x.vapresck"]).unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
        let err = run("sim", &["--restore"]).unwrap_err();
        assert!(err.0.contains("--restore needs a value"), "{}", err.0);
    }

    #[test]
    fn halt_checkpoints_restore_and_rebreach() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_halt_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let halt = ["--swap", "halt", "--samples", "2000"];
        let text = run(
            "sim",
            &[
                &halt[..],
                &["--checkpoint-every", "300", "--checkpoint-dir", &dir_s],
            ]
            .concat(),
        )
        .unwrap();
        let samples_out = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("samples out:"))
                .map(str::to_string)
                .expect(text)
        };
        let uninterrupted = samples_out(&text);

        // The first image was cut before the swap, with the halt phase
        // recorded in its drive state.
        let files = checkpoint_files(&dir);
        let first = files.first().expect("halt run wrote checkpoints");
        let bytes = std::fs::read(first).unwrap();
        let (_, state) = Drive::read_checkpoint(&bytes).unwrap();
        assert_eq!(state.phase, Phase::PendingHalt);

        // Restoring it re-performs the halt swap and streams the same
        // words as the uninterrupted run.
        let first = first.to_str().unwrap();
        let text = run("sim", &["--restore", first]).unwrap();
        assert!(text.contains("swap       : "), "{text}");
        assert_eq!(samples_out(&text), uninterrupted);

        // Under --health, it breaches the same monitors as the
        // uninterrupted halt run.
        let fresh = run("sim", &[&halt[..], &["--health", "yes"]].concat()).unwrap_err();
        let restored = run("sim", &["--restore", first, "--health", "yes"]).unwrap_err();
        assert!(fresh.0.contains("iom0_missed_slots"), "{}", fresh.0);
        assert_eq!(restored.0, fresh.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lines a restored run must print as the run that never
    /// stopped does: the swap, the stream summary and the verdicts.
    fn outcome(text: &str) -> Vec<&str> {
        const KEYS: [&str; 7] = [
            "swap ",
            "samples out",
            "sim time",
            "throughput",
            "max gap",
            "  [",
            "overall",
        ];
        text.lines()
            .filter(|l| KEYS.iter().any(|k| l.starts_with(k)))
            .collect()
    }

    #[test]
    fn restoring_any_checkpoint_ends_as_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_every_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let e3 = ["--swap", "seamless", "--samples", "2000", "--health", "yes"];
        let plain = run("sim", &e3).unwrap();
        assert!(plain.contains("overall: HEALTHY (6 monitors)"), "{plain}");
        let every = ["--checkpoint-every", "300", "--checkpoint-dir", &dir_s];
        let checkpointed = run("sim", &[&e3[..], &every].concat()).unwrap();
        assert_eq!(outcome(&checkpointed), outcome(&plain), "{checkpointed}");

        // Four cuts in the 1 ms pre-swap window, one right after the swap.
        let files = checkpoint_files(&dir);
        assert_eq!(files.len(), 5, "{files:?}");
        let diverged: Vec<String> = files
            .iter()
            .filter_map(|f| {
                let f = f.to_str().unwrap();
                let text = run("sim", &["--restore", f, "--health", "yes"]).unwrap();
                (outcome(&text) != outcome(&plain)).then(|| format!("{f}:\n{text}"))
            })
            .collect();
        assert!(diverged.is_empty(), "expected\n{plain}\ngot {diverged:#?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts the bytes each thread asks the allocator for, so a decoder
    /// can be held to allocating no more than its input.
    mod alloc_count {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static BYTES: Cell<usize> = const { Cell::new(0) };
        }

        struct Counting;

        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
                System.alloc(layout)
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                let _ = BYTES.try_with(|b| b.set(b.get() + new_size));
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        /// Runs `f`, a decode of `input`, and asserts it allocated no
        /// more bytes than `input` holds.
        pub fn within<R>(input: &[u8], f: impl FnOnce() -> R) -> R {
            let before = BYTES.with(Cell::get);
            let r = f();
            let allocated = BYTES.with(Cell::get) - before;
            assert!(
                allocated <= input.len(),
                "decoding {} bytes allocated {allocated}",
                input.len()
            );
            r
        }
    }

    /// Re-encodes every section of a parsed container unchanged.
    fn reencode(c: &Container<'_>) -> Vec<u8> {
        let mut w = Writer::container(c.section_count() as u32);
        for s in c.sections() {
            w.section(s.tag, |w| w.put_raw(s.body));
        }
        w.into_bytes()
    }

    /// Feeds `decode` every mutant of `bytes`: each byte in `spans` set to
    /// 0x00, 0x01, 0x7F and 0xFF, every truncation, and each section
    /// length set to `u64::MAX`. Each must fail with a typed error or
    /// re-encode to exactly its own bytes; `decode` holds its decoding
    /// step to the input length with [`alloc_count::within`]. Returns how
    /// many mutants decoded.
    fn check_mutants(
        bytes: &[u8],
        spans: &[std::ops::Range<usize>],
        decode: impl Fn(&[u8]) -> Result<Vec<u8>, PersistError>,
    ) -> usize {
        let mut mutants: Vec<Vec<u8>> = Vec::new();
        for at in spans.iter().cloned().flatten() {
            for v in [0x00, 0x01, 0x7F, 0xFF] {
                let mut m = bytes.to_vec();
                m[at] = v;
                mutants.push(m);
            }
        }
        let c = Container::parse(bytes).unwrap();
        for s in c.sections() {
            let len_at = s.body.as_ptr() as usize - bytes.as_ptr() as usize - 8;
            let mut m = bytes.to_vec();
            m[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            mutants.push(m);
        }
        let cuts = (0..bytes.len()).map(|n| &bytes[..n]);
        let mut decoded = 0;
        for m in mutants.iter().map(Vec::as_slice).chain(cuts) {
            if let Ok(again) = decode(m) {
                assert_eq!(again, m, "a decoded mutant must re-encode to its bytes");
                decoded += 1;
            }
        }
        decoded
    }

    /// The header, every section's (tag, len) entry and, when `body_of`
    /// names a tag, that section's body: the byte spans a hostile-input
    /// sweep mutates.
    fn table_spans(bytes: &[u8], body_of: Option<SectionTag>) -> Vec<std::ops::Range<usize>> {
        const HEADER: std::ops::Range<usize> = 0..16;
        let mut spans = vec![HEADER];
        for s in Container::parse(bytes).unwrap().sections() {
            let body = s.body.as_ptr() as usize - bytes.as_ptr() as usize;
            spans.push(body - 9..body);
            if Some(s.tag) == body_of {
                spans.push(body..body + s.body.len());
            }
        }
        spans
    }

    #[test]
    fn hostile_checkpoints_fail_typed_within_their_length() {
        // A CLI checkpoint cut right after the swap: a System section and
        // a Drive section carrying the swap report.
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_hostile_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        run(
            "sim",
            &[
                "--swap",
                "seamless",
                "--samples",
                "2000",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                &dir_s,
            ],
        )
        .unwrap();
        let cli = std::fs::read(checkpoint_files(&dir).last().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let (_, state) = Drive::read_checkpoint(&cli).unwrap();
        assert_eq!(state.phase, Phase::SwapDone);
        assert!(state.report.is_some());
        let decoded = check_mutants(&cli, &table_spans(&cli, Some(SectionTag::Drive)), |m| {
            let (image, state) = alloc_count::within(m, || Drive::read_checkpoint(m))?;
            let mut w = Writer::container(2);
            w.section(SectionTag::System, |w| w.put_raw(image));
            w.section(SectionTag::Drive, |w| state.persist(w));
            Ok(w.into_bytes())
        });
        // Plenty of drive fields take any value (times, ids, counts).
        assert!(decoded > 100, "only {decoded} mutants decoded");

        // A two-RSB fleet image: two System sections.
        let fleet = vapres_core::FleetSystem::new(
            vec![vapres_core::config::SystemConfig::prototype(); 2],
            |lib| vapres_modules::register_standard_modules(lib, 0),
        )
        .unwrap()
        .checkpoint();
        check_mutants(&fleet, &table_spans(&fleet, None), |m| {
            Ok(reencode(&alloc_count::within(m, || Container::parse(m))?))
        });
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
                "seamless",
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
                "seamless",
                "--samples",
                "2000",
                "--sample-every",
                "100",
                "--timeseries",
                jsonl.to_str().unwrap(),
                "--trace-json",
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
        // The series' counters ride the one timeline, on the sim pid.
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.contains("\"traceEvents\":["), "{tr}");
        assert!(tr.contains("\"ph\":\"C\",\"pid\":1,"), "{tr}");
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
            &["--timeseries-csv", "/tmp/x.csv"][..],
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
    fn microsecond_flags_reject_overflow_per_subcommand() {
        // About 2^64 / 1000 us: unchecked, the picosecond product wrapped
        // to a 384 ns cadence and the run went on.
        let huge = "18446744073709552";
        for (sub, tokens) in [
            (
                "sim",
                &["--sample-every", huge, "--timeseries", "/tmp/x.jsonl"][..],
            ),
            (
                "sim",
                &["--checkpoint-every", huge, "--checkpoint-dir", "/tmp/x"][..],
            ),
            ("sweep", &["--sample-every", huge, "--samples", "300"][..]),
            ("fleet", &["--sample-every", huge, "--rsbs", "2"][..]),
        ] {
            let err = run(sub, tokens).unwrap_err();
            assert!(
                err.0
                    .contains(&format!("{}: {huge} us overflows", tokens[0])),
                "{sub}: {}",
                err.0
            );
        }
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
                "seamless",
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
    fn checkpoints_stamp_flight_events_and_drive_ordinals() {
        let dir = std::env::temp_dir().join("vapres_cli_ckpt_flight_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.jsonl");
        let ckpts = dir.join("ckpts");
        run(
            "sim",
            &[
                "--swap",
                "seamless",
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

        // Each file's drive state carries its sequence number, and the image
        // itself holds the ring up to (and including) its own cut — the
        // cut is the newest entry, so eviction can't have dropped it.
        // A restored run then stamps its events on top of it.
        let files = checkpoint_files(&ckpts);
        assert!(files.len() >= 2, "expected several checkpoints: {files:?}");
        for (i, path) in files.iter().enumerate() {
            let bytes = std::fs::read(path).unwrap();
            let mut lib = vapres_core::module::ModuleLibrary::new();
            vapres_modules::register_standard_modules(&mut lib, 0);
            let (mut sys, state) =
                Drive::resume(vapres_core::config::SystemConfig::prototype(), lib, &bytes).unwrap();
            assert_eq!(state.ordinal, i as u64, "{path:?}");
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
    fn sim_health_jsonl_is_machine_readable() {
        let text = run("sim", &["--swap", "seamless", "--health", "jsonl"]).unwrap();
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
            "sim",
            &["--swap", "halt", "--samples", "2000", "--health", "jsonl"],
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
            "seamless",
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
