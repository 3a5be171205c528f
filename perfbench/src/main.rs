//! perfbench: the end-to-end and per-layer benchmark of the
//! block-delayed sequence stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-fold|bulk-emit|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; every output is checked. The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones, which a traced run measures by timing each
//! layer's public calls from this crate and by reading the counters
//! the layers expose. A traced run also writes its spans as Chrome
//! trace-event JSON under `perfbench/out/`. The exit status is non-zero
//! if any output was wrong, or any operation panicked, errored or was
//! rejected. See `perfbench/README.md` for the metric definitions.

mod bulk;
mod ledger;
mod loadgen;
mod phase;
mod report;
mod rng;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

#[global_allocator]
static ALLOC: bds_metrics::CountingAlloc = bds_metrics::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <bulk-fold|bulk-emit|served> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list-metrics";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Library knobs that change what is measured; the benchmark refuses to
/// run while any `BDS_*` variable is set.
const KNOB_PREFIX: &str = "BDS_";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    BulkFold,
    BulkEmit,
    Served,
}

struct Opts {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let workload = match name.as_str() {
        "bulk-fold" => Workload::BulkFold,
        "bulk-emit" => Workload::BulkEmit,
        "served" => Workload::Served,
        other => return Err(format!("unknown workload {other}")),
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Opts {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Run `make` `SETUP_REPEATS` times, dropping each result before the
/// next, and report the median time as `setup_s`.
fn set_up<T>(report: &mut Report, mut make: impl FnMut(&mut Report) -> T) -> T {
    let mut times = Vec::new();
    let mut made = None;
    for _ in 0..SETUP_REPEATS {
        drop(made.take());
        let start = Instant::now();
        made = Some(make(report));
        times.push(start.elapsed().as_secs_f64());
    }
    let s = stats::median(&times);
    report.e2e("setup_s", s);
    report.line(format!(
        "setup_s = {s:.4} s (median of {SETUP_REPEATS} set-ups: {times:.3?})"
    ));
    made.expect("at least one set-up")
}

/// The processor's brand string, from CPUID.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: CPUID exists on every x86_64 processor, and leaves
        // above the reported maximum are never queried.
        #[allow(unused_unsafe)]
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
                let mut bytes = Vec::with_capacity(48);
                for leaf in 0x8000_0002..=0x8000_0004u32 {
                    let r = __cpuid(leaf);
                    for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                        bytes.extend_from_slice(&reg.to_le_bytes());
                    }
                }
                Some(
                    String::from_utf8_lossy(&bytes)
                        .trim_matches('\0')
                        .trim()
                        .to_string(),
                )
            } else {
                None
            }
        };
        if let Some(brand) = brand {
            return brand;
        }
    }
    "unknown".into()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        println!("{}", report::benchmark_json_metrics());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with(KNOB_PREFIX)) {
        eprintln!(
            "perfbench: refusing to run while {k} is set; unset every {KNOB_PREFIX}* variable"
        );
        return ExitCode::from(2);
    }

    let mut report = Report::new();
    let mut tracer = opts.trace.then(Tracer::new);
    match opts.workload {
        Workload::BulkFold | Workload::BulkEmit => {
            let pipelines = if opts.workload == Workload::BulkFold {
                &bulk::FOLD
            } else {
                &bulk::EMIT
            };
            let b = set_up(&mut report, |r| bulk::setup(pipelines, opts.seed, r));
            bulk::measure(&b, opts.seconds, &mut report, tracer.as_mut());
        }
        Workload::Served => {
            let mut s = set_up(&mut report, |r| served::Served::setup(opts.seed, r));
            s.measure(opts.seconds, &mut report, tracer.as_mut());
        }
    }
    if let Some(tracer) = tracer.as_mut() {
        ledger::run(
            opts.seed,
            opts.workload != Workload::Served,
            &mut report,
            tracer,
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let groups = bds_pool::Pool::new(1).num_groups();
    let cal = bds_cost::calibration();
    let host = [
        ("workload", opts.name.clone()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        (
            "simd_detected",
            bds_seq::simd::detected_level().name().to_string(),
        ),
        (
            "simd_active",
            bds_seq::simd::active_level().name().to_string(),
        ),
        ("ns_per_work", cal.ns_per_work.to_string()),
        ("block_overhead_ns", cal.block_overhead_ns.to_string()),
        ("placement_groups", groups.to_string()),
    ];
    for (k, v) in &host {
        println!("host {k} = {v}");
    }
    println!(
        "unmeasured on this host (not inferred): speedup beyond {} workers; cross-group steals with {groups} placement group(s)",
        nproc.min(bulk::WORKERS)
    );
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "failed_share = {} ({} failed of {} attempted)",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    if let Some(tracer) = &tracer {
        println!("traced end-to-end (tracing overhead = these minus an untraced run):");
        for m in &report.e2e {
            println!("  {} = {} {}", m.name, m.value, m.unit);
        }
        let decls = report::per_layer();
        println!("per-layer metrics (value unit -- end-to-end metric it should move):");
        for m in &report.layer {
            let moves = decls
                .iter()
                .find(|d| d.name == m.name)
                .map_or("", |d| d.moves);
            println!("  {} = {} {} -- {moves}", m.name, m.value, m.unit);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.json", opts.name, opts.seed);
        let json = trace::chrome_json(&tracer.spans, MAX_EXPORT_SPANS, &host);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!(
                "trace: {} spans written to {path}",
                tracer.spans.len().min(MAX_EXPORT_SPANS)
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for m in &report.e2e {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", report.result_line(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Spans written to the trace file at most.
const MAX_EXPORT_SPANS: usize = 400_000;
