//! `perfbench --workload ingest|mixed|replicated|all --seed N
//! --seconds S --trace 0|1`
//!
//! Runs a workload (or all three in turn) and prints its report; the
//! last line of standard output is the JSON result. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload
//! traced, replays its frames through each layer, checks the
//! client-side counter history for IVL, and reports the per-layer
//! metrics, the attribution and the tracing overhead. Exits 1 if any
//! answer or count was wrong, 2 on a usage error.

use ivl_spec::history::ObjectId;
use ivl_spec::io::write_history;
use ivl_spec::ivl::check_ivl_monotone;
use ivl_spec::spec::{MonotoneSpec, ObjectSpec};
use perfbench::gen::ROSTER;
use perfbench::pin;
use perfbench::replay::replay;
use perfbench::report::{self, Metric};
use perfbench::trace;
use perfbench::workload::{self, run, CounterHistory, Outcome, Params, Workload};
use std::path::Path;
use std::process::ExitCode;

/// The client-side history's spec: a counter whose updates add their
/// weight and whose reads return the running total (the query
/// argument is ignored). `ivl_spec`'s `BatchedCounterSpec` takes a `()`
/// query, which the text history format cannot write.
#[derive(Clone, Copy, Debug)]
struct Counter;

impl ObjectSpec for Counter {
    type Update = u64;
    type Query = u64;
    type Value = u64;
    type State = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply_update(&self, state: &mut u64, update: &u64) {
        *state += *update;
    }

    fn eval_query(&self, state: &u64, _query: &u64) -> u64 {
        *state
    }
}

impl MonotoneSpec for Counter {}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set-up helper mode (see `workload::setup_times`).
    helper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut helper) = (None, 1, 10, false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![value.parse()?]
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            workload::HELPER_FLAG => helper = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        helper,
    })
}

/// Where traced runs write their spans and client-side history.
fn out_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Replays each object's projection of the history through the
/// monotone IVL checker; returns the failing object ids.
fn ivl_failures(h: &CounterHistory) -> Vec<u32> {
    (0..ROSTER.len() as u32)
        .filter(|&id| !check_ivl_monotone(&Counter, &h.project(ObjectId(id))).is_ivl())
        .collect()
}

fn print_outcome(w: Workload, label: &str, o: &Outcome) -> Vec<Metric> {
    let e2e = report::end_to_end(w, o);
    print!(
        "{}",
        report::render(&format!("{w} end-to-end ({label})"), &e2e)
    );
    print!("{}", report::render_subs(&o.subs));
    let medians: Vec<String> = o
        .setup_medians
        .iter()
        .map(|s| format!("{:.1}", s * 1e6))
        .collect();
    println!("  set-up median per process, us: {}", medians.join(" "));
    println!("  {}", report::render_checks(&o.checks));
    for e in &o.errors {
        println!("  ERROR: {e}");
    }
    e2e
}

/// The traced run's window is capped: its spans and history are held
/// in memory and written out, and its numbers are per-layer shares,
/// which a few seconds of traffic already pin down.
const TRACED_SECONDS: f64 = 4.0;

/// Runs one workload (traced if asked), prints its report and JSON
/// line; returns whether every check passed, or `Err` when the run
/// could not be carried out.
fn run_workload(w: Workload, args: &Args, cpus: &[usize]) -> Result<bool, String> {
    let p = Params::new(w, args.seed, args.seconds as f64);
    if !args.trace {
        let o = run(&p, false, cpus)?;
        let e2e = print_outcome(w, "untraced", &o);
        let correct = o.errors.is_empty();
        println!(
            "{}",
            report::json_line(correct, o.attempted, o.failed, &e2e)
        );
        return Ok(correct);
    }
    let p = Params {
        seconds: p.seconds.min(TRACED_SECONDS),
        ..p
    };
    let traced = run(&p, true, cpus)?;
    print_outcome(w, "traced", &traced);
    let mut correct = traced.errors.is_empty();
    let costs = replay(&traced.sent_frames, traced.frames_per_read);
    let layers = report::per_layer(&traced, &costs);
    print!(
        "{}",
        report::render(&format!("{w} per-layer (traced)"), &layers)
    );
    if traced.server_proc.is_none() {
        println!("  /proc counters: absent on this host");
    }
    if let Some(h) = &traced.history {
        let bad = ivl_failures(h);
        println!(
            "  client-side counter history: {} events, IVL per object: {}",
            h.events().len(),
            bad.is_empty()
        );
        if !bad.is_empty() {
            println!("  ERROR: history not IVL for objects {bad:?}");
            correct = false;
        }
        let stem = format!("{w}-seed{}", p.seed);
        let dir = out_dir();
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.hist")), write_history(h)))
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.spans.tsv")),
                    trace::render(&traced.spans),
                )
            });
        match written {
            Ok(()) => println!("  wrote {}/{stem}.{{hist,spans.tsv}}", dir.display()),
            Err(e) => println!("  could not write trace files: {e}"),
        }
    }
    println!(
        "{}",
        report::json_line(correct, traced.attempted, traced.failed, &layers)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload ingest|mixed|replicated|all \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.helper {
        for &w in &args.workloads {
            match workload::setup_times(&Params::new(w, args.seed, 0.0)) {
                Ok(times) => {
                    let times: Vec<String> = times.iter().map(f64::to_string).collect();
                    println!("setup-times {}", times.join(" "));
                }
                Err(e) => {
                    eprintln!("perfbench: {w}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(cpus) = pin::allowed_cpus() else {
        eprintln!("perfbench: cannot read the allowed CPU list from /proc");
        return ExitCode::FAILURE;
    };
    let mut all_correct = true;
    for &w in &args.workloads {
        println!(
            "perfbench {w} seed={} seconds={} trace={} (each sub-window pinned to one of cpus {cpus:?})",
            args.seed,
            args.seconds,
            u8::from(args.trace),
        );
        match run_workload(w, &args, &cpus) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
