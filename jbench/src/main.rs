//! `jbench`: the steady benchmark of the Janitizer reproduction.
//!
//! ```text
//! jbench --workload <spec-hybrid|juliet-verdict|explain-profile> --seed N --seconds S --trace 0|1
//! ```
//!
//! One client, one thread, closed loop: each operation is issued after
//! the previous one completes. Every run attempts whole rounds of
//! operations, so failures are the same share of attempts in every run.
//! The last line of stdout is the JSON result. See README.md.

mod juliet;
mod layers;
mod ledger;
mod oracle;
mod spec;
mod sys;
mod trace;

use ledger::{geomean, median, percentile, tail_pct, Ledger};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups an untraced run times before its loop and after each round;
/// `setup_s` is their median. Spread over the run, they see the machine
/// at the same speeds as the operations do.
const SETUPS_BEFORE: usize = 3;
const SETUPS_PER_ROUND: usize = 3;

/// Where traced runs write their spans and scratch rule stores.
const OUT_DIR: &str = "jbench/out";

/// The outcome of one operation.
#[derive(Debug, Default)]
pub struct OpResult {
    /// Guest instructions the operation executed.
    pub insns: u64,
    /// The program returned an error.
    pub failed: Option<String>,
    /// An oracle rejected the program's output.
    pub wrong: Option<String>,
    /// Modeled slowdowns of the operation's runs on benign inputs.
    pub benign_slowdowns: Vec<f64>,
}

impl OpResult {
    /// A completed operation.
    pub fn ok(insns: u64) -> OpResult {
        OpResult {
            insns,
            ..OpResult::default()
        }
    }

    /// An operation the program failed.
    pub fn failed(e: String) -> OpResult {
        OpResult {
            failed: Some(e),
            ..OpResult::default()
        }
    }
}

/// A benchmark workload: rounds of operations over state built at set-up.
pub trait Workload {
    /// Called once before the timed loop.
    fn start(&mut self) {}
    /// Draws round `r`; returns its number of operations.
    fn round(&mut self, r: u64) -> usize;
    /// Rounds every run completes at least.
    fn min_rounds(&self) -> u64;
    /// Untimed preparation of operation `i` (oracle references).
    fn prepare(&mut self, _i: usize) -> Result<(), String> {
        Ok(())
    }
    /// Runs operation `i` of the current round.
    fn op(&mut self, tr: &mut Tracer, i: usize) -> OpResult;
    /// Called once after the last operation.
    fn finish(&mut self) {}
    /// What the traced run recorded.
    fn ledger(&self) -> &Ledger;
    /// What a row of the per-cell table is keyed by.
    fn row_label(&self) -> &'static str;
}

const WORKLOADS: [&str; 3] = ["spec-hybrid", "juliet-verdict", "explain-profile"];

fn setup(name: &str, tr: &mut Tracer, seed: u64, tag: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "spec-hybrid" => Box::new(spec::SpecHybrid::setup(tr, seed)),
        "explain-profile" => Box::new(spec::ExplainProfile::setup(tr, seed)),
        "juliet-verdict" => {
            let dir = Path::new(OUT_DIR).join(format!("store-{}-{tag}", std::process::id()));
            Box::new(juliet::JulietVerdict::setup(tr, seed, dir)?)
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// What the timed loop measured.
#[derive(Default)]
struct Loop {
    ops: usize,
    failed: usize,
    wrong: usize,
    /// Host nanoseconds of all operations.
    busy_ns: f64,
    /// Guest instructions of all operations.
    insns: u64,
    /// Host nanoseconds of each operation.
    op_ns: Vec<f64>,
    /// Modeled slowdowns of the operations of round 0, which holds the
    /// same work whatever the seed.
    benign: Vec<f64>,
}

fn record(l: &mut Loop, res: &OpResult) {
    l.ops += 1;
    if let Some(e) = &res.failed {
        eprintln!("jbench: operation failed: {e}");
        l.failed += 1;
    } else if let Some(e) = &res.wrong {
        eprintln!("jbench: wrong output: {e}");
        l.failed += 1;
        l.wrong += 1;
    }
}

/// Runs operation `i` of round `r` as a root span `op` with id `op_id`.
fn timed_op(w: &mut dyn Workload, tr: &mut Tracer, l: &mut Loop, op_id: u64, r: u64, i: usize) {
    if let Err(e) = w.prepare(i) {
        record(l, &OpResult::failed(e));
        return;
    }
    tr.set_op(op_id);
    let root = tr.enter("op", false);
    let t0 = Instant::now();
    let res = w.op(tr, i);
    let ns = t0.elapsed().as_nanos() as f64;
    tr.exit(root, 0);
    record(l, &res);
    l.busy_ns += ns;
    l.insns += res.insns;
    l.op_ns.push(ns);
    if r == 0 {
        l.benign.extend(res.benign_slowdowns);
    }
}

/// Whole rounds until `seconds` have passed and the minimum is met;
/// `between` runs after each round, outside every operation.
fn timed_loop(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    seconds: f64,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Loop, String> {
    let mut l = Loop::default();
    let start = Instant::now();
    let mut r = 0u64;
    while start.elapsed().as_secs_f64() < seconds || r < w.min_rounds() {
        let n = w.round(r);
        let (t0, u0) = (Instant::now(), sys::usage());
        for i in 0..n {
            let op_id = l.ops as u64 + 1;
            timed_op(w, tr, &mut l, op_id, r, i);
        }
        let u1 = sys::usage();
        eprintln!(
            "round {r}: {n} ops, wall {:.3} s, user {:.3} s, sys {:.3} s",
            t0.elapsed().as_secs_f64(),
            (u1.user_us - u0.user_us) as f64 / 1e6,
            (u1.sys_us - u0.sys_us) as f64 / 1e6
        );
        between()?;
        r += 1;
    }
    Ok(l)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn print_result(l: &Loop, metrics: &[(&str, &str, f64)]) {
    for (name, unit, v) in metrics {
        println!("{name:<32} {v:>14.6} {unit}");
    }
    println!("attempted {}  failed {}", l.ops, l.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| json_metric(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.wrong == 0,
        l.ops,
        l.failed,
        body.join(", ")
    );
}

fn untraced(args: &Args) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let w = setup(
            &args.workload,
            &mut Tracer::new(false),
            args.seed,
            setups.len(),
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(w)
    };
    let mut w = timed_setup()?;
    for _ in 1..SETUPS_BEFORE {
        drop(timed_setup()?);
    }
    w.start();
    let l = timed_loop(w.as_mut(), &mut Tracer::new(false), args.seconds, || {
        for _ in 0..SETUPS_PER_ROUND {
            drop(timed_setup()?);
        }
        Ok(())
    })?;
    w.finish();
    eprintln!(
        "{} set-ups, median {:.3} ms",
        setups.len(),
        median(&setups) * 1e3
    );
    let busy_s = l.busy_ns / 1e9;
    let metrics = [
        ("setup_s", "s", median(&setups)),
        ("ops_per_s", "1/s", l.ops as f64 / busy_s),
        ("guest_mips", "Minsn/s", l.insns as f64 / busy_s / 1e6),
        ("peak_rss_mb", "MB", sys::usage().maxrss_kb as f64 / 1024.0),
        ("modeled_slowdown_x", "x", geomean(&l.benign).unwrap_or(0.0)),
        ("verdict_p50_ms", "ms", median(&l.op_ns) / 1e6),
        (
            "verdict_tail_ms",
            "ms",
            percentile(&l.op_ns, tail_pct(l.op_ns.len())) / 1e6,
        ),
    ];
    print_result(&l, &metrics);
    Ok(())
}

fn traced(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let mut w = setup(&args.workload, &mut tr, args.seed, 0)?;
    w.start();
    let l = timed_loop(w.as_mut(), &mut tr, args.seconds, || Ok(()))?;
    w.finish();

    let spans = tr.spans();
    let diff_ns: u64 = spans
        .iter()
        .filter(|s| s.op != trace::SETUP_OP && s.differential)
        .filter(|s| s.parent.is_some_and(|p| !spans[p].differential))
        .map(|s| s.ns())
        .sum();
    let busy_s = (l.busy_ns - diff_ns as f64) / 1e9;
    let mut metrics = layers::layer_metrics(&layers::Layers::new(spans, w.ledger(), l.ops as u64));
    let coverage = trace::min_coverage(spans, "op").unwrap_or(0.0);
    metrics.push(("trace.ops_per_s", "1/s", l.ops as f64 / busy_s));
    metrics.push(("trace.span_coverage_min", "ratio", coverage));

    let table = layers::self_time_table(spans);
    let rows = rows_table(w.ledger(), w.row_label());
    eprintln!("{table}\n{rows}");
    eprintln!(
        "span coverage of each operation: min {:.2}% (check: >= 95%)",
        coverage * 100.0
    );
    let path = write_trace(args, spans, &table, &rows, coverage)?;
    eprintln!("spans written to {}", path.display());
    let mut l = l;
    if coverage < 0.95 {
        eprintln!(
            "jbench: spans cover only {:.2}% of an operation",
            coverage * 100.0
        );
        l.wrong += 1;
    }
    print_result(&l, &metrics);
    Ok(())
}

/// One row per program (or category) and configuration.
fn rows_table(l: &Ledger, label: &str) -> String {
    let mut out = format!(
        "{label:<20} {:<14} {:>6} {:>12} {:>14} {:>10}\n",
        "config", "runs", "host_ms", "guest_insns", "modeled_x"
    );
    for ((name, cfg), r) in &l.rows {
        let n = r.runs.max(1) as f64;
        out.push_str(&format!(
            "{name:<20} {cfg:<14} {:>6} {:>12.3} {:>14.0} {:>10.4}\n",
            r.runs,
            r.ns as f64 / n / 1e6,
            r.insns as f64 / n,
            r.slowdown_sum / n
        ));
    }
    out
}

fn write_trace(
    args: &Args,
    spans: &[trace::Span],
    table: &str,
    rows: &str,
    coverage: f64,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let esc = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let doc = format!(
        "{{\"schema\": \"jbench.trace/v1\", \"workload\": \"{}\", \"seed\": {}, \"span_coverage_min\": {coverage},\n\
         \"self_time\": \"{}\",\n\"rows\": \"{}\",\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        esc(table),
        esc(rows),
        trace::spans_json(spans)
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jbench: {e}");
            std::process::exit(2);
        }
    };
    let r = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    if let Err(e) = r {
        eprintln!("jbench: {e}");
        std::process::exit(1);
    }
}
