//! Host-time benchmark of the DeNovoSync reproduction: the simulator
//! (VM-driven and trace replay), the differential fuzzer, the model checker
//! and the job service, driven from one process with one worker thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper16|fuzz|check> --seed <n> --seconds <s> --trace <0|1>
//! cargo run ... -- --self-test        # seed self-test and pin check
//! cargo run ... -- --benchmark-json   # print BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` it holds every end-to-end metric, with `--trace 1` every
//! per-layer metric. See `perfbench/README.md` for what each one means.

mod check;
mod fuzz;
mod ledger;
mod metrics;
mod paper16;
mod report;
mod serve;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose digests are pinned in `pins.txt`.
const DEFAULT_SEED: u64 = 1;

/// Seconds a workload's probe is measured for in another workload's
/// untraced run: enough passes for steady best times.
fn probe_seconds(w: Workload) -> f64 {
    match w {
        Workload::Paper16 | Workload::Check => 3.0,
        Workload::Fuzz => 1.5,
    }
}

/// Set-up repetitions per run: at least [`SETUP_REPS`], and more while
/// they have taken under [`SETUP_SECONDS`]; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// `<workload> cells=<hex> digest=<hex>` per line: the cell-list hash (any
/// seed) and the results digest at [`DEFAULT_SEED`].
const PINS: &str = include_str!("../pins.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Paper16,
    Fuzz,
    Check,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Paper16, Workload::Fuzz, Workload::Check];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper16",
            Workload::Fuzz => "fuzz",
            Workload::Check => "check",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Every path's inputs. The run's own workload is built at full size; the
/// others at probe size, so that every run reports every end-to-end metric.
struct Inputs {
    paper16: paper16::Setup,
    fuzz: fuzz::Setup,
    check: check::Setup,
}

impl Inputs {
    fn build(own: Workload, seed: u64) -> Inputs {
        let full = |w| own == w;
        let grid = if full(Workload::Paper16) {
            paper16::Grid::full()
        } else {
            paper16::Grid::probe()
        };
        Inputs {
            paper16: paper16::setup(&grid, seed),
            fuzz: fuzz::setup(
                if full(Workload::Fuzz) {
                    fuzz::FULL_CASES
                } else {
                    fuzz::PROBE_CASES
                },
                seed,
            ),
            check: check::setup(if full(Workload::Check) {
                &check::FULL
            } else {
                &check::PROBE
            }),
        }
    }

    fn cells_hash(&self, w: Workload) -> u64 {
        match w {
            Workload::Paper16 => self.paper16.cells_hash(),
            Workload::Fuzz => self.fuzz.cells_hash(),
            Workload::Check => self.check.cells_hash(),
        }
    }

    /// The untraced measurement of `w`.
    fn untraced(&self, w: Workload) -> Box<dyn report::Measure + '_> {
        match w {
            Workload::Paper16 => Box::new(paper16::Untraced::new(&self.paper16)),
            Workload::Fuzz => Box::new(fuzz::Untraced::new(&self.fuzz)),
            Workload::Check => Box::new(check::Untraced::new(&self.check)),
        }
    }
}

/// The pinned `(cells, digest)` of a workload, if any.
fn pin(w: Workload) -> Option<(u64, u64)> {
    PINS.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        if it.next()? != w.name() {
            return None;
        }
        let hex = |field: Option<&str>, key: &str| {
            u64::from_str_radix(field?.strip_prefix(key)?, 16).ok()
        };
        Some((hex(it.next(), "cells=")?, hex(it.next(), "digest=")?))
    })
}

/// Compares the run's cell-list hash (always) and its digest (when given,
/// at the pinned seed) against `pins.txt`; a mismatch makes the run
/// incorrect.
fn check_pins(w: Workload, seed: u64, cells: u64, digest: Option<u64>, rep: &mut Report) {
    match pin(w) {
        None => rep.problem(format!("no pin for {} in pins.txt", w.name())),
        Some((want_cells, want_digest)) => {
            rep.expect_eq(
                &format!("{} cell-list hash vs pin", w.name()),
                cells,
                want_cells,
            );
            if let (Some(digest), DEFAULT_SEED) = (digest, seed) {
                rep.expect_eq(
                    &format!("{} results digest vs pin", w.name()),
                    digest,
                    want_digest,
                );
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The scratch directory for this process's service directories.
fn work_dir(w: Workload) -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("{}-{}", w.name(), std::process::id()))
}

/// An untraced run: set-up repeated, then the own workload for the budget
/// interleaved with every other workload's probe for its [`probe_seconds`].
fn run_untraced(a: &Args, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::build(a.workload, a.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    rep.set("setup_s", ledger::median(&setup_s));
    let mut measures: Vec<_> = Workload::ALL
        .iter()
        .map(|&w| {
            let target = if w == a.workload {
                a.seconds
            } else {
                probe_seconds(w)
            };
            (inputs.untraced(w), target)
        })
        .collect();
    report::interleave(&mut measures);
    for (w, (m, _)) in Workload::ALL.iter().zip(&measures) {
        let digest = m.finish(rep);
        if *w == a.workload {
            check_pins(*w, a.seed, inputs.cells_hash(*w), Some(digest), rep);
        }
    }
    rep.set("peak_rss_bytes", ledger::peak_rss_bytes() as f64);
}

/// A traced run: the own workload only, untraced passes then traced ones.
fn run_traced(a: &Args, work: &Path, rep: &mut Report) {
    let inputs = Inputs::build(a.workload, a.seed);
    check_pins(a.workload, a.seed, inputs.cells_hash(a.workload), None, rep);
    let (untraced, traced) = match a.workload {
        Workload::Paper16 => paper16::trace(&inputs.paper16, a.seconds, rep),
        Workload::Fuzz => {
            // The job service runs fuzz cells, so its layer is traced here.
            let (u, t) = fuzz::trace(&inputs.fuzz, a.seconds, rep);
            let service = serve::setup(a.seed, &work.join("serve"));
            let (su, st) = serve::trace(&service, serve::TRACE_SECONDS, rep);
            (u + su, t + st)
        }
        Workload::Check => check::trace(&inputs.check, a.seconds, rep),
    };
    rep.set("tracing.overhead", traced / untraced - 1.0);
    let spans = ledger::snapshot();
    let pass = spans.get("pass").copied().unwrap_or_default();
    let attributed: u64 = spans
        .iter()
        .filter(|(name, _)| **name != "pass")
        .map(|(_, acc)| acc.self_ns)
        .sum();
    rep.set(
        "tracing.self_time_coverage",
        attributed as f64 / pass.total_ns.max(1) as f64,
    );
}

/// Renders the result line with exactly the `wanted` metrics.
fn result_line(rep: &mut Report, wanted: &[(String, &str)]) -> String {
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = rep.metrics.get(name).copied();
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                rep.problem(format!("metric {name} is {v}"));
                0.0
            }
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed,
        fields.join(", ")
    )
}

/// Runs one untraced pass of every workload (and one job-service pass)
/// twice at the pinned seed and once at the next seed: the first two must
/// agree exactly, the third must differ for every seeded workload (`check`
/// is exhaustive and takes no seed). Prints the pin lines and compares them
/// with `pins.txt`.
fn self_test() -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let mut rep = Report::default();
        let work = work_dir(w);
        // One untraced pass: the cell-list hash, the results digest and the
        // deterministic (simulated) metrics, which must all repeat exactly.
        let run = |seed: u64, rep: &mut Report| {
            let inputs = Inputs::build(w, seed);
            let mut m = inputs.untraced(w);
            while !m.step().1 {}
            let digest = m.finish(rep);
            let simulated: Vec<(String, f64)> = rep
                .metrics
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("sim_cycles.") || name.starts_with("noc_flits.")
                })
                .map(|(name, v)| (name.clone(), *v))
                .collect();
            (inputs.cells_hash(w), (digest, simulated))
        };
        let (cells, a) = run(DEFAULT_SEED, &mut rep);
        let (_, b) = run(DEFAULT_SEED, &mut rep);
        let (_, c) = run(DEFAULT_SEED + 1, &mut rep);
        let seeded = w != Workload::Check;
        let same = a == b;
        let moved = (a != c) == seeded;
        println!(
            "{} same-seed-identical={same} other-seed-{}={moved} failed-ops={}",
            w.name(),
            if seeded { "differs" } else { "identical" },
            rep.failed
        );
        let line = format!("{} cells={cells:016x} digest={:016x}", w.name(), a.0);
        let pinned = PINS.lines().any(|l| l.trim() == line);
        println!("{line}  pinned={pinned}");
        ok &= same && moved && pinned && rep.correct();
        if w == Workload::Fuzz {
            // The job service, traced on `fuzz`: its digest must repeat and
            // move with the seed too.
            let run = |seed: u64, rep: &mut Report| {
                serve::digest(&serve::setup(seed, &work.join("serve")), rep)
            };
            let (a, b, c) = (
                run(DEFAULT_SEED, &mut rep),
                run(DEFAULT_SEED, &mut rep),
                run(DEFAULT_SEED + 1, &mut rep),
            );
            println!(
                "serve same-seed-identical={} other-seed-differs={} failed-ops={}",
                a == b,
                a != c,
                rep.failed
            );
            ok &= a == b && a != c && rep.correct();
        }
        let _ = std::fs::remove_dir_all(&work);
    }
    let _ = std::fs::remove_dir(".perfbench-work");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--self-test") => return self_test(),
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir(a.workload);
    let mut rep = Report::default();
    let wanted: Vec<(String, &str)> = if a.trace {
        run_traced(&a, &work, &mut rep);
        metrics::per_layer()
    } else {
        run_untraced(&a, &mut rep);
        metrics::end_to_end()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    if !a.trace {
        for (name, _) in &wanted {
            if !rep.metrics.contains_key(name) {
                rep.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    println!("{}", result_line(&mut rep, &wanted));
    ExitCode::SUCCESS
}
