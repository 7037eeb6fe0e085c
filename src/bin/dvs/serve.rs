//! `dvs serve` — the simulation job service.
//!
//! `submit` takes exactly one job: `--grid smoke`, `--fuzz <start>
//! <count>`, `--litmus <name|all>` or `--deep-check <name|all>`.
//! `--cell-delay-ms` (debug) slows each cell so crash tests can land a
//! `kill -9` mid-job; `--no-sync` skips the per-append fsync — faster,
//! crash-unsafe. Each finished job prints one machine-parseable line:
//!
//! ```text
//! job=3 cells=18 hits=18 computed=0 failed=0 retries=0 digest=84d1c8a3b4e5f607
//! ```
//!
//! A terminally failed cell, or a quarantined entry in `verify-store`,
//! exits 1.

use crate::args::{number, Args};
use crate::{clean_if, Group, Outcome};
use dvs_campaign::kernel_grid;
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};
use dvs_serve::{
    DeepCheckMode, JobReport, JobSpec, JournalEvent, JournalTail, RetryPolicy, Serve, ServeConfig,
};
use dvs_vm::litmus::Litmus;
use std::process::ExitCode;
use std::time::Duration;

pub const GROUP: Group = Group {
    name: "serve",
    commands: &[
        (
            "submit [--grid smoke] [--fuzz START COUNT] [--small] [--litmus NAME|all] \
             [--deep-check NAME|all] [--check-mode exact|bits:N|swarm:N] [--check-depth N] \
             [--check-states N] [--no-run]",
            cmd_submit,
        ),
        ("resume", cmd_resume),
        ("status [--follow] [--poll-ms N]", cmd_status),
        ("verify-store", cmd_verify_store),
        ("gc", cmd_gc),
    ],
    common: "--dir D [--workers N] [--deadline-ms N] [--retries N] [--budget-bytes N] \
             [--cell-delay-ms N] [--no-sync]",
};

fn ms(a: &Args, flag: &str) -> Result<Option<Duration>, String> {
    Ok(a.get(flag, number)?.map(Duration::from_millis))
}

fn open(a: &Args) -> Result<Serve, String> {
    let mut cfg = ServeConfig::new(a.str("--dir").expect("the parser checked --dir"));
    if let Some(w) = a.get::<usize>("--workers", number)? {
        cfg.workers = w.max(1);
    }
    cfg.deadline = ms(a, "--deadline-ms")?;
    if let Some(r) = a.get::<u32>("--retries", number)? {
        cfg.retry = RetryPolicy {
            max_attempts: r.max(1),
            ..RetryPolicy::default()
        };
    }
    cfg.store_budget = a.get("--budget-bytes", number)?;
    cfg.sync_journal = !a.has("--no-sync");
    cfg.cell_delay = ms(a, "--cell-delay-ms")?;
    Serve::open(cfg).map_err(|e| e.to_string())
}

/// The `--grid smoke` job: the six TATAS locked kernels × every protocol at
/// four cores with smoke parameters — 18 quick cells.
fn smoke_grid() -> JobSpec {
    let kernels: Vec<KernelId> = LockedStruct::ALL
        .iter()
        .map(|&s| KernelId::Locked(s, LockKind::Tatas))
        .collect();
    JobSpec::Campaign(kernel_grid(&kernels, 4, &Protocol::ALL, |p| {
        *p = KernelParams::smoke(4);
    }))
}

/// Resolves a `--litmus`/`--deep-check` selector to concrete litmus names.
fn litmus_names(which: &str) -> Result<Vec<String>, String> {
    match which {
        "all" => Ok(Litmus::all().iter().map(|l| l.name.to_owned()).collect()),
        name => {
            Litmus::by_name(name).ok_or_else(|| format!("unknown litmus {name:?}"))?;
            Ok(vec![name.to_owned()])
        }
    }
}

fn job_for(a: &Args) -> Result<JobSpec, String> {
    let kinds = ["--grid", "--fuzz", "--litmus", "--deep-check"];
    let given: Vec<&str> = kinds.into_iter().filter(|k| a.has(k)).collect();
    let [kind] = given[..] else {
        return Err("submit needs exactly one of --grid, --fuzz, --litmus, --deep-check".into());
    };
    let value = a.values(kind).expect("the filter saw the flag");
    match kind {
        "--grid" if value[0] == "smoke" => Ok(smoke_grid()),
        "--grid" => Err(format!("unknown grid {:?} (try: smoke)", value[0])),
        "--fuzz" => Ok(JobSpec::FuzzHunt {
            seed_start: number(&value[0])?,
            count: number(&value[1])?,
            small: a.has("--small"),
        }),
        "--litmus" => Ok(JobSpec::Litmus {
            names: litmus_names(&value[0])?,
            protocols: Protocol::ALL.to_vec(),
        }),
        _ => Ok(JobSpec::DeepCheck {
            names: litmus_names(&value[0])?,
            protocols: Protocol::ALL.to_vec(),
            mode: a
                .get("--check-mode", DeepCheckMode::from_token)?
                .unwrap_or(DeepCheckMode::Exact),
            depth: a.num("--check-depth", 1_000)?,
            states: a.num("--check-states", 200_000)?,
        }),
    }
}

fn print_report(r: &JobReport) {
    println!(
        "job={} cells={} hits={} computed={} failed={} retries={} digest={:016x}",
        r.id, r.cells, r.hits, r.computed, r.failed, r.retries, r.digest
    );
}

fn print_metrics(serve: &Serve) {
    for ((node, component, name), value) in serve.metrics().counters() {
        eprintln!("  {node}/{component}/{name} = {value}");
    }
}

fn cmd_submit(a: &Args) -> Outcome {
    let job = job_for(a)?;
    let mut serve = open(a)?;
    let id = serve.submit(&job).map_err(|e| e.to_string())?;
    if a.has("--no-run") {
        println!("job={id} cells={} submitted", job.cells().len());
        return Ok(ExitCode::SUCCESS);
    }
    let report = serve.run_job(id).map_err(|e| e.to_string())?;
    print_report(&report);
    print_metrics(&serve);
    Ok(clean_if(report.failed == 0))
}

fn cmd_resume(a: &Args) -> Outcome {
    let mut serve = open(a)?;
    let reports = serve.resume_all().map_err(|e| e.to_string())?;
    if reports.is_empty() {
        println!("nothing to resume");
    }
    reports.iter().for_each(print_report);
    print_metrics(&serve);
    Ok(clean_if(reports.iter().all(|r| r.failed == 0)))
}

/// One human-readable line per journal event, `key=value` like the job
/// summary lines so the output stays machine-parseable.
fn render_event(e: &JournalEvent) -> String {
    match e {
        JournalEvent::Job { id, cells, kind } => {
            format!("job={id} kind={kind} cells={cells} submitted")
        }
        JournalEvent::CellOk {
            job,
            index,
            payload_fnv,
            wall_nanos,
        } => format!(
            "job={job} cell={index} ok payload={payload_fnv:016x} wall={}ms",
            wall_nanos / 1_000_000
        ),
        JournalEvent::CellErr { job, index, class } => {
            format!("job={job} cell={index} err class={class}")
        }
        JournalEvent::Retry {
            job,
            index,
            attempt,
        } => format!("job={job} cell={index} retry attempt={attempt}"),
        JournalEvent::Done { job, digest } => format!("job={job} done digest={digest:016x}"),
    }
}

/// `status --follow`: replays the journal from the start, then tails it,
/// printing one line per durable event as it lands — live progress for a
/// job another process is running. Exits once every journaled job has
/// sealed with `done`; until a first job appears (or while one is still
/// running) it keeps polling, so Ctrl-C is the way out of an idle follow.
fn follow_status(a: &Args) -> Outcome {
    let dir = a.str("--dir").expect("the parser checked --dir");
    let mut tail = JournalTail::new(std::path::Path::new(dir).join("journal.log"));
    let poll = Duration::from_millis(a.num("--poll-ms", 200u64)?.max(1));
    let mut open_jobs = std::collections::BTreeSet::new();
    let mut saw_a_job = false;
    loop {
        for event in tail.poll().map_err(|e| e.to_string())? {
            match event {
                Ok(e) => {
                    println!("{}", render_event(&e));
                    match e {
                        JournalEvent::Job { id, .. } => {
                            saw_a_job = true;
                            open_jobs.insert(id);
                        }
                        JournalEvent::Done { job, .. } => {
                            open_jobs.remove(&job);
                        }
                        _ => {}
                    }
                }
                Err(why) => eprintln!("dvs serve status: journal: {why}"),
            }
        }
        if saw_a_job && open_jobs.is_empty() {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(poll);
    }
}

fn cmd_status(a: &Args) -> Outcome {
    if a.has("--follow") {
        return follow_status(a);
    }
    let jobs = open(a)?.status();
    if jobs.is_empty() {
        println!("no jobs");
    }
    for j in jobs {
        let state = match j.digest {
            Some(d) => format!("done digest={d:016x}"),
            None => format!("pending={}", j.pending),
        };
        let wall_ms = j.wall_nanos / 1_000_000;
        println!(
            "job={} kind={} cells={}/{} failed={} retries={} wall={wall_ms}ms {state}",
            j.id, j.kind, j.completed, j.cells, j.failed, j.retries
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify_store(a: &Args) -> Outcome {
    let report = open(a)?.verify_store();
    println!(
        "checked={} ok={} quarantined={}",
        report.checked,
        report.ok,
        report.quarantined.len()
    );
    for (name, reason) in &report.quarantined {
        eprintln!("  {name}: {reason}");
    }
    Ok(clean_if(report.quarantined.is_empty()))
}

fn cmd_gc(a: &Args) -> Outcome {
    let report = open(a)?.gc_store();
    println!(
        "removed_stale={} removed_budget={} remaining_bytes={}",
        report.removed_stale, report.removed_budget, report.remaining_bytes
    );
    Ok(ExitCode::SUCCESS)
}
