//! The job service layer, traced on the `fuzz` workload: a fresh service
//! directory and one job of cheap fuzz-hunt cells, submitted cold, then
//! submitted again warm, through `Serve` with its default durable
//! configuration (journal fsync on) and one worker.

use crate::ledger::{self, span};
use crate::report::{median_wall, passes, sweep, Report};
use dvs_serve::{
    code_fingerprint, CellSpec, JobReport, JobSpec, Journal, JournalEvent, Lookup, Serve,
    ServeConfig, Store,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cells of the job.
pub const CELLS: usize = 1000;

/// Seconds the traced `fuzz` run spends on the service layer.
pub const TRACE_SECONDS: f64 = 8.0;

/// The job and the directory passes create their service directories in.
pub struct Setup {
    job: JobSpec,
    cells: Vec<CellSpec>,
    root: PathBuf,
}

/// Creates `root` (empty) and builds a fuzz-hunt job of [`CELLS`]
/// small-pool cells starting from a seed derived from the benchmark seed.
pub fn setup(seed: u64, root: &Path) -> Setup {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create the service scratch directory");
    let job = JobSpec::FuzzHunt {
        seed_start: seed.wrapping_mul(1_000_033).wrapping_add(1 << 32),
        count: CELLS,
        small: true,
    };
    let cells = job.cells();
    Setup {
        job,
        cells,
        root: root.to_owned(),
    }
}

impl Setup {
    fn config(dir: &Path) -> ServeConfig {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::new(dir)
        };
        assert!(
            cfg.sync_journal,
            "the benchmark measures the durable default"
        );
        cfg
    }
}

/// Cold and warm job reports of one pass.
struct Pass {
    cold: JobReport,
    warm: JobReport,
}

/// Submits the job and runs it to completion.
fn submit_and_run(serve: &mut Serve, job: &JobSpec) -> std::io::Result<JobReport> {
    let id = serve
        .submit(job)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    serve.run_job(id)
}

/// One pass in a fresh directory `pass-<index>`: open, cold job, warm job.
fn pass(s: &Setup, index: usize) -> Result<Pass, String> {
    let dir = s.root.join(format!("pass-{index}"));
    let out = (|| {
        let mut serve = Serve::open(Setup::config(&dir))?;
        let cold = submit_and_run(&mut serve, &s.job)?;
        let warm = submit_and_run(&mut serve, &s.job)?;
        std::io::Result::Ok(Pass { cold, warm })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    out.map_err(|e| format!("service: {e}"))
}

/// Counts the job's cells in both submissions, failing each wrong one: a
/// failed cell, a warm cell that missed the store, or every warm cell when
/// the warm digest differs from the cold one. Returns the cold digest.
fn judge(s: &Setup, p: &Result<Pass, String>, rep: &mut Report) -> u64 {
    let n = s.cells.len() as u64;
    let p = match p {
        Ok(p) => p,
        Err(e) => {
            rep.ops(2 * n, 2 * n, || e.clone());
            return 0;
        }
    };
    rep.ops(n, p.cold.failed as u64, || "cold serve cells failed".into());
    let warm_wrong = if p.warm.digest != p.cold.digest {
        n
    } else {
        (p.warm.failed as u64).max(n - p.warm.hits as u64)
    };
    rep.ops(n, warm_wrong, || {
        format!(
            "warm job: digest {:016x} vs cold {:016x}, {} of {n} hits",
            p.warm.digest, p.cold.digest, p.warm.hits
        )
    });
    p.cold.digest
}

/// One pass's job digest, for the seed self-test.
pub fn digest(s: &Setup, rep: &mut Report) -> u64 {
    judge(s, &pass(s, 0), rep)
}

/// Per-cell times and sizes from the call-for-call decomposition.
#[derive(Default)]
struct Decomposed {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    store_bytes: u64,
}

/// Re-does one job's per-cell work through the public store and journal,
/// call for call as the service runs a cell: lookup, compute, store, journal
/// (cold), then lookup and journal (warm). Each payload must come back from
/// the store byte for byte.
fn decompose(cells: &[CellSpec], dir: &Path, rep: &mut Report) -> std::io::Result<Decomposed> {
    std::fs::create_dir_all(dir)?;
    let mut store = Store::open(&dir.join("store"), code_fingerprint(), None)?;
    let (mut journal, _) = Journal::open(&dir.join("journal.log"), true)?;
    let mut out = Decomposed::default();
    let mut payloads = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        let token = cell.token();
        let c0 = Instant::now();
        span("serve.cell_cold", || -> std::io::Result<()> {
            let _ = span("serve.store_get", || store.get(&token));
            let result = span("serve.compute", || cell.execute());
            let payload = result.outcome.unwrap_or_default();
            span("serve.store_put", || store.put(&token, &payload));
            let event = JournalEvent::CellOk {
                job: 1,
                index,
                payload_fnv: dvs_serve::store::payload_fnv(&payload),
                wall_nanos: result.wall_nanos,
            };
            span("serve.journal_append", || journal.append(&event))?;
            payloads.push(payload);
            Ok(())
        })?;
        out.cold_ms.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    out.store_bytes = store.bytes();
    for (index, (cell, want)) in cells.iter().zip(&payloads).enumerate() {
        let token = cell.token();
        let c0 = Instant::now();
        span("serve.cell_warm", || -> std::io::Result<()> {
            let got = span("serve.store_get", || store.get(&token));
            if !matches!(&got, Lookup::Hit(p) if p == want) {
                rep.problem(format!(
                    "decomposed warm lookup of {token} did not return its payload"
                ));
            }
            let event = JournalEvent::CellOk {
                job: 2,
                index,
                payload_fnv: dvs_serve::store::payload_fnv(want),
                wall_nanos: 0,
            };
            span("serve.journal_append", || journal.append(&event))
        })?;
        out.warm_ms.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// The traced measurement: untraced passes for half the budget, then
/// traced passes that run the same cold and warm jobs with each service
/// call in a span, followed by the per-cell decomposition in a second
/// fresh directory. Returns `(untraced wall, traced wall)` per pass.
pub fn trace(s: &Setup, budget_s: f64, rep: &mut Report) -> (f64, f64) {
    let untraced = sweep(budget_s / 2.0, 1, 1, |i| pass(s, i));
    let digests: Vec<u64> = untraced
        .passes
        .iter()
        .flatten()
        .map(|p| judge(s, p, rep))
        .collect();
    let want = digests.first().copied();
    for d in &digests {
        rep.expect_eq("serve pass digest", Some(*d), want);
    }
    let (job, cells) = (&s.job, &s.cells);
    let mut index = untraced.passes.len();
    let mut cold_reports = Vec::new();
    let mut warm_reports = Vec::new();
    let mut decomposed = Vec::new();
    let mut journal_bytes = 0u64;
    let traced = passes(budget_s / 2.0, || {
        index += 1;
        let dir = s.root.join(format!("pass-{index}"));
        let t0 = Instant::now();
        let out = span("pass", || -> std::io::Result<()> {
            let mut serve = span("serve.open", || Serve::open(Setup::config(&dir)))?;
            let cold = span("serve.run_job_cold", || submit_and_run(&mut serve, job))?;
            let warm = span("serve.run_job_warm", || submit_and_run(&mut serve, job))?;
            journal_bytes = std::fs::metadata(dir.join("journal.log")).map_or(0, |m| m.len());
            cold_reports.push(cold);
            warm_reports.push(warm);
            let d = decompose(cells, &dir.join("decomposed"), rep)?;
            decomposed.push(d);
            Ok(())
        });
        let wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = out {
            rep.problem(format!("traced serve pass failed: {e}"));
        }
        (wall, ())
    });
    for (cold, warm) in cold_reports.iter().zip(&warm_reports) {
        rep.expect_eq("traced serve cold digest", Some(cold.digest), want);
        rep.expect_eq("traced serve warm digest", Some(warm.digest), want);
    }
    let n = traced.len() as f64;
    let secs = |name| ledger::secs(ledger::get(name).total_ns) / n;
    rep.set("serve.open_s", secs("serve.open"));
    rep.set("serve.run_job_cold_s", secs("serve.run_job_cold"));
    rep.set("serve.run_job_warm_s", secs("serve.run_job_warm"));
    rep.set("serve.compute_s", secs("serve.compute"));
    rep.set(
        "serve.cold_overhead_s",
        secs("serve.run_job_cold") - secs("serve.compute"),
    );
    let cold_ms: Vec<f64> = decomposed
        .iter()
        .flat_map(|d| d.cold_ms.iter().copied())
        .collect();
    let warm_ms: Vec<f64> = decomposed
        .iter()
        .flat_map(|d| d.warm_ms.iter().copied())
        .collect();
    rep.set("serve.cell_ms.cold.p50", ledger::percentile(&cold_ms, 50.0));
    rep.set("serve.cell_ms.cold.p99", ledger::percentile(&cold_ms, 99.0));
    rep.set("serve.cell_ms.warm.p50", ledger::percentile(&warm_ms, 50.0));
    rep.set("serve.cell_ms.warm.p99", ledger::percentile(&warm_ms, 99.0));
    if let (Some(cold), Some(warm)) = (cold_reports.first(), warm_reports.first()) {
        let cells = cells.len() as f64;
        rep.set("serve.cache_hits", warm.hits as f64);
        rep.set("serve.cache_misses", (cold.cells - cold.hits) as f64);
        rep.set("serve.warm_hit_ratio", warm.hits as f64 / cells);
        rep.set("serve.cells_failed", (cold.failed + warm.failed) as f64);
        rep.set("serve.retries", (cold.retries + warm.retries) as f64);
    }
    rep.set(
        "serve.store_bytes",
        decomposed.first().map_or(0, |d| d.store_bytes) as f64,
    );
    rep.set("serve.journal_bytes", journal_bytes as f64);
    (untraced.median_pass_s(), median_wall(&traced))
}
