//! `fuzz`: consecutive generator seeds through the 9-way differential
//! (`run_case`: the SC reference, then M/DS0/DS/GCS each timed and oracle)
//! on 4-core cases.

use crate::ledger::{self, span};
use crate::report::{median_wall, passes, sweep, Measure, Report, Sweep};
use dvs_campaign::{fnv1a_str, FNV_OFFSET};
use dvs_core::config::Protocol;
use dvs_core::{System, SystemConfig};
use dvs_fuzz::diff::CORES;
use dvs_fuzz::{generate, run_case, CaseVerdict, GenConfig, HarnessConfig};
use dvs_vm::reference::RefMachine;
use dvs_vm::Asm;
use std::sync::Arc;
use std::time::Instant;

/// Runs per case: the SC reference plus every extended protocol timed and
/// untimed. Pinned so the differential cannot widen or narrow unnoticed.
pub const WIDTH: usize = 9;

/// Cases per pass on the `fuzz` workload.
pub const FULL_CASES: usize = 1000;
/// Cases per probe pass.
pub const PROBE_CASES: usize = 100;

/// The pass's seeds and the pinned generator and harness.
pub struct Setup {
    seed_start: u64,
    count: usize,
    gen: GenConfig,
    harness: HarnessConfig,
}

/// A pass of `count` consecutive seeds starting from one derived from the
/// benchmark seed, on the stock pool and default harness.
pub fn setup(count: usize, seed: u64) -> Setup {
    assert_eq!(
        1 + 2 * Protocol::EXTENDED.len(),
        WIDTH,
        "the fuzz differential's width changed; fuzz_cases_per_s would change meaning"
    );
    Setup {
        seed_start: seed.wrapping_mul(1_000_003),
        count,
        gen: GenConfig::default_pool(),
        harness: HarnessConfig::default(),
    }
}

impl Setup {
    /// FNV over the seed-independent shape: case count, pool, harness,
    /// differential width.
    pub fn cells_hash(&self) -> u64 {
        fnv1a_str(
            FNV_OFFSET,
            &format!(
                "cases={} width={WIDTH} gen={:?} harness={:?}",
                self.count, self.gen, self.harness
            ),
        )
    }
}

/// Summary line of one verdict (the run's digest folds these in order) and
/// whether the case passed.
fn summarize(seed: u64, v: &CaseVerdict) -> (String, Result<(), String>) {
    match v {
        CaseVerdict::Pass { ref_fnv, instrs } => (
            format!("seed={seed:#x} pass ref={ref_fnv:016x} instrs={instrs}"),
            Ok(()),
        ),
        CaseVerdict::Sick { reason } => {
            let line = format!("seed={seed:#x} sick: {reason}");
            (line.clone(), Err(line))
        }
        CaseVerdict::Diverged { instrs, divergence } => {
            let line = format!("seed={seed:#x} diverged {divergence} instrs={instrs}");
            (line.clone(), Err(line))
        }
    }
}

/// One case: generate it and run the differential. Returns its summary
/// line and whether it passed.
fn run_unit(s: &Setup, i: usize) -> (String, Result<(), String>) {
    let seed = s.seed_start.wrapping_add(i as u64);
    let case = generate(seed, &s.gen);
    summarize(seed, &run_case(&case, &s.harness))
}

/// Counts every case of every pass and returns each pass's digest (FNV
/// over its summary lines, in seed order).
fn count_and_digest(passes: &[Vec<(String, Result<(), String>)>], rep: &mut Report) -> Vec<u64> {
    passes
        .iter()
        .map(|pass| {
            pass.iter().fold(FNV_OFFSET, |h, (line, ok)| {
                rep.op(ok.clone());
                fnv1a_str(fnv1a_str(h, line), "\n")
            })
        })
        .collect()
}

/// The end-to-end measurement: passes over the cases;
/// `fuzz_cases_per_s` divides the case count by the sum of each case's
/// best time, and every pass must reproduce the first one's digest.
pub struct Untraced<'a> {
    s: &'a Setup,
    sw: Sweep<(String, Result<(), String>)>,
}

impl<'a> Untraced<'a> {
    pub fn new(s: &'a Setup) -> Self {
        Untraced {
            s,
            sw: Sweep::default(),
        }
    }
}

impl Measure for Untraced<'_> {
    fn step(&mut self) -> (f64, bool) {
        let s = self.s;
        self.sw.step(s.count, |i| run_unit(s, i))
    }

    fn finish(&self, rep: &mut Report) -> u64 {
        let n = self.s.count;
        rep.set("fuzz_cases_per_s", n as f64 / self.sw.best_sum(0..n));
        let digests = count_and_digest(&self.sw.passes, rep);
        for (i, h) in digests.iter().enumerate().skip(1) {
            rep.expect_eq(&format!("fuzz pass {i} digest"), *h, digests[0]);
        }
        digests[0]
    }
}

/// The traced measurement: untraced passes for half the budget, then
/// traced passes. A traced case times generation, lowering, the SC
/// reference run and one `System::new` per protocol on their own, then
/// the full differential; its verdict must match the untraced pass.
/// Returns `(untraced wall, traced wall)` per pass.
pub fn trace(s: &Setup, budget_s: f64, rep: &mut Report) -> (f64, f64) {
    let untraced = sweep(budget_s / 2.0, 1, s.count, |i| run_unit(s, i));
    let case_ms: Vec<f64> = untraced.unit_s.iter().flatten().map(|t| t * 1e3).collect();
    rep.set("fuzz.case_ms.p50", ledger::percentile(&case_ms, 50.0));
    rep.set("fuzz.case_ms.p99", ledger::percentile(&case_ms, 99.0));
    let want = count_and_digest(&untraced.passes, rep)[0];
    let idle: Arc<dvs_vm::isa::Program> = {
        let mut a = Asm::new("idle");
        a.halt();
        Arc::new(a.build())
    };
    let mut systems = 0u64;
    let mut instrs = 0u64;
    let mut sick = 0u64;
    let mut diverged = 0u64;
    let mut first = true;
    let traced = passes(budget_s / 2.0, || {
        let t0 = Instant::now();
        let mut h = FNV_OFFSET;
        span("pass", || {
            for seed in (0..s.count as u64).map(|i| s.seed_start.wrapping_add(i)) {
                let case = span("fuzz.gen", || generate(seed, &s.gen));
                let low = span("fuzz.lower", || case.lower());
                span("vm.ref", || {
                    RefMachine::new(low.programs.clone())
                        .run(s.harness.ref_steps)
                        .is_ok()
                });
                let mut padded = low.programs.clone();
                while padded.len() < CORES {
                    padded.push(Arc::clone(&idle));
                }
                for p in Protocol::EXTENDED {
                    let cfg = SystemConfig::small(CORES, p);
                    span("core.new_system", || {
                        System::new(cfg, Arc::clone(&low.layout), padded.clone())
                    });
                    systems += 1;
                }
                let verdict = span("fuzz.diff", || run_case(&case, &s.harness));
                if first {
                    match &verdict {
                        CaseVerdict::Pass { instrs: n, .. }
                        | CaseVerdict::Diverged { instrs: n, .. } => {
                            instrs += *n as u64;
                            diverged += u64::from(verdict.is_divergent());
                        }
                        CaseVerdict::Sick { .. } => sick += 1,
                    }
                }
                h = fnv1a_str(fnv1a_str(h, &summarize(seed, &verdict).0), "\n");
            }
        });
        first = false;
        (t0.elapsed().as_secs_f64(), h)
    });
    for (i, (_, h)) in traced.iter().enumerate() {
        rep.expect_eq(&format!("traced fuzz pass {i} digest"), *h, want);
    }
    let n = traced.len() as f64;
    let new_sys = ledger::get("core.new_system");
    rep.set(
        "core.new_us_per_system",
        new_sys.total_ns as f64 / 1e3 / systems as f64,
    );
    rep.set("vm.ref_s", ledger::secs(ledger::get("vm.ref").total_ns) / n);
    rep.set(
        "fuzz.gen_s",
        ledger::secs(ledger::get("fuzz.gen").total_ns) / n,
    );
    rep.set(
        "fuzz.lower_s",
        ledger::secs(ledger::get("fuzz.lower").total_ns) / n,
    );
    rep.set(
        "fuzz.diff_s",
        ledger::secs(ledger::get("fuzz.diff").total_ns) / n,
    );
    rep.set("fuzz.width", WIDTH as f64);
    rep.set("fuzz.instrs", instrs as f64);
    rep.set("fuzz.sick", sick as f64);
    rep.set("fuzz.diverged", diverged as f64);
    (untraced.median_pass_s(), median_wall(&traced))
}
