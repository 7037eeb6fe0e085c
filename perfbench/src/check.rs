//! `check`: exact-mode, one-worker exhaustive exploration of a fixed litmus
//! model set. Exhaustive, so it takes no seed.

use crate::ledger::{self, span};
use crate::report::{median_wall, passes, sweep, Measure, Report, Sweep};
use dvs_campaign::{fnv1a_str, FNV_OFFSET};
use dvs_check::{check_litmus, explore, litmus_root, CheckConfig, CheckReport, Verdict};
use dvs_core::config::Protocol;
use dvs_core::oracle::{ChannelKey, StepOracle};
use dvs_core::system::SimError;
use dvs_core::System;
use dvs_vm::litmus::Litmus;

/// A model: a litmus test on one protocol. DS is absent because its
/// backoff state makes every tatas model unbounded.
type Model = (&'static str, Protocol);

/// The `check` workload's model set: about 2 s of exploration per pass on
/// one core, so several passes fit in a run.
pub const FULL: [Model; 4] = [
    ("tatas3", Protocol::Mesi),
    ("tatas3", Protocol::DeNovoSync0),
    ("tatas3", Protocol::Gcs),
    ("mp_chain3", Protocol::Mesi),
];

/// The other workloads' probe: one mid-sized model (1,706 states) and
/// three small ones, about 0.3 s a pass.
pub const PROBE: [Model; 4] = [
    ("tatas3", Protocol::DeNovoSync0),
    ("sb", Protocol::Mesi),
    ("mp", Protocol::DeNovoSync0),
    ("fai", Protocol::Gcs),
];

/// Litmus tests and their oracle-mode root systems.
pub struct Setup {
    models: Vec<(Litmus, Protocol, System)>,
    cfg: CheckConfig,
}

/// Builds each model's root system.
pub fn setup(models: &[Model]) -> Setup {
    Setup {
        models: models
            .iter()
            .map(|&(name, p)| {
                let lit =
                    Litmus::by_name(name).expect("model set names only built-in litmus tests");
                let root = litmus_root(&lit, p, None);
                (lit, p, root)
            })
            .collect(),
        cfg: CheckConfig {
            workers: 1,
            ..CheckConfig::default()
        },
    }
}

impl Setup {
    /// FNV over the model list and the checker configuration.
    pub fn cells_hash(&self) -> u64 {
        let mut h = fnv1a_str(FNV_OFFSET, &format!("{:?}", self.cfg));
        for (lit, p, _) in &self.models {
            h = fnv1a_str(h, &format!("\n{} {}", lit.name, p.label()));
        }
        h
    }
}

/// The litmus SC verdict over any readable machine.
fn final_ok(lit: &Litmus, read: impl Fn(dvs_mem::Addr) -> u64) -> Result<(), String> {
    lit.check(read).map_err(|vals| {
        let vals: Vec<String> = vals.iter().map(|(n, v)| format!("{n}={v}")).collect();
        format!("{} (observed {})", lit.property, vals.join(", "))
    })
}

/// Counts one model check: anything but a complete `verified` fails.
fn judge(rep: &mut Report, lit: &Litmus, p: Protocol, r: &CheckReport) -> String {
    let verified = r.verdict == Verdict::Verified;
    let line = format!(
        "{} {} verified={verified} budget={} unique={}",
        lit.name,
        p.label(),
        r.stats.budget_fired(),
        r.stats.unique_states
    );
    rep.op(if verified && r.stats.complete() {
        Ok(())
    } else {
        Err(line.clone())
    });
    line
}

/// One model: explore it from its root.
fn run_unit(s: &Setup, i: usize) -> CheckReport {
    let (lit, _, root) = &s.models[i];
    explore(
        root,
        &|sys: &System| final_ok(lit, |a| sys.read_word(a)),
        &s.cfg,
    )
}

/// Counts every model check of every pass and returns each pass's digest.
fn count_and_digest(s: &Setup, passes: &[Vec<CheckReport>], rep: &mut Report) -> Vec<u64> {
    passes
        .iter()
        .map(|pass| {
            s.models
                .iter()
                .zip(pass)
                .fold(FNV_OFFSET, |h, ((lit, p, _), r)| {
                    fnv1a_str(fnv1a_str(h, &judge(rep, lit, *p, r)), "\n")
                })
        })
        .collect()
}

/// The end-to-end measurement: passes over the model set;
/// `check_verdict_s` sums each model's best time, and every pass must
/// reproduce the first one's digest.
pub struct Untraced<'a> {
    s: &'a Setup,
    sw: Sweep<CheckReport>,
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
        self.sw.step(s.models.len(), |i| run_unit(s, i))
    }

    fn finish(&self, rep: &mut Report) -> u64 {
        let n = self.s.models.len();
        rep.set("check_verdict_s", self.sw.best_sum(0..n));
        let digests = count_and_digest(self.s, &self.sw.passes, rep);
        for (i, h) in digests.iter().enumerate().skip(1) {
            rep.expect_eq(&format!("check pass {i} digest"), *h, digests[0]);
        }
        digests[0]
    }
}

/// A `System` whose oracle calls each run in a ledger span.
#[derive(Debug)]
struct Timed(System);

impl Clone for Timed {
    fn clone(&self) -> Self {
        span("core.clone", || Timed(self.0.clone()))
    }
}

impl StepOracle for Timed {
    fn enabled(&self) -> Vec<ChannelKey> {
        span("core.enabled", || self.0.oracle_channels())
    }

    fn fire(&mut self, key: ChannelKey) -> bool {
        span("core.fire", || self.0.oracle_deliver(key))
    }

    fn fingerprint(&self) -> u64 {
        span("core.fingerprint", || self.0.fingerprint())
    }

    fn error(&self) -> Option<&SimError> {
        self.0.error()
    }

    fn all_halted(&self) -> bool {
        self.0.all_halted()
    }

    fn deadlock_error(&self) -> SimError {
        self.0.deadlock_error()
    }
}

const ORACLE_SPANS: [&str; 4] = [
    "core.fire",
    "core.clone",
    "core.fingerprint",
    "core.enabled",
];

fn oracle_ns() -> u64 {
    ORACLE_SPANS.iter().map(|n| ledger::get(n).total_ns).sum()
}

/// The traced measurement: untraced passes for half the budget, then
/// passes exploring each model through the timing wrapper. Each traced
/// model must reproduce `check_litmus`'s verdict and unique-state count.
/// Returns `(untraced wall, traced wall)` per pass.
pub fn trace(s: &Setup, budget_s: f64, rep: &mut Report) -> (f64, f64) {
    let untraced = sweep(budget_s / 2.0, 1, s.models.len(), |i| run_unit(s, i));
    count_and_digest(s, &untraced.passes, rep);
    let reference: Vec<CheckReport> = s
        .models
        .iter()
        .map(|(lit, p, _)| check_litmus(lit, *p, None, &s.cfg))
        .collect();
    let mut first: Option<Vec<CheckReport>> = None;
    let traced = passes(budget_s / 2.0, || {
        let t0 = std::time::Instant::now();
        let reports: Vec<CheckReport> = span("pass", || {
            s.models
                .iter()
                .map(|(lit, _, root)| {
                    let root = Timed(root.clone());
                    let before = oracle_ns();
                    let r = span("check.explore", || {
                        explore(
                            &root,
                            &|t: &Timed| final_ok(lit, |a| t.0.read_word(a)),
                            &s.cfg,
                        )
                    });
                    // The wrapped calls ran on the checker's worker thread,
                    // inside this span's interval.
                    ledger::reattribute("check.explore", oracle_ns() - before);
                    r
                })
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        first.get_or_insert(reports);
        (wall, ())
    });
    let reports = first.expect("at least one traced pass");
    for (i, ((lit, p, _), r)) in s.models.iter().zip(&reports).enumerate() {
        let what = format!("traced check {} {}", lit.name, p.label());
        let wants =
            std::iter::once(&reference[i]).chain(untraced.passes.iter().map(|pass| &pass[i]));
        for want in wants {
            rep.expect_eq(&format!("{what} verdict"), &r.verdict, &want.verdict);
            rep.expect_eq(
                &format!("{what} unique_states"),
                r.stats.unique_states,
                want.stats.unique_states,
            );
        }
    }
    let mut total = dvs_check::CheckStats::default();
    for r in &reports {
        total.absorb(&r.stats);
    }
    let n = traced.len() as f64;
    for name in ORACLE_SPANS {
        let acc = ledger::get(name);
        rep.set(format!("{name}.calls"), acc.count as f64 / n);
        rep.set(
            format!("{name}.mean_ns"),
            acc.total_ns as f64 / acc.count.max(1) as f64,
        );
    }
    let explore_acc = ledger::get("check.explore");
    rep.set("check.self_s", ledger::secs(explore_acc.self_ns) / n);
    rep.set("check.unique_states", total.unique_states as f64);
    rep.set("check.expansions", total.expansions as f64);
    rep.set("check.transitions_fired", total.transitions_fired as f64);
    rep.set("check.dedup_hits", total.dedup_hits as f64);
    rep.set("check.sleep_skips", total.sleep_skips as f64);
    rep.set("check.replay_fires", total.replay_fires as f64);
    let fires = total.transitions_fired + total.replay_fires;
    rep.set(
        "check.replay_ratio",
        total.replay_fires as f64 / fires.max(1) as f64,
    );
    rep.set("check.visited_peak_bytes", total.visited_peak_bytes as f64);
    let untraced_s = untraced.median_pass_s();
    rep.set(
        "check.states_per_s",
        total.unique_states as f64 / untraced_s,
    );
    (untraced_s, median_wall(&traced))
}
