//! What one benchmark run accumulates — attempted and failed operations,
//! correctness problems, named metric values — and how its passes over
//! units are scheduled and timed.

use std::collections::BTreeMap;

/// The run's accumulated outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (grid cells, replays, fuzz cases, model checks,
    /// service cells).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Problems that make the whole run incorrect even when every operation
    /// passed: a digest that drifted between passes or from its pin, or a
    /// traced run that disagreed with the untraced one.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("perfbench: failed operation: {why}");
        }
    }

    /// Counts `n` operations of which `failed` went wrong.
    pub fn ops(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            eprintln!("perfbench: {failed} of {n} operations failed: {}", why());
        }
    }

    /// Records a run-level correctness problem.
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Records `a == b`, or a problem describing the mismatch.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.problem(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds to a metric value (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.metrics.entry(name.into()).or_default() += value;
    }

    /// Raises a metric to at least `value`.
    pub fn max(&mut self, name: impl Into<String>, value: f64) {
        let slot = self.metrics.entry(name.into()).or_default();
        *slot = slot.max(value);
    }

    /// Whether every operation passed and no problem was recorded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `pass` at least once, and again while another pass of the median
/// length still fits in `budget_s` seconds; returns each pass's wall time
/// in seconds along with its result.
pub fn passes<T>(budget_s: f64, mut pass: impl FnMut() -> (f64, T)) -> Vec<(f64, T)> {
    let t0 = std::time::Instant::now();
    let mut out: Vec<(f64, T)> = Vec::new();
    loop {
        out.push(pass());
        if t0.elapsed().as_secs_f64() + median_wall(&out) > budget_s {
            return out;
        }
    }
}

/// The median wall time of a list of passes.
pub fn median_wall<T>(runs: &[(f64, T)]) -> f64 {
    crate::ledger::median(&runs.iter().map(|(w, _)| *w).collect::<Vec<_>>())
}

/// Passes every [`sweep`] makes at least, so that each unit's best time
/// is taken over more than one sample.
pub const MIN_PASSES: usize = 2;

/// Per-unit results and times of whole passes over `n` units.
pub struct Sweep<T> {
    /// Every completed pass's unit results, in pass order.
    pub passes: Vec<Vec<T>>,
    /// Every completed pass's unit times in seconds, in pass order.
    pub unit_s: Vec<Vec<f64>>,
    /// The pass in progress: its results and times so far.
    open: (Vec<T>, Vec<f64>),
}

impl<T> Default for Sweep<T> {
    fn default() -> Self {
        Sweep {
            passes: Vec::new(),
            unit_s: Vec::new(),
            open: (Vec::new(), Vec::new()),
        }
    }
}

impl<T> Sweep<T> {
    /// Runs and times the next unit of the pass in progress (units run in
    /// order, `n` to a pass). Returns the unit's time and whether it
    /// completed the pass.
    pub fn step(&mut self, n: usize, unit: impl FnOnce(usize) -> T) -> (f64, bool) {
        let u0 = std::time::Instant::now();
        let result = unit(self.open.0.len());
        let dt = u0.elapsed().as_secs_f64();
        self.open.0.push(result);
        self.open.1.push(dt);
        if self.open.0.len() < n {
            return (dt, false);
        }
        let (results, times) = std::mem::take(&mut self.open);
        self.passes.push(results);
        self.unit_s.push(times);
        (dt, true)
    }

    /// Runs one whole pass; returns its time.
    pub fn run_pass(&mut self, n: usize, mut unit: impl FnMut(usize) -> T) -> f64 {
        let mut total = 0.0;
        loop {
            let (dt, complete) = self.step(n, &mut unit);
            total += dt;
            if complete {
                return total;
            }
        }
    }

    /// The sum over the units `range` selects of each one's fastest time.
    ///
    /// Host noise on a shared machine only ever slows a unit down, so a
    /// unit's fastest time over passes spread across the run estimates its
    /// cost far more steadily than the median of whole passes does; the
    /// end-to-end metrics are built from these per-unit best times.
    pub fn best_sum(&self, range: std::ops::Range<usize>) -> f64 {
        range
            .map(|i| {
                self.unit_s
                    .iter()
                    .map(|pass| pass[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// The median pass time in seconds.
    pub fn median_pass_s(&self) -> f64 {
        let walls: Vec<f64> = self.unit_s.iter().map(|p| p.iter().sum()).collect();
        crate::ledger::median(&walls)
    }
}

/// Whole passes over `n` units: at least `min_passes`, and more while
/// another pass of the mean length still fits in `budget_s` seconds.
pub fn sweep<T>(
    budget_s: f64,
    min_passes: usize,
    n: usize,
    mut unit: impl FnMut(usize) -> T,
) -> Sweep<T> {
    let t0 = std::time::Instant::now();
    let mut out = Sweep::default();
    loop {
        out.run_pass(n, &mut unit);
        let done = out.passes.len();
        let mean = t0.elapsed().as_secs_f64() / done as f64;
        if done >= min_passes && t0.elapsed().as_secs_f64() + mean > budget_s {
            return out;
        }
    }
}

/// An untraced measurement that advances one unit at a time, so that
/// several can share a run.
pub trait Measure {
    /// Runs the next unit; returns its time in seconds and whether it
    /// completed a pass.
    fn step(&mut self) -> (f64, bool);

    /// Counts the operations of every completed pass, checks that every
    /// pass gave the same results, records the end-to-end metrics, and
    /// returns the results digest.
    fn finish(&self, rep: &mut Report) -> u64;
}

/// Interleaves several measurements unit by unit, each with a target share
/// of the run in seconds: the next unit always goes to the measurement
/// that has used the least of its share, so every measurement's samples are
/// spread over the whole run rather than bunched in one stretch of it. A
/// measurement's share is its target, or [`MIN_PASSES`] of its passes when
/// those take longer. Each stops at a pass boundary once it has its minimum
/// passes and another pass would overrun its target.
pub fn interleave(measures: &mut [(Box<dyn Measure + '_>, f64)]) {
    let k = measures.len();
    let mut spent = vec![0.0f64; k];
    let mut passes = vec![0usize; k];
    let mut mid_pass = vec![false; k];
    let mut done = vec![false; k];
    let mean_pass = |spent: f64, passes: usize| spent / passes.max(1) as f64;
    loop {
        let share = |i: usize| {
            let min = if passes[i] == 0 {
                0.0
            } else {
                MIN_PASSES as f64 * mean_pass(spent[i], passes[i])
            };
            spent[i] / measures[i].1.max(min)
        };
        let Some(next) = (0..k)
            .filter(|&i| !done[i])
            .min_by(|&a, &b| share(a).total_cmp(&share(b)))
        else {
            return;
        };
        if !mid_pass[next]
            && passes[next] >= MIN_PASSES
            && spent[next] + mean_pass(spent[next], passes[next]) > measures[next].1
        {
            done[next] = true;
            continue;
        }
        let (dt, complete) = measures[next].0.step();
        spent[next] += dt;
        mid_pass[next] = !complete;
        passes[next] += usize::from(complete);
    }
}
