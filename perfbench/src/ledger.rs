//! In-memory span ledger for traced runs, plus the small statistics the
//! benchmark reports (medians, percentiles, peak RSS).
//!
//! A span is opened around one call into a crate's public API. Spans nest
//! per thread: a span's *self* time is its duration minus the time of the
//! spans it encloses on the same thread. Totals are kept per span name in a
//! process-wide table, so spans recorded on a checker worker thread land in
//! the same ledger as the main thread's. Nothing is written until the run
//! ends; untraced runs never open a span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus same-thread children).
    pub self_ns: u64,
    /// Number of spans closed.
    pub count: u64,
}

static TOTALS: Mutex<BTreeMap<&'static str, Acc>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a span named `name` and returns its result.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    STACK.with(|s| s.borrow_mut().push(0));
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed().as_nanos() as u64;
    let child = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.pop().expect("span stack underflow");
        if let Some(parent) = s.last_mut() {
            *parent += dur;
        }
        child
    });
    let mut totals = TOTALS
        .lock()
        .expect("ledger lock poisoned by a panicking span");
    let acc = totals.entry(name).or_default();
    acc.total_ns += dur;
    acc.self_ns += dur.saturating_sub(child);
    acc.count += 1;
    out
}

/// Moves `ns` of `name`'s self time to spans recorded on another thread
/// (the checker's worker calls made while `name` was open on this one).
pub fn reattribute(name: &'static str, ns: u64) {
    let mut totals = TOTALS.lock().expect("ledger lock");
    let acc = totals.entry(name).or_default();
    acc.self_ns = acc.self_ns.saturating_sub(ns);
}

/// A copy of one span name's totals (zero if it never ran).
pub fn get(name: &str) -> Acc {
    TOTALS
        .lock()
        .expect("ledger lock")
        .get(name)
        .copied()
        .unwrap_or_default()
}

/// Every span name's totals.
pub fn snapshot() -> BTreeMap<&'static str, Acc> {
    TOTALS.lock().expect("ledger lock").clone()
}

/// Seconds from nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile of `v` (nearest rank), or 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The process's resident-set high-water mark in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
