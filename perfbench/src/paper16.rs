//! `paper16`: the paper's sync kernels and app models at 16 cores on every
//! protocol, VM-driven through `run_recorded`, then the same kernels
//! replayed from `.dvst` traces recorded on DS during set-up.

use crate::ledger::{self, span};
use crate::report::{median_wall, passes, sweep, Measure, Report, Sweep};
use dvs_campaign::{fnv1a_str, run_recorded, ExperimentSpec, FNV_OFFSET};
use dvs_core::config::Protocol;
use dvs_core::{System, SystemConfig};
use dvs_kernels::{BarrierKind, KernelId, KernelParams, LockKind, LockedStruct, NonBlocking};
use dvs_stats::{RunStats, TimeComponent, TrafficClass};
use dvs_telemetry::Telemetry;
use dvs_trace::{replay_timed, ReplayMode, Trace};

/// The paper's core count for Figures 3–7.
const CORES: usize = 16;

/// The protocols every cell runs on.
pub const PROTOCOLS: [Protocol; 4] = Protocol::EXTENDED;

/// What one pass runs: kernels (VM-driven and replayed) and app models
/// (VM-driven only), each on every protocol.
pub struct Grid {
    kernels: Vec<KernelId>,
    apps: Vec<&'static str>,
}

impl Grid {
    /// All 24 kernels and all 13 app models.
    pub fn full() -> Grid {
        Grid {
            kernels: KernelId::all(),
            apps: dvs_apps::all_apps().iter().map(|a| a.name).collect(),
        }
    }

    /// A small fixed slice — one lock kernel, one non-blocking kernel, one
    /// barrier and one app, each among the cheapest of its kind — run by
    /// the other workloads so that every run reports the simulator's
    /// metrics.
    pub fn probe() -> Grid {
        Grid {
            kernels: vec![
                KernelId::Locked(LockedStruct::Counter, LockKind::Array),
                KernelId::NonBlocking(NonBlocking::TreiberStack),
                KernelId::Barrier(BarrierKind::Central, false),
            ],
            apps: vec!["ocean"],
        }
    }
}

/// Built inputs: the VM cell list and the recorded traces.
pub struct Setup {
    specs: Vec<ExperimentSpec>,
    /// `(kernel, .dvst text, ops)` recorded on DS with the run's seed.
    traces: Vec<(KernelId, String, u64)>,
}

/// The seed the recording runs use: the paper config's thread seed moved
/// by the benchmark seed, so the recorded interleavings (and hence the
/// replayed traces) depend on the seed while the VM grid keeps the paper's
/// parameters exactly.
fn recording_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the grid's cell list and records every kernel on DS.
pub fn setup(grid: &Grid, seed: u64) -> Setup {
    let mut specs = Vec::new();
    for &k in &grid.kernels {
        for p in PROTOCOLS {
            specs.push(ExperimentSpec::kernel(k, KernelParams::paper(k, CORES), p));
        }
    }
    for &app in &grid.apps {
        for p in PROTOCOLS {
            specs.push(ExperimentSpec::app(app, CORES, p));
        }
    }
    let traces = grid
        .kernels
        .iter()
        .map(|&k| {
            let spec =
                ExperimentSpec::kernel(k, KernelParams::paper(k, CORES), Protocol::DeNovoSync);
            let mut cfg = spec.config();
            cfg.seed = recording_seed(cfg.seed, seed);
            let workload = spec.build().expect("kernel specs always build");
            let (trace, _) = dvs_trace::record(&k.token(), &workload, cfg)
                .unwrap_or_else(|e| panic!("recording {} on DS failed: {e}", k.token()));
            (k, trace.render(), trace.total_ops() as u64)
        })
        .collect();
    Setup { specs, traces }
}

impl Setup {
    /// FNV over every cell token (VM cells, then replay cells) — the
    /// seed-independent shape of the workload.
    pub fn cells_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for s in &self.specs {
            h = fnv1a_str(h, &s.token());
            h = fnv1a_str(h, "\n");
        }
        for (k, _, _) in &self.traces {
            for p in PROTOCOLS {
                h = fnv1a_str(h, &format!("replay={};proto={}\n", k.token(), p.label()));
            }
        }
        h
    }

    fn replay_config(kernel: KernelId, p: Protocol) -> SystemConfig {
        ExperimentSpec::kernel(kernel, KernelParams::paper(kernel, CORES), p).config()
    }
}

/// Per-protocol simulated totals over one pass.
#[derive(Default)]
struct Totals {
    cycles: [u64; 4],
    flits: [u64; 4],
}

fn pindex(p: Protocol) -> usize {
    PROTOCOLS
        .iter()
        .position(|&q| q == p)
        .expect("paper16 runs only the four extended protocols")
}

/// Folds one cell's result into the pass digest.
fn fold(h: u64, label: &str, stats: &RunStats) -> u64 {
    let mut line = format!(
        "{label} cycles={} events={} flits={}",
        stats.cycles,
        stats.events,
        stats.traffic.total()
    );
    for (c, v) in stats.breakdown().iter() {
        line.push_str(&format!(" {}={v}", c.label()));
    }
    fnv1a_str(h, &line)
}

/// One unit's results: a VM cell or a replay gives one, a parse none.
type UnitOut = Vec<Result<RunStats, String>>;

/// What one unit of a pass runs. A pass runs every VM cell, then for each
/// recorded trace a parse followed by a replay on every protocol; small
/// units let each one's best time come from a quiet moment of the run.
enum Unit<'a> {
    Cell(&'a ExperimentSpec),
    Parse(usize),
    Replay(usize, Protocol),
}

/// Units per recorded trace: its parse and one replay per protocol.
const PER_TRACE: usize = 1 + PROTOCOLS.len();

/// Drops trace `t` once its last protocol has replayed it, so that only one
/// parsed trace is alive at a time.
fn release_after_last(parsed: &mut [Option<Trace>], t: usize, p: Protocol) {
    if p == PROTOCOLS[PROTOCOLS.len() - 1] {
        parsed[t] = None;
    }
}

impl Setup {
    fn units(&self) -> usize {
        self.specs.len() + self.traces.len() * PER_TRACE
    }

    fn unit(&self, i: usize) -> Unit<'_> {
        if let Some(spec) = self.specs.get(i) {
            return Unit::Cell(spec);
        }
        let j = i - self.specs.len();
        match j % PER_TRACE {
            0 => Unit::Parse(j / PER_TRACE),
            r => Unit::Replay(j / PER_TRACE, PROTOCOLS[r - 1]),
        }
    }

    /// Ops one replay pass replays (every trace on every protocol).
    fn replay_ops(&self) -> u64 {
        self.traces.iter().map(|t| t.2).sum::<u64>() * PROTOCOLS.len() as u64
    }

    /// Runs unit `i`; `parsed` holds each trace from its parse unit for its
    /// replay units.
    fn run_unit(&self, i: usize, parsed: &mut [Option<Trace>]) -> UnitOut {
        match self.unit(i) {
            Unit::Cell(spec) => {
                let r = run_recorded(spec, i);
                vec![r.outcome.map_err(|e| format!("{}: {e}", spec.label()))]
            }
            Unit::Parse(t) => {
                parsed[t] = Trace::parse(&self.traces[t].1).ok();
                Vec::new()
            }
            Unit::Replay(t, p) => {
                let r = self.replay(t, p, parsed[t].as_ref());
                release_after_last(parsed, t, p);
                vec![r]
            }
        }
    }

    fn replay(&self, t: usize, p: Protocol, trace: Option<&Trace>) -> Result<RunStats, String> {
        let k = self.traces[t].0;
        let trace = trace.ok_or_else(|| format!("parse {} failed", k.token()))?;
        replay_timed(trace, Setup::replay_config(k, p), ReplayMode::Faithful)
            .map_err(|e| format!("replay {} {}: {e}", k.token(), p.label()))
    }

    /// `(label, protocol)` of every result of a pass, in order.
    fn result_labels(&self) -> Vec<(String, Protocol)> {
        let cells = self.specs.iter().map(|s| (s.label(), s.protocol));
        let replays = self.traces.iter().flat_map(|(k, _, _)| {
            PROTOCOLS.map(|p| (format!("replay {} {}", k.token(), p.label()), p))
        });
        cells.chain(replays).collect()
    }
}

/// Counts every result of every pass as one operation.
fn count_ops(passes: &[Vec<UnitOut>], rep: &mut Report) {
    for r in passes.iter().flatten().flatten() {
        rep.op(r.as_ref().map(|_| ()).map_err(Clone::clone));
    }
}

/// Digest and simulated totals of one pass.
fn summarize(s: &Setup, pass: &[UnitOut]) -> (u64, Totals) {
    let mut h = FNV_OFFSET;
    let mut t = Totals::default();
    for ((label, p), r) in s.result_labels().iter().zip(pass.iter().flatten()) {
        h = match r {
            Ok(st) => {
                t.cycles[pindex(*p)] += st.cycles;
                t.flits[pindex(*p)] += st.traffic.total();
                fold(h, label, st)
            }
            Err(_) => fnv1a_str(h, &format!("{label} failed")),
        };
    }
    (h, t)
}

/// The end-to-end measurement: passes over every VM cell and replay unit.
/// `sim_cells_per_s` and `replay_ops_per_s` divide the work by the sum of
/// each unit's best time; the per-protocol cycle and flit totals are one
/// pass's, and every pass must reproduce the first one's digest.
pub struct Untraced<'a> {
    s: &'a Setup,
    sw: Sweep<UnitOut>,
    parsed: Vec<Option<Trace>>,
}

impl<'a> Untraced<'a> {
    pub fn new(s: &'a Setup) -> Self {
        Untraced {
            s,
            sw: Sweep::default(),
            parsed: vec![None; s.traces.len()],
        }
    }
}

impl Measure for Untraced<'_> {
    fn step(&mut self) -> (f64, bool) {
        let (s, parsed) = (self.s, &mut self.parsed);
        self.sw.step(s.units(), |i| s.run_unit(i, parsed))
    }

    fn finish(&self, rep: &mut Report) -> u64 {
        let (s, sw) = (self.s, &self.sw);
        count_ops(&sw.passes, rep);
        let n = s.specs.len();
        rep.set("sim_cells_per_s", n as f64 / sw.best_sum(0..n));
        rep.set(
            "replay_ops_per_s",
            s.replay_ops() as f64 / sw.best_sum(n..s.units()),
        );
        let (h, totals) = summarize(s, &sw.passes[0]);
        for (i, pass) in sw.passes.iter().enumerate().skip(1) {
            rep.expect_eq(&format!("paper16 pass {i} digest"), summarize(s, pass).0, h);
        }
        for (i, p) in PROTOCOLS.iter().enumerate() {
            rep.set(format!("sim_cycles.{}", p.label()), totals.cycles[i] as f64);
            rep.set(format!("noc_flits.{}", p.label()), totals.flits[i] as f64);
        }
        h
    }
}

/// One VM cell run call for call as `run_workload_with` does it, each call
/// in its own span. Returns the stats and the system's metrics tree.
fn traced_cell(
    spec: &ExperimentSpec,
) -> Result<(RunStats, dvs_telemetry::MetricsRegistry), String> {
    span("campaign.cell", || {
        let workload = span("campaign.build", || spec.build())?;
        let mut sys = span("core.new", || {
            let mut sys = System::new(
                spec.config(),
                workload.layout.clone(),
                workload.programs.clone(),
            );
            for &(addr, value) in &workload.init {
                sys.preload(addr, value);
            }
            for (i, &(base, bytes)) in workload.pools.iter().enumerate() {
                sys.set_thread_pool(i, base, bytes);
            }
            sys.set_telemetry(Telemetry::off());
            sys
        });
        let stats = span("core.run", || sys.run()).map_err(|e| e.to_string())?;
        span("core.verify", || {
            sys.verify_coherence()?;
            let read = |a| sys.read_word(a);
            (workload.check)(&read)
        })?;
        let metrics = span("telemetry.metrics", || sys.metrics());
        Ok((stats, metrics))
    })
}

/// One traced unit: a VM cell decomposed call for call, or a replay unit
/// with the parse and each replay in its own span. Simulated counts go into
/// `rep` when `count` is set.
fn traced_unit(
    s: &Setup,
    i: usize,
    parsed: &mut [Option<Trace>],
    count: bool,
    rep: &mut Report,
) -> UnitOut {
    match s.unit(i) {
        Unit::Cell(spec) => {
            let p = spec.protocol.label();
            let out = traced_cell(spec);
            if let (true, Ok((stats, metrics))) = (count, &out) {
                rep.add("engine.events", stats.events as f64);
                rep.add("engine.cycles", stats.cycles as f64);
                add_stats(rep, p, stats);
                let mshr = metrics
                    .counters()
                    .filter(|((_, c, n), _)| *c == "mshr" && *n == "high_water")
                    .map(|(_, v)| v)
                    .max()
                    .unwrap_or(0);
                rep.max(format!("mem.mshr_high_water.{p}"), mshr as f64);
                rep.add(
                    "core.gcs.notifies",
                    metrics.counter_total("notifies") as f64,
                );
                rep.add("core.gcs.recalls", metrics.counter_total("recalls") as f64);
            }
            vec![out
                .map(|(stats, _)| stats)
                .map_err(|e| format!("{}: {e}", spec.label()))]
        }
        Unit::Parse(t) => {
            parsed[t] = span("trace.parse", || Trace::parse(&s.traces[t].1)).ok();
            Vec::new()
        }
        Unit::Replay(t, p) => {
            let r = span("trace.replay", || s.replay(t, p, parsed[t].as_ref()));
            release_after_last(parsed, t, p);
            if let (true, Ok(stats)) = (count, &r) {
                rep.add("trace.ops", s.traces[t].2 as f64);
                rep.add("replay.events", stats.events as f64);
                add_stats(rep, p.label(), stats);
            }
            vec![r]
        }
    }
}

/// The traced measurement: untraced passes for half the budget (at least
/// one), then traced passes for the rest. Every traced unit must reproduce
/// the untraced pass's results exactly — `run_recorded`'s `RunStats` for a
/// VM cell, `replay_timed`'s for a replay. Records the per-layer metrics
/// and returns `(untraced wall, traced wall)` per pass.
pub fn trace(s: &Setup, budget_s: f64, rep: &mut Report) -> (f64, f64) {
    let mut parsed = vec![None; s.traces.len()];
    let sw = sweep(budget_s / 2.0, 1, s.units(), |i| s.run_unit(i, &mut parsed));
    count_ops(&sw.passes, rep);
    let n = s.specs.len();
    let cell_ms: Vec<f64> = sw
        .unit_s
        .iter()
        .flat_map(|p| p[..n].iter().map(|t| t * 1e3))
        .collect();
    rep.set("campaign.cell_ms.p50", ledger::percentile(&cell_ms, 50.0));
    rep.set("campaign.cell_ms.p90", ledger::percentile(&cell_ms, 90.0));
    let reference = &sw.passes[0];
    let mut first = true;
    let traced = passes(budget_s / 2.0, || {
        let t0 = std::time::Instant::now();
        span("pass", || {
            for (i, want) in reference.iter().enumerate() {
                let got = traced_unit(s, i, &mut parsed, first, rep);
                rep.expect_eq(&format!("traced unit {i} results"), &got, want);
            }
        });
        first = false;
        (t0.elapsed().as_secs_f64(), ())
    });
    let npasses = traced.len() as f64;
    let per_pass = |name: &str| ledger::secs(ledger::get(name).total_ns) / npasses;
    let events = rep.metrics.get("engine.events").copied().unwrap_or(0.0);
    let cycles = rep.metrics.remove("engine.cycles").unwrap_or(0.0);
    let replay_events = rep.metrics.remove("replay.events").unwrap_or(0.0);
    rep.set("engine.events_per_kcycle", events / (cycles / 1e3));
    rep.set("core.new_s", per_pass("core.new"));
    rep.set("core.run_s", per_pass("core.run"));
    rep.set("core.verify_s", per_pass("core.verify"));
    rep.set("telemetry.metrics_s", per_pass("telemetry.metrics"));
    let run_ns = per_pass("core.run") * 1e9 / events;
    let replay_ns = per_pass("trace.replay") * 1e9 / replay_events;
    rep.set("core.run_ns_per_event", run_ns);
    rep.set("core.replay_ns_per_event", replay_ns);
    rep.set("vm.ns_per_event_est", run_ns - replay_ns);
    rep.set("trace.parse_s", per_pass("trace.parse"));
    rep.set("trace.replay_s", per_pass("trace.replay"));
    (sw.median_pass_s(), median_wall(&traced))
}

/// Adds one run's simulated stall, traffic and cache counts under `p`.
fn add_stats(rep: &mut Report, p: &str, stats: &RunStats) {
    let b = stats.breakdown();
    for c in TimeComponent::ALL {
        rep.add(format!("core.stall.{}.{p}", c.label()), b.get(c) as f64);
    }
    for c in TrafficClass::ALL {
        rep.add(
            format!("noc.flits.{}.{p}", c.label().to_ascii_lowercase()),
            stats.traffic.get(c) as f64,
        );
    }
    rep.add(format!("mem.l1_hits.{p}"), stats.cache.hits() as f64);
    rep.add(format!("mem.l1_misses.{p}"), stats.cache.misses() as f64);
    rep.add(
        format!("mem.sync_read_misses.{p}"),
        stats.cache.sync_read_misses as f64,
    );
}
