//! Model-checker matrix artifact: every litmus test, on every protocol,
//! exhaustively explored by `dvs-check`, plus the parallel-scaling curve
//! and the deep-exploration section.
//!
//! Writes `BENCH_check.json` (machine-readable) and prints a summary table.
//! Reported per cell: states explored, throughput (`states_per_s`), peak
//! RSS, which budget (if any) ended the run, dedup hit rate, and the
//! sleep-set partial-order-reduction factor (transitions a reduction-free
//! exploration of the same space fires, divided by what the reduced
//! exploration fires — both verdicts must agree). `peak_rss_bytes` is the
//! process high-water mark (`VmHWM`) sampled when the cell finishes; it is
//! monotone across cells, so the deep section — the memory-dominant work —
//! runs last and owns the final figure.
//!
//! The scaling section runs the largest exhaustive workload (4-contender
//! TATAS) at 1, 2, and 4 workers and reports states/second; the acceptance
//! bar is ≥ 2× at 4 workers *on a host with at least 4 CPUs* — the artifact
//! records `host_parallelism` so a single-core CI box (where extra workers
//! can only add overhead) is distinguishable from a genuine scaling
//! regression.
//!
//! The deep section drives `tatas_n(8)` past 10⁶ unique states: once with
//! the exact visited tier under a spill budget (the trusted verdict, cold
//! shards paged to disk), once with the lossy bitstate tier (POR off —
//! bitstate composes unsoundly with sleep sets). Both verdicts must agree;
//! the artifact records the agreement, each cell's fill-ratio/collision
//! estimates, and spill counters. `DVS_QUICK=1` shrinks the deep budgets
//! for CI smoke and waives the 10⁶-state bar.

use std::time::Instant;

use dvs_campaign::quick_mode;
use dvs_check::{check_litmus, CheckConfig, CheckReport, Verdict, VisitedMode};
use dvs_core::config::Protocol;
use dvs_stats::report::{host_parallelism, peak_rss_bytes, BenchArtifact, JsonObject, ParamTable};
use dvs_vm::litmus::{self, Litmus};

/// Which budget, if any, ended the run — same spelling as the
/// `dvs check` report's `budget=` token.
fn budget_label(report: &CheckReport) -> &'static str {
    match (report.stats.depth_truncated, report.stats.state_truncated) {
        (false, false) => "none",
        (true, false) => "depth",
        (false, true) => "states",
        (true, true) => "depth+states",
    }
}

fn run(lit: &Litmus, proto: Protocol, workers: usize, por: bool) -> (CheckReport, f64) {
    let cfg = CheckConfig {
        workers,
        por,
        ..CheckConfig::default()
    };
    let start = Instant::now();
    let report = check_litmus(lit, proto, None, &cfg);
    let wall = start.elapsed().as_secs_f64();
    if let Verdict::Violated(ce) = &report.verdict {
        panic!("{} on {proto:?}: violation found: {}", lit.name, ce.failure);
    }
    assert!(
        report.stats.complete(),
        "{} on {proto:?}: exploration truncated",
        lit.name
    );
    (report, wall)
}

fn matrix_cell(lit: &Litmus, proto: Protocol) -> JsonObject {
    let (with_por, wall_por) = run(lit, proto, 1, true);
    let (without, wall_full) = run(lit, proto, 1, false);
    assert_eq!(
        with_por.stats.unique_states, without.stats.unique_states,
        "{} on {proto:?}: POR changed the reachable state set",
        lit.name
    );
    let s = with_por.stats;
    let mut cell = JsonObject::new();
    cell.str("litmus", lit.name)
        .str("protocol", proto.label())
        .u64("unique_states", s.unique_states)
        .u64("expansions", s.expansions)
        .u64("transitions_fired", s.transitions_fired)
        .u64("sleep_skips", s.sleep_skips)
        .u64("dedup_hits", s.dedup_hits)
        .f64(
            "dedup_hit_rate",
            s.dedup_hits as f64 / (s.expansions + s.dedup_hits).max(1) as f64,
        )
        .f64(
            "por_reduction_factor",
            without.stats.transitions_fired as f64 / s.transitions_fired.max(1) as f64,
        )
        .u64("max_depth", s.max_depth_seen as u64)
        .str("budget", budget_label(&with_por))
        .f64_opt("states_per_s", s.unique_states as f64 / wall_por.max(1e-9))
        .u64("peak_rss_bytes", peak_rss_bytes().unwrap_or(0))
        .f64("wall_s_por", wall_por)
        .f64("wall_s_full", wall_full);
    cell
}

fn scaling() -> (Vec<JsonObject>, f64) {
    let lit = litmus::tatas_n(4);
    let proto = Protocol::Mesi;
    let mut rows = Vec::new();
    let mut rate1 = 0.0;
    let mut speedup4 = 0.0;
    for workers in [1usize, 2, 4] {
        let (report, wall) = run(&lit, proto, workers, true);
        let rate = report.stats.unique_states as f64 / wall;
        if workers == 1 {
            rate1 = rate;
        }
        if workers == 4 {
            speedup4 = rate / rate1;
        }
        let mut row = JsonObject::new();
        row.str("litmus", lit.name)
            .str("protocol", proto.label())
            .u64("workers", workers as u64)
            .u64("unique_states", report.stats.unique_states)
            .f64("wall_s", wall)
            .f64_opt("states_per_sec", rate)
            .f64_opt("speedup_vs_1", rate / rate1);
        rows.push(row);
    }
    (rows, speedup4)
}

/// One deep cell: `tatas_n(8)` explored to a state budget under the given
/// visited tier. Returns the row and the report (for the agreement check).
fn deep_cell(mode: &str, cfg: &CheckConfig) -> (JsonObject, CheckReport) {
    let lit = litmus::tatas_n(8);
    let proto = Protocol::Mesi;
    let start = Instant::now();
    let report = check_litmus(&lit, proto, None, cfg);
    let wall = start.elapsed().as_secs_f64();
    if let Verdict::Violated(ce) = &report.verdict {
        panic!(
            "deep {mode}: {} on {proto:?} violated: {}",
            lit.name, ce.failure
        );
    }
    let s = &report.stats;
    let mut row = JsonObject::new();
    row.str("litmus", lit.name)
        .str("protocol", proto.label())
        .str("mode", mode)
        .bool("por", cfg.por)
        .u64("max_states", cfg.max_states)
        .u64("unique_states", s.unique_states)
        .u64("expansions", s.expansions)
        .u64("max_depth", s.max_depth_seen as u64)
        .str("budget", budget_label(&report))
        .f64_opt("states_per_s", s.unique_states as f64 / wall.max(1e-9))
        .u64("spilled_runs", s.spilled_runs)
        .u64("spilled_entries", s.spilled_entries)
        .u64("visited_peak_bytes", s.visited_peak_bytes)
        .f64("fill_ratio", s.filter_fill_ratio())
        .f64("collision_probability", s.filter_collision_probability())
        .u64("peak_rss_bytes", peak_rss_bytes().unwrap_or(0))
        .f64("wall_s", wall);
    (row, report)
}

fn deep() -> (Vec<JsonObject>, bool, u64) {
    let quick = quick_mode();
    // Budgets calibrated so the exact cell clears 10⁶ unique states (the
    // unique/expansion ratio on tatas8 is ~0.31); quick mode shrinks both
    // cells to CI-smoke scale.
    let (exact_states, bitstate_states) = if quick {
        (40_000, 20_000)
    } else {
        (3_400_000, 600_000)
    };
    let exact_cfg = CheckConfig {
        workers: 1,
        max_depth: 100_000,
        max_states: exact_states,
        por: true,
        visited: VisitedMode::Exact,
        // Bound the hot map well below the full set's footprint so the
        // spill tier demonstrably pages cold shards out.
        spill_budget_bytes: Some(if quick { 256 << 10 } else { 24 << 20 }),
        ..CheckConfig::default()
    };
    let bitstate_cfg = CheckConfig {
        workers: 1,
        max_depth: 100_000,
        max_states: bitstate_states,
        // Bitstate composes unsoundly with sleep-set POR: a filter
        // collision can mark a state visited that POR then never revisits.
        por: false,
        visited: VisitedMode::Bitstate {
            bits: if quick { 1 << 22 } else { 1 << 27 },
        },
        ..CheckConfig::default()
    };
    let (exact_row, exact_report) = deep_cell("exact-spill", &exact_cfg);
    let (bitstate_row, bitstate_report) = deep_cell("bitstate", &bitstate_cfg);
    let agree = matches!(exact_report.verdict, Verdict::Verified)
        == matches!(bitstate_report.verdict, Verdict::Verified);
    assert!(agree, "exact and bitstate verdicts diverged on tatas8");
    assert!(
        exact_report.stats.spilled_entries > 0,
        "spill budget never fired; deep cell no longer exercises the tier"
    );
    let deep_unique = exact_report.stats.unique_states;
    if !quick {
        assert!(
            deep_unique >= 1_000_000,
            "deep exact cell fell short of 10^6 unique states: {deep_unique}"
        );
    }
    (vec![exact_row, bitstate_row], agree, deep_unique)
}

fn main() {
    let mut matrix = Vec::new();
    for lit in Litmus::all() {
        for proto in Protocol::ALL {
            matrix.push(matrix_cell(&lit, proto));
        }
    }
    let (scaling_rows, speedup4) = scaling();
    let (deep_rows, deep_agree, deep_unique) = deep();
    let host_cpus = host_parallelism();

    let mut summary = ParamTable::new("Model-checker matrix");
    summary
        .row("litmus tests", Litmus::all().len())
        .row("protocols", Protocol::ALL.len())
        .row("verdicts", "all verified, complete")
        .row("scaling workload", "tatas4 on MESI, workers 1/2/4")
        .row("host CPUs", host_cpus)
        .row(
            "4-worker speedup",
            if host_cpus >= 4 {
                format!("{speedup4:.2}x")
            } else {
                format!("{speedup4:.2}x (host has {host_cpus} CPU(s); not meaningful)")
            },
        )
        .row("deep workload", "tatas8 on MESI, exact+spill vs bitstate")
        .row("deep unique states", deep_unique)
        .row("deep verdicts agree", deep_agree);
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("check_matrix", "");
    artifact
        .body()
        .array("matrix", matrix)
        .array("scaling", scaling_rows)
        .f64_opt("speedup_4_workers", speedup4)
        .array("deep", deep_rows)
        .bool("deep_verdicts_agree", deep_agree)
        .u64("deep_unique_states", deep_unique);
    // Anchor to the workspace root regardless of the bench binary's cwd.
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_check.json"
    ));
}
