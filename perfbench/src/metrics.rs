//! The benchmark's metric tables — the single source `BENCHMARK.json` is
//! generated from (`--benchmark-json`) and every run is checked against.

use dvs_core::config::Protocol;
use dvs_stats::{TimeComponent, TrafficClass};

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median it may worsen by before a change counts as
/// a regression.
pub struct EndToEnd {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

fn e2e(name: &str, unit: &'static str, higher_is_better: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name: name.to_owned(),
        unit,
        higher_is_better,
        bound,
    }
}

/// Every end-to-end metric, in report order.
pub fn end_to_end() -> Vec<EndToEnd> {
    let mut v = vec![
        e2e("setup_s", "s", false, 0.25),
        e2e("peak_rss_bytes", "B", false, 0.1),
        e2e("sim_cells_per_s", "cells/s", true, 0.25),
        e2e("replay_ops_per_s", "ops/s", true, 0.25),
        e2e("fuzz_cases_per_s", "cases/s", true, 0.25),
        e2e("check_verdict_s", "s", false, 0.25),
    ];
    for p in Protocol::EXTENDED {
        v.push(e2e(
            &format!("sim_cycles.{}", p.label()),
            "cycles",
            false,
            0.03,
        ));
    }
    for p in Protocol::EXTENDED {
        v.push(e2e(
            &format!("noc_flits.{}", p.label()),
            "flit-links",
            false,
            0.03,
        ));
    }
    v
}

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| v.push((name, unit));
    push("engine.events".into(), "count");
    push("engine.events_per_kcycle".into(), "1/kcycle");
    for (name, unit) in [
        ("core.new_s", "s"),
        ("core.run_s", "s"),
        ("core.verify_s", "s"),
        ("core.run_ns_per_event", "ns"),
        ("core.replay_ns_per_event", "ns"),
        ("core.new_us_per_system", "us"),
    ] {
        push(name.into(), unit);
    }
    for call in ["fire", "clone", "fingerprint", "enabled"] {
        push(format!("core.{call}.calls"), "count");
        push(format!("core.{call}.mean_ns"), "ns");
    }
    for c in TimeComponent::ALL {
        for p in Protocol::EXTENDED {
            push(format!("core.stall.{}.{}", c.label(), p.label()), "cycles");
        }
    }
    push("core.gcs.notifies".into(), "count");
    push("core.gcs.recalls".into(), "count");
    push("vm.ns_per_event_est".into(), "ns");
    push("vm.ref_s".into(), "s");
    for c in TrafficClass::ALL {
        for p in Protocol::EXTENDED {
            push(
                format!("noc.flits.{}.{}", c.label().to_ascii_lowercase(), p.label()),
                "flit-links",
            );
        }
    }
    for m in [
        "l1_hits",
        "l1_misses",
        "sync_read_misses",
        "mshr_high_water",
    ] {
        for p in Protocol::EXTENDED {
            push(format!("mem.{m}.{}", p.label()), "count");
        }
    }
    push("telemetry.metrics_s".into(), "s");
    push("campaign.cell_ms.p50".into(), "ms");
    push("campaign.cell_ms.p90".into(), "ms");
    push("trace.parse_s".into(), "s");
    push("trace.replay_s".into(), "s");
    push("trace.ops".into(), "count");
    for (name, unit) in [
        ("fuzz.gen_s", "s"),
        ("fuzz.lower_s", "s"),
        ("fuzz.diff_s", "s"),
        ("fuzz.case_ms.p50", "ms"),
        ("fuzz.case_ms.p99", "ms"),
        ("fuzz.width", "count"),
        ("fuzz.instrs", "count"),
        ("fuzz.sick", "count"),
        ("fuzz.diverged", "count"),
        ("check.unique_states", "count"),
        ("check.expansions", "count"),
        ("check.transitions_fired", "count"),
        ("check.dedup_hits", "count"),
        ("check.sleep_skips", "count"),
        ("check.replay_fires", "count"),
        ("check.replay_ratio", "ratio"),
        ("check.visited_peak_bytes", "B"),
        ("check.states_per_s", "1/s"),
        ("check.self_s", "s"),
        ("serve.open_s", "s"),
        ("serve.run_job_cold_s", "s"),
        ("serve.run_job_warm_s", "s"),
        ("serve.compute_s", "s"),
        ("serve.cold_overhead_s", "s"),
        ("serve.cell_ms.cold.p50", "ms"),
        ("serve.cell_ms.cold.p99", "ms"),
        ("serve.cell_ms.warm.p50", "ms"),
        ("serve.cell_ms.warm.p99", "ms"),
        ("serve.cache_hits", "count"),
        ("serve.cache_misses", "count"),
        ("serve.warm_hit_ratio", "ratio"),
        ("serve.store_bytes", "B"),
        ("serve.journal_bytes", "B"),
        ("serve.cells_failed", "count"),
        ("serve.retries", "count"),
        ("tracing.overhead", "ratio"),
        ("tracing.self_time_coverage", "ratio"),
    ] {
        push(name.into(), unit);
    }
    v
}

/// Higher-is-better per-layer metrics (the rest are lower-is-better costs
/// or neutral counts).
fn per_layer_higher(name: &str) -> bool {
    name.starts_with("mem.l1_hits.")
        || matches!(
            name,
            "check.states_per_s"
                | "serve.cache_hits"
                | "serve.warm_hit_ratio"
                | "tracing.self_time_coverage"
        )
}

/// The workloads: name and why it is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper16",
        "the steady-state event loop (engine, core controllers, noc, mem, vm) on the paper's 16-core grid, then the same kernels replayed without the VM",
    ),
    (
        "fuzz",
        "many short-lived 4-core systems per case, so construction and oracle walks weigh far more than on paper16; its traced run also traces the job service",
    ),
    (
        "check",
        "the checker's visited store, state clone and fingerprint with invariant checks per delivery; the timed event loop is unused",
    ),
];

/// The benchmark command; each run appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Run length passed to each run as `--seconds`.
pub const RUN_SECONDS: u64 = 18;

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The `BENCHMARK.json` contract file.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|a| quote(a)).collect();
    s.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(n), quote(why)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quote(&m.name),
                quote(m.unit),
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|(n, u)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(n),
                quote(u),
                better(per_layer_higher(n))
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
