//! `dvs check` — the model checker's deep-exploration modes on the litmus
//! suite: exhaustive (exact or bitstate visited tier, optional spill
//! budget), iterative deepening with a resumable frontier checkpoint, and
//! swarm probing. Each prints one result line of stable `key=value` tokens
//! (`scripts/ci.sh --stage check-scale` and the tests parse them); a
//! violation exits 1.

use crate::args::{number, Args};
use crate::{clean_if, Group, Outcome};
use dvs_campaign::{parse_mutation_token, parse_protocol};
use dvs_check::{
    check_litmus, deepen_litmus, swarm_litmus, CheckConfig, CheckReport, DeepenConfig, SwarmConfig,
    Verdict, VisitedMode,
};
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_stats::report::peak_rss_bytes;
use dvs_vm::litmus::Litmus;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const GROUP: Group = Group {
    name: "check",
    commands: &[
        (
            "explore [--max-depth N] [--max-states N] [--bitstate BITS] \
             [--spill-budget BYTES] [--no-por]",
            cmd_explore,
        ),
        (
            "deepen [--start N] [--step N] [--max-depth N] [--round-states N] \
             [--checkpoint FILE] [--round-delay-ms N] [--bitstate BITS] \
             [--spill-budget BYTES] [--no-por]",
            cmd_deepen,
        ),
        (
            "swarm [--probes N] [--probe-depth N] [--probe-states N] [--bits N] [--seed N]",
            cmd_swarm,
        ),
    ],
    common: "--litmus NAME --proto M|DS0|DS|GCS [--mutation TOK] [--workers N]",
};

fn model(a: &Args) -> Result<(Litmus, Protocol, Option<ProtocolMutation>), String> {
    let name = a.str("--litmus").expect("the parser checked --litmus");
    let lit = Litmus::by_name(name).ok_or_else(|| format!("unknown litmus test {name:?}"))?;
    let proto = a
        .get("--proto", parse_protocol)?
        .expect("the parser checked --proto");
    Ok((lit, proto, a.get("--mutation", parse_mutation_token)?))
}

/// The visited-store and reduction flags `explore` and `deepen` share.
fn base_config(a: &Args) -> Result<CheckConfig, String> {
    Ok(CheckConfig {
        workers: a.num("--workers", 1)?,
        por: !a.has("--no-por"),
        visited: match a.num("--bitstate", 0)? {
            0 => VisitedMode::Exact,
            bits => VisitedMode::Bitstate { bits },
        },
        spill_budget_bytes: a.get("--spill-budget", number)?,
        ..CheckConfig::default()
    })
}

fn print_report(mode: &str, report: &CheckReport, started: Instant, extra: &str) -> Outcome {
    let s = &report.stats;
    let verdict = match &report.verdict {
        Verdict::Verified => "verified".to_string(),
        Verdict::Violated(ce) => {
            format!(
                "violated picks={} minimized={}",
                ce.picks.len(),
                ce.minimized
            )
        }
    };
    let states_per_s = s.unique_states as f64 / started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "{mode} verdict={verdict} unique={} expansions={} replays={} budget={} max_depth={} \
         states_per_s={:.0} spilled_runs={} spilled_entries={} visited_peak_bytes={} \
         fill={:.6} peak_rss={}{extra}",
        s.unique_states,
        s.expansions,
        s.replay_fires,
        s.budget_fired(),
        s.max_depth_seen,
        states_per_s,
        s.spilled_runs,
        s.spilled_entries,
        s.visited_peak_bytes,
        s.filter_fill_ratio(),
        peak_rss_bytes().unwrap_or(0),
    );
    Ok(clean_if(matches!(report.verdict, Verdict::Verified)))
}

fn cmd_explore(a: &Args) -> Outcome {
    let (lit, proto, mutation) = model(a)?;
    let started = Instant::now();
    let cfg = CheckConfig {
        max_depth: a.num("--max-depth", 100_000)?,
        max_states: a.num("--max-states", 2_000_000)?,
        ..base_config(a)?
    };
    let report = check_litmus(&lit, proto, mutation, &cfg);
    print_report("explore", &report, started, "")
}

fn cmd_deepen(a: &Args) -> Outcome {
    let (lit, proto, mutation) = model(a)?;
    let started = Instant::now();
    let cfg = DeepenConfig {
        base: base_config(a)?,
        start_depth: a.num("--start", 64)?,
        step: a.num("--step", 64)?,
        max_depth: a.num("--max-depth", 4096)?,
        round_states: a.num("--round-states", 2_000_000)?,
        checkpoint: a.str("--checkpoint").map(PathBuf::from),
        round_delay: match a.num("--round-delay-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    };
    let outcome = deepen_litmus(&lit, proto, mutation, &cfg).map_err(|e| e.to_string())?;
    let extra = format!(" rounds={} resumed={}", outcome.rounds, outcome.resumed);
    print_report("deepen", &outcome.report, started, &extra)
}

fn cmd_swarm(a: &Args) -> Outcome {
    let (lit, proto, mutation) = model(a)?;
    let started = Instant::now();
    let cfg = SwarmConfig {
        probes: a.num("--probes", 64)?,
        workers: a.num("--workers", 1)?,
        probe_depth: a.num("--probe-depth", 4_000)?,
        probe_states: a.num("--probe-states", 20_000)?,
        filter_bits: a.num("--bits", 1 << 22)?,
        seed: a.num("--seed", 0)?,
    };
    let report = swarm_litmus(&lit, proto, mutation, &cfg);
    print_report("swarm", &report, started, "")
}
