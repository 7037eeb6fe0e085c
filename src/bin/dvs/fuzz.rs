//! `dvs fuzz` — generate, replay, shrink and hunt differential fuzz cases.
//!
//! `run` and `hunt` exit 1 on a divergence (`hunt` also on a sick or
//! panicking case); `shrink` exits 0 on success — the divergence is the
//! point — and 2 if the input does not diverge.

use crate::args::{number, Args};
use crate::{clean_if, Group, Outcome};
use dvs_campaign::parse_mutation_token;
use dvs_fuzz::{
    generate, run_batch, run_case, shrink, BatchConfig, CaseVerdict, FuzzCase, GenConfig,
    HarnessConfig,
};
use std::process::ExitCode;

pub const GROUP: Group = Group {
    name: "fuzz",
    commands: &[
        ("gen <seed> [--small]", cmd_gen),
        ("run <file.dvsf> [--mutation TOK]", cmd_run),
        ("shrink <file.dvsf> [--mutation TOK]", cmd_shrink),
        (
            "hunt <start> <count> [--small] [--workers N] [--mutation TOK]",
            cmd_hunt,
        ),
    ],
    common: "",
};

fn harness(a: &Args) -> Result<HarnessConfig, String> {
    let mutation = a.get("--mutation", parse_mutation_token)?;
    Ok(HarnessConfig {
        mutation,
        ..HarnessConfig::default()
    })
}

fn gen_config(a: &Args) -> GenConfig {
    if a.has("--small") {
        GenConfig::small()
    } else {
        GenConfig::default_pool()
    }
}

fn load_case(path: &str) -> Result<FuzzCase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    FuzzCase::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(a: &Args) -> Outcome {
    print!("{}", generate(number(&a.pos[0])?, &gen_config(a)).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(a: &Args) -> Outcome {
    match run_case(&load_case(&a.pos[0])?, &harness(a)?) {
        CaseVerdict::Pass { ref_fnv, instrs } => {
            println!("pass ref={ref_fnv:016x} instrs={instrs}");
            Ok(ExitCode::SUCCESS)
        }
        CaseVerdict::Sick { reason } => Err(format!("sick case: {reason}")),
        CaseVerdict::Diverged { instrs, divergence } => {
            println!("diverged {divergence} instrs={instrs}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_shrink(a: &Args) -> Outcome {
    let (case, h) = (load_case(&a.pos[0])?, harness(a)?);
    if !run_case(&case, &h).is_divergent() {
        return Err("input case does not diverge; nothing to shrink".into());
    }
    let out = shrink(&case, |c| run_case(c, &h).is_divergent());
    eprintln!(
        "shrunk {} -> {} instrs ({} attempts, {} accepted)",
        out.initial_instrs, out.final_instrs, out.attempts, out.accepted
    );
    print!("{}", out.case.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_hunt(a: &Args) -> Outcome {
    let report = run_batch(&BatchConfig {
        seed_start: number(&a.pos[0])?,
        count: number(&a.pos[1])?,
        gen: gen_config(a),
        harness: harness(a)?,
        workers: a.num("--workers", 1)?,
    });
    println!(
        "total={} passed={} sick={} panicked={} diverged={} digest={:016x}",
        report.total,
        report.passed,
        report.sick,
        report.panicked,
        report.diverged.len(),
        report.digest
    );
    for d in &report.diverged {
        println!("  {}", d.line);
    }
    Ok(clean_if(
        report.diverged.is_empty() && report.sick == 0 && report.panicked == 0,
    ))
}
