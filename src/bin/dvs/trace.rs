//! `dvs trace` — record, compose, mix, replay and summarize `.dvst` traces.
//!
//! Kernel tokens are the `dvs-kernels` ones (`tatas:counter`,
//! `nb:fai_counter`, `barrier:tree`, …), plus `composite:<items>:<work>`
//! for the three-phase composite app. `--proto` defaults to `DS`.

use crate::args::{number, Args};
use crate::{clean_if, Group, Outcome};
use dvs_campaign::parse_protocol;
use dvs_core::{Protocol, SystemConfig};
use dvs_kernels::{build, KernelId, KernelParams, Workload};
use dvs_trace::{
    build_mix, compose, composite, record, replay_oracle, replay_timed, MixSpec, ReplayMode, Trace,
    ORACLE_DELIVERY_BUDGET,
};
use std::process::ExitCode;

pub const GROUP: Group = Group {
    name: "trace",
    commands: &[
        (
            "record <kernel-token> [--threads N] [--iters N] [--proto P] [-o|--out FILE]",
            cmd_record,
        ),
        (
            "replay <file.dvst> [--proto P] [--compressed] [--oracle] [--seed N]",
            cmd_replay,
        ),
        ("compose <out.dvst> <phase.dvst>...", cmd_compose),
        ("mix <seed> <phases> <threads> [-o|--out FILE]", cmd_mix),
        ("show <file.dvst>", cmd_show),
    ],
    common: "",
};

fn proto(a: &Args) -> Result<Protocol, String> {
    Ok(a.get("--proto", parse_protocol)?
        .unwrap_or(Protocol::DeNovoSync))
}

/// Resolves a workload token: a `dvs-kernels` kernel token or
/// `composite:<items>:<work>`.
fn workload_for(token: &str, threads: usize, iters: u64) -> Result<Workload, String> {
    if let Some(rest) = token.strip_prefix("composite:") {
        let (items, work) = rest
            .split_once(':')
            .ok_or("composite token is composite:<items>:<work>")?;
        return Ok(composite(threads, number(items)?, number(work)?));
    }
    let id = KernelId::from_token(token).ok_or_else(|| format!("unknown kernel {token:?}"))?;
    let mut params = KernelParams::smoke(threads);
    if iters > 0 {
        params.iters = iters;
    }
    Ok(build(id, &params))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn emit(trace: &Trace, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, trace.render()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} cores, {} ops, fingerprint {:016x}",
                trace.cores(),
                trace.total_ops(),
                trace.fingerprint()
            );
        }
        None => print!("{}", trace.render()),
    }
    Ok(())
}

fn cmd_record(a: &Args) -> Outcome {
    let threads = a.num("--threads", 16)?;
    let workload = workload_for(&a.pos[0], threads, a.num("--iters", 0)?)?;
    match record(
        &a.pos[0],
        &workload,
        SystemConfig::small(threads, proto(a)?),
    ) {
        Ok((trace, stats)) => {
            emit(&trace, a.str("-o"))?;
            eprintln!("recorded in {} cycles", stats.cycles);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("record failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_replay(a: &Args) -> Outcome {
    let (trace, proto) = (load_trace(&a.pos[0])?, proto(a)?);
    let cfg = SystemConfig::small(trace.cores(), proto);
    let fp = trace.fingerprint();
    if a.has("--oracle") {
        let result = replay_oracle(&trace, cfg, a.num("--seed", 1)?, ORACLE_DELIVERY_BUDGET);
        match &result {
            Ok(n) => println!("oracle replay ok: {n} deliveries, fingerprint {fp:016x}"),
            Err(e) => eprintln!("oracle replay failed: {e}"),
        }
        return Ok(clean_if(result.is_ok()));
    }
    let mode = if a.has("--compressed") {
        ReplayMode::Compressed
    } else {
        ReplayMode::Faithful
    };
    let result = replay_timed(&trace, cfg, mode);
    match &result {
        Ok(stats) => println!(
            "replay ok on {proto}: {} cycles, fingerprint {fp:016x}",
            stats.cycles
        ),
        Err(e) => eprintln!("replay failed: {e}"),
    }
    Ok(clean_if(result.is_ok()))
}

fn cmd_compose(a: &Args) -> Outcome {
    let (out, phases) = a.pos.split_first().expect("the parser checked the count");
    let loaded: Vec<Trace> = phases
        .iter()
        .map(|p| load_trace(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&Trace> = loaded.iter().collect();
    emit(&compose(out.trim_end_matches(".dvst"), &refs)?, Some(out))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_mix(a: &Args) -> Outcome {
    let spec = MixSpec {
        seed: number(&a.pos[0])?,
        phases: number(&a.pos[1])?,
        threads: number(&a.pos[2])?,
    };
    match build_mix(spec) {
        Ok(trace) => emit(&trace, a.str("-o")).map(|()| ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("mix failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_show(a: &Args) -> Outcome {
    let trace = load_trace(&a.pos[0])?;
    println!("name        {}", trace.name);
    println!("recorded on {}", trace.recorded_on);
    println!("cores       {}", trace.cores());
    println!("ops         {}", trace.total_ops());
    println!("init words  {}", trace.init.len());
    println!("final words {}", trace.finals.len());
    println!("fingerprint {:016x}", trace.fingerprint());
    Ok(ExitCode::SUCCESS)
}
