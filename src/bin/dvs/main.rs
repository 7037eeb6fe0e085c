//! `dvs` — the suite's one command line: `dvs <group> <command> [args]`.
//!
//! Four groups front the trace replayer, the differential fuzzer, the
//! model checker and the job service. Every command is declared once, as
//! its usage text, and parsed by the one option parser in [`args`];
//! numbers are decimal or `0x` hex, `--proto` takes `M|DS0|DS|GCS` and
//! `--mutation` the `dvs-campaign` mutation tokens everywhere. Results go
//! to stdout as the machine-parseable lines scripts and tests read.
//!
//! Exit codes: 0 clean; 1 a finding (a divergence, a violation, a failed
//! replay or cell, a quarantined store entry); 2 a usage, input or I/O
//! error.

mod args;
mod check;
mod fuzz;
mod serve;
mod trace;

use args::Args;
use std::process::ExitCode;

/// What a command returns: its exit code, or an input error (exit 2).
type Outcome = Result<ExitCode, String>;

/// A command: its usage line — its name, then its declaration (see
/// [`args`]) — and its body.
type Command = (&'static str, fn(&Args) -> Outcome);

/// One command group, with the declaration all its commands share.
pub struct Group {
    name: &'static str,
    commands: &'static [Command],
    common: &'static str,
}

const GROUPS: [Group; 4] = [trace::GROUP, fuzz::GROUP, check::GROUP, serve::GROUP];

/// Exit code 0 for a clean result, 1 for a finding.
fn clean_if(clean: bool) -> ExitCode {
    ExitCode::from(if clean { 0 } else { 1 })
}

fn usage(groups: &[Group]) -> ExitCode {
    let mut text = String::from("usage:\n");
    for g in groups {
        for (line, _) in g.commands {
            text += &format!("  dvs {} {line}\n", g.name);
        }
        if !g.common.is_empty() {
            text += &format!("  (every {} command also takes {})\n", g.name, g.common);
        }
    }
    eprintln!("{text}exit codes: 0 clean, 1 finding, 2 usage, input or I/O error");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(group) = argv
        .first()
        .and_then(|g| GROUPS.iter().find(|x| x.name == g))
    else {
        return usage(&GROUPS);
    };
    let split_line = |line: &'static str| line.split_once(' ').unwrap_or((line, ""));
    let Some(&(line, run)) = argv
        .get(1)
        .and_then(|c| group.commands.iter().find(|x| split_line(x.0).0 == c))
    else {
        return usage(std::slice::from_ref(group));
    };
    let (cmd, spec) = split_line(line);
    let fail = |msg: String| eprintln!("dvs {} {cmd}: {msg}", group.name);
    match Args::parse(&[spec, group.common], &argv[2..]) {
        Err(msg) => {
            fail(msg);
            usage(std::slice::from_ref(group))
        }
        Ok(args) => run(&args).unwrap_or_else(|msg| {
            fail(msg);
            ExitCode::from(2)
        }),
    }
}
