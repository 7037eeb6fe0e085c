//! The `dvs` command-line contract: one token vocabulary across groups
//! (`--proto GCS`, `0x` numbers), unknown or misplaced flags rejected with
//! exit 2, findings exit 1, and result lines unchanged.

use std::process::Command;

const TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/trace/corpus/tatas-counter.dvst"
);

#[test]
fn dvs_honours_its_contract() {
    // (command line, exit code, text the output must contain); `TRACE`
    // stands for a recorded corpus trace.
    let cases = [
        // A typo'd flag is named, not silently dropped.
        (
            "check explore --litmus corr --proto M --max-statez 5",
            2,
            "--max-statez",
        ),
        // A swarm-only flag is not an explore flag.
        (
            "check explore --litmus corr --proto M --probes 4",
            2,
            "--probes",
        ),
        ("trace replay TRACE --proto GCS", 0, "replay ok on GCS"),
        (
            "trace replay TRACE --oracle --seed 0x9",
            0,
            "oracle replay ok",
        ),
        // A caught mutation is a finding.
        (
            "check swarm --litmus tatas --proto M --mutation mesi-skip-invalidate \
             --probes 64 --probe-depth 2000 --probe-states 20000 --seed 1",
            1,
            "verdict=violated",
        ),
        ("", 2, "usage:"),
        ("bogus", 2, "usage:"),
        // The stock fuzz digest the four-binary suite printed for this range.
        ("fuzz hunt 0 60", 0, "digest=3faa439e490cc575"),
    ];
    for (line, code, needle) in cases {
        let args = line
            .split_whitespace()
            .map(|a| if a == "TRACE" { TRACE } else { a });
        let out = Command::new(env!("CARGO_BIN_EXE_dvs"))
            .args(args)
            .output()
            .expect("spawn dvs");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "dvs {line}:\n{text}");
        assert!(
            text.contains(needle),
            "dvs {line} lacks {needle:?}:\n{text}"
        );
    }
}
