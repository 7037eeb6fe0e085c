//! Chaos matrix artifact: every kernel on every protocol under the fixed
//! fault seeds with runtime invariant checking enabled, plus a measurement of
//! the wall-clock cost of the checkers (which must be pay-for-use: a run with
//! `check_invariants = false` executes none of the checking code and its
//! simulated timing is bit-identical either way).
//!
//! Writes `BENCH_chaos.json` (machine-readable) and prints a summary table.
//! The seeds and protocols here match `tests/chaos.rs` and `scripts/ci.sh`.
//! The matrix is one campaign (chaos cells are just specs with fault-seed
//! overrides) whose `results_digest` is pinned in `scripts/digests.txt`; the
//! overhead measurement stays sequential because it times the host.

use std::time::Instant;

use dvs_bench::run_kernel;
use dvs_campaign::{workers_from_env, Campaign, CampaignReport, ExperimentSpec};
use dvs_core::chaos::FaultPlan;
use dvs_core::config::{Protocol, SystemConfig};
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};
use dvs_stats::report::{BenchArtifact, JsonObject, ParamTable};

const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_CAFE];
const THREADS: usize = 4;
const OVERHEAD_REPS: u32 = 20;

/// The full matrix as one spec list: (protocol × seed) cells, each cell
/// covering every kernel, in cell-major order.
fn matrix_specs() -> Vec<ExperimentSpec> {
    let params = KernelParams::smoke(THREADS);
    let mut specs = Vec::new();
    for proto in Protocol::EXTENDED {
        for seed in SEEDS {
            for kernel in KernelId::all() {
                let mut spec = ExperimentSpec::kernel(kernel, params, proto);
                spec.overrides.check_invariants = true;
                spec.overrides.fault_seed = Some(seed);
                specs.push(spec);
            }
        }
    }
    specs
}

/// Aggregates the per-kernel records back into (protocol, seed) cells.
fn cell_json(report: &CampaignReport) -> Vec<JsonObject> {
    let kernels = KernelId::all().len();
    let mut cells = Vec::new();
    let mut chunk = report.records.chunks(kernels);
    for proto in Protocol::EXTENDED {
        for seed in SEEDS {
            let records = chunk.next().expect("cell records");
            let mut total_cycles = 0u64;
            let mut total_msgs = 0u64;
            for r in records {
                let stats = r.outcome.as_ref().expect("matrix run succeeded");
                total_cycles += stats.cycles;
                total_msgs += stats.traffic.total();
            }
            let mut cell = JsonObject::new();
            cell.str("protocol", proto.label())
                .str("seed", &format!("{seed:#x}"))
                .u64("runs", records.len() as u64)
                .u64("total_cycles", total_cycles)
                .u64("total_messages", total_msgs);
            cells.push(cell);
        }
    }
    cells
}

/// Times `OVERHEAD_REPS` runs of one kernel with checking off/on and verifies
/// the simulated timing is unchanged — the checkers observe, never perturb.
fn measure_overhead() -> JsonObject {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let params = KernelParams::smoke(THREADS);
    let mut times = [0u128; 2];
    let mut cycles = [0u64; 2];
    for (i, check) in [false, true].into_iter().enumerate() {
        let start = Instant::now();
        for _ in 0..OVERHEAD_REPS {
            let mut cfg = SystemConfig::small(THREADS, Protocol::DeNovoSync);
            cfg.check_invariants = check;
            cfg.fault_plan = Some(FaultPlan::from_seed(SEEDS[0]));
            let stats = run_kernel(kernel, cfg, &params).expect("overhead run");
            cycles[i] = stats.cycles;
        }
        times[i] = start.elapsed().as_nanos();
    }
    assert_eq!(
        cycles[0], cycles[1],
        "invariant checking must not change simulated timing"
    );
    let mut obj = JsonObject::new();
    obj.str("kernel", &kernel.name())
        .u64("reps", u64::from(OVERHEAD_REPS))
        .u64("simulated_cycles", cycles[0])
        .u64("wall_ns_checks_off", times[0] as u64)
        .u64("wall_ns_checks_on", times[1] as u64)
        .f64_opt("on_off_ratio", times[1] as f64 / times[0] as f64);
    obj
}

fn main() {
    let report = Campaign::from_specs(matrix_specs()).run(workers_from_env());
    report.expect_all_ok("chaos matrix");
    let matrix = cell_json(&report);
    let overhead = measure_overhead();

    let mut summary = ParamTable::new("Chaos matrix");
    summary
        .row("kernels", KernelId::all().len())
        .row("protocols", Protocol::EXTENDED.len())
        .row("fault seeds", SEEDS.len())
        .row("invariant checking", "enabled for every matrix run")
        .row("results digest", report.results_digest())
        .row("campaign wall", format!("{:.1}s", report.wall_seconds()));
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("chaos_matrix", "");
    artifact
        .body()
        .u64("threads", THREADS as u64)
        .str("results_digest", &report.results_digest())
        .array("matrix", matrix)
        .object("invariant_check_overhead", overhead);
    // Anchor to the workspace root regardless of the bench binary's cwd.
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_chaos.json"
    ));
}
