//! Pins the model checker's view of every protocol: the root state's
//! canonical fingerprint, the fingerprint after a fixed seeded oracle walk,
//! and the exact-mode exhaustive state counts, for the `fai` and `tatas`
//! litmus tests on M / DS0 / DS / GCS — plus the root and walk fingerprints
//! of the eight-core `tatas8`, whose mesh is not square.
//!
//! A refactor of any protocol controller must leave all of these unchanged:
//! the fingerprint byte stream is what `DVSCKPT1` checkpoints and the
//! visited store key on, so a silent change would otherwise show up only as
//! rejected checkpoints. The values depend on `std`'s `DefaultHasher`
//! (SipHash-1-3 with zero keys); a toolchain that changes it changes them.

use dvs_check::{check_litmus, litmus_root, CheckConfig};
use dvs_core::config::Protocol;
use dvs_engine::DetRng;
use dvs_vm::litmus::{self, Litmus};

/// Seed of the oracle walk.
const WALK_SEED: u64 = 0x5EED;

/// What one (litmus, protocol) pair pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    root: u64,
    walk: u64,
    unique_states: u64,
    expansions: u64,
    transitions_fired: u64,
}

/// Delivers channels picked by a seeded RNG until nothing is left to
/// deliver, returning the final state's fingerprint.
fn walk_fingerprint(lit: &Litmus, proto: Protocol) -> u64 {
    let mut sys = litmus_root(lit, proto, None);
    let mut rng = DetRng::new(WALK_SEED);
    for _ in 0..100_000 {
        let channels = sys.oracle_channels();
        if channels.is_empty() {
            break;
        }
        let pick = channels[rng.range(0, channels.len() as u64) as usize];
        assert!(sys.oracle_deliver(pick));
    }
    assert!(
        sys.all_halted(),
        "{} on {proto:?}: walk must finish",
        lit.name
    );
    sys.fingerprint()
}

fn pin(lit: &Litmus, proto: Protocol) -> Pin {
    let report = check_litmus(
        lit,
        proto,
        None,
        &CheckConfig {
            workers: 1,
            ..CheckConfig::default()
        },
    );
    assert!(report.stats.complete(), "{} on {proto:?}", lit.name);
    Pin {
        root: litmus_root(lit, proto, None).fingerprint(),
        walk: walk_fingerprint(lit, proto),
        unique_states: report.stats.unique_states,
        expansions: report.stats.expansions,
        transitions_fired: report.stats.transitions_fired,
    }
}

fn check(lit: &Litmus, expected: [(Protocol, Pin); 4]) {
    for (proto, want) in expected {
        let got = pin(lit, proto);
        assert_eq!(got, want, "{} on {proto:?}", lit.name);
    }
}

fn p(root: u64, walk: u64, unique_states: u64, expansions: u64, transitions_fired: u64) -> Pin {
    Pin {
        root,
        walk,
        unique_states,
        expansions,
        transitions_fired,
    }
}

#[test]
fn fai_fingerprints_and_state_counts_are_pinned() {
    check(
        &litmus::fai(),
        [
            (
                Protocol::Mesi,
                p(128118565753429167, 4294225785658379169, 204, 241, 301),
            ),
            (
                Protocol::DeNovoSync0,
                p(9935478611117094159, 14565568541174618027, 87, 98, 110),
            ),
            (
                Protocol::DeNovoSync,
                p(8771793521214760219, 13502870028636230471, 87, 98, 110),
            ),
            (
                Protocol::Gcs,
                p(8004571420164194842, 11452734947356136681, 161, 179, 211),
            ),
        ],
    );
}

#[test]
fn tatas_fingerprints_and_state_counts_are_pinned() {
    check(
        &litmus::tatas(),
        [
            (
                Protocol::Mesi,
                p(14461208649460795388, 12996672140617228466, 242, 314, 391),
            ),
            (
                Protocol::DeNovoSync0,
                p(10099215573556711963, 15702514609315719306, 93, 110, 125),
            ),
            (
                Protocol::DeNovoSync,
                p(18402804452006062542, 17907455976487777776, 107, 110, 125),
            ),
            (
                Protocol::Gcs,
                p(11384563805720723348, 10546046442495549220, 307, 424, 543),
            ),
        ],
    );
}

/// `tatas_n(8)`: eight L1s on a 2×4 mesh, so the pins also cover a
/// non-square machine. Its state space is too large to count exhaustively;
/// only the root and walk fingerprints are pinned.
#[test]
fn tatas8_root_and_walk_fingerprints_are_pinned() {
    let lit = litmus::tatas_n(8);
    for (proto, root, walk) in [
        (Protocol::Mesi, 7684794731902582404, 6327609901725202383),
        (
            Protocol::DeNovoSync0,
            3194325243273039201,
            11129477106654878632,
        ),
        (
            Protocol::DeNovoSync,
            4367729136531709581,
            13000472775262153294,
        ),
        (Protocol::Gcs, 6930416840386581327, 10820002911137322866),
    ] {
        let got = (
            litmus_root(&lit, proto, None).fingerprint(),
            walk_fingerprint(&lit, proto),
        );
        assert_eq!(got, (root, walk), "{} on {proto:?}", lit.name);
    }
}
