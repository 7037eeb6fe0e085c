//! FNV-1a, 64-bit: the one hash behind every determinism digest and
//! on-disk checksum in the workspace — campaign and fuzz result digests,
//! `.dvst` trace fingerprints, service journal and store records, and the
//! `DVSCKPT1` checkpoint trailer. One implementation keeps them comparable
//! across tools.
//!
//! ```
//! use dvs_stats::hash::{fnv1a_bytes, fnv1a_str, FNV_OFFSET};
//!
//! assert_eq!(fnv1a_str(FNV_OFFSET, ""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv1a_str(FNV_OFFSET, "a"), 0xaf63_dc4c_8601_ec8c);
//! assert_eq!(fnv1a_bytes(FNV_OFFSET, b"a"), fnv1a_str(FNV_OFFSET, "a"));
//! ```

/// The FNV-1a 64-bit offset basis — the starting value for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: folds `byte` into `hash`.
pub fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Folds every byte of `bytes` into `hash` with [`fnv1a`].
pub fn fnv1a_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv1a(h, b))
}

/// Folds every byte of `s` into `hash` with [`fnv1a`].
pub fn fnv1a_str(hash: u64, s: &str) -> u64 {
    fnv1a_bytes(hash, s.as_bytes())
}
