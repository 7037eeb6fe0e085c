//! The DeNovo protocol family: DeNovoSync0 and DeNovoSync.
//!
//! DeNovo keeps coherence state at *word* granularity with exactly three
//! stable states — Invalid, Valid, Registered — and no writer-initiated
//! invalidations: readers self-invalidate stale data at synchronization
//! acquires, and the shared L2 doubles as a *registry* that tracks one
//! up-to-date copy per word (data, or a pointer to the registered core)
//! instead of a sharer list.
//!
//! The paper's extension for arbitrary synchronization:
//!
//! * **DeNovoSync0** (§4.1): synchronization reads *register*, just like
//!   writes — the single-reader rule. The registry is non-blocking: a
//!   registration request for an already-registered word immediately
//!   re-points the registry and forwards the request to the previous
//!   registrant; racing registrations chain through the L1s' MSHRs,
//!   forming a distributed queue (module [`l1`]).
//! * **DeNovoSync** (§4.2): adds a per-core hardware [`backoff`] that delays
//!   synchronization read misses to Valid-state words, adaptively backing
//!   off under contention. The Valid state doubles as the "recently lost my
//!   registration to a remote sync reader" marker.
//!
//! [`registry`] implements the L2-side word registry. The same L1 and
//! registry also run GCS, with its sync tier ([`crate::gcs`]) in place of
//! the backoff unit.

pub mod backoff;
pub mod l1;
pub mod registry;

pub use backoff::BackoffUnit;
pub use l1::DnvL1;
pub use registry::DnvRegistry;
