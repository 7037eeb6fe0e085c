//! GCS: sync-aware generalized coherence, as a sync tier on DeNovo.
//!
//! A fourth protocol backend that splits memory traffic by *observed role*
//! rather than by static annotation. GCS is not a separate controller: a
//! GCS L1 is the DeNovo L1 ([`crate::denovo::DnvL1`]) and a GCS home bank
//! is the DeNovo registry ([`crate::denovo::DnvRegistry`]), so ordinary
//! data takes the DeNovo path unchanged — word-granularity Invalid / Valid /
//! Registered, reader self-invalidation, a non-blocking registry, no
//! writer-initiated invalidations. What GCS adds is a *sync tier*, entered
//! from that shared path at a few named hooks. Words the hardware observes
//! being fought over with synchronization accesses (RMW targets, spin
//! flags) are *dynamically classified* as sync variables and moved onto a
//! dedicated directory-mediated update path:
//!
//! * classified words live permanently at their home bank; sync operations
//!   execute there atomically and never bounce registrations between L1s
//!   ([`bank`]: the sticky sync map with waiter masks, the recall
//!   handshake, sync-op execution, watches and notifications);
//! * spinning cores park in a per-word waiter set and are woken by a
//!   *targeted* notification carrying the new value — the update protocol
//!   the paper argues is wasteful for data is exactly right for the tiny,
//!   hot set of sync variables;
//! * each L1 learns classifications in a small bounded [`predictor`]
//!   table, routing future sync accesses straight down the dedicated path;
//!   a capacity miss costs one optimistic registration round trip, never
//!   correctness ([`l1`]: the predictor, remote watch and notify buffer,
//!   the `SyncWait` MSHR kind and parked recalls).
//!
//! The hooks are listed in the [`l1`] and [`bank`] module docs.

pub mod bank;
pub mod l1;
pub mod predictor;

pub use predictor::SyncPredictor;
