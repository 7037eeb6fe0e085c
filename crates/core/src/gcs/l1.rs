//! GCS's L1 sync tier.
//!
//! A GCS L1 *is* the DeNovo L1 ([`crate::denovo::l1`]): ordinary data takes
//! the DeNovo data path unchanged — word-granularity Invalid / Valid /
//! Registered, writeback handshakes, the distributed registration queue,
//! reader self-invalidation. In place of DeNovoSync's backoff unit the L1
//! carries a `GcsTier`, and this module holds everything the tier adds:
//!
//! * sync accesses to *unclassified* words issue optimistic DeNovo
//!   registrations, exactly like DeNovoSync0;
//! * when the home bank classifies a word as a synchronization variable it
//!   answers registrations with `Classified`; [`DnvL1::on_gcs`] converts
//!   the pending access into a [`GcsMsg::SyncOp`] executed *at the bank*
//!   and records the word in the bounded [`SyncPredictor`];
//! * a failed spin on a classified word arms a level-triggered remote
//!   watch ([`GcsMsg::SyncWatch`]); the bank's targeted [`GcsMsg::SyncNotify`]
//!   lands in a one-entry notify buffer that the re-issued spin load hits;
//! * `Recall` surrenders a just-classified word's registered copy back to
//!   the bank (the value rides on [`GcsMsg::RecallAck`]).
//!
//! The shared data path enters the tier at four hooks:
//!
//! * **predicted-sync routing** in `core_request`: a miss on a word the
//!   predictor knows goes straight down the sync path
//!   (`DnvL1::start_sync_op`) and a spin load first checks the notify
//!   buffer (`DnvL1::take_notified`);
//! * **a transfer on a `SyncWait` entry** is a violation: the bank never
//!   re-points a classified word;
//! * **a parked recall** is served right after the registration it waited
//!   on completes (`DnvL1::surrender_recalled`);
//! * **a `Classified` rejection** of a registration converts the pending
//!   access ([`DnvL1::on_gcs`]).

use crate::denovo::l1::{DnvL1, PendKind, SyncTier, WState};
use crate::gcs::predictor::SyncPredictor;
use crate::msg::{GcsMsg, GcsOpKind, Msg};
use crate::proto::Action;
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{AccessKind, CacheGeometry, RmwOp, WordAddr};
use std::sync::Arc;

/// How to complete a dedicated-path operation when its `SyncResp` arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SyncComplete {
    /// Blocking sync load: `CoreDone` with the loaded value.
    Load,
    /// Blocking sync store: `CoreDone` with no value.
    Store { value: u64 },
    /// Blocking RMW: `CoreDone` with the old value; the new value is
    /// recomputed locally for parked readers.
    Rmw { op: RmwOp },
    /// A converted (non-blocking) data store: retires via `StoresDone`.
    DataStore { value: u64 },
}

/// The GCS L1's sync-tier state.
#[derive(Debug, Clone)]
pub(crate) struct GcsTier {
    /// Words this L1 has learned are sync-classified.
    pub(crate) predictor: SyncPredictor,
    /// Remote spin watch: `(word, seen)` sent to the bank as `SyncWatch`.
    pub(crate) remote_watch: Option<(WordAddr, u64)>,
    /// The last targeted notification `(word, value)`; consumed by the
    /// re-issued spin load.
    pub(crate) notify_buf: Option<(WordAddr, u64)>,
}

/// The sync-path operation and its completion for a core access.
fn sync_op_for(access: AccessKind) -> (SyncComplete, GcsOpKind) {
    match access {
        AccessKind::SyncLoad => (SyncComplete::Load, GcsOpKind::Load),
        AccessKind::SyncStore { value } => {
            (SyncComplete::Store { value }, GcsOpKind::Store { value })
        }
        AccessKind::SyncRmw(op) => (SyncComplete::Rmw { op }, GcsOpKind::Rmw(op)),
        AccessKind::DataStore { value } => (
            SyncComplete::DataStore { value },
            GcsOpKind::Store { value },
        ),
        AccessKind::DataLoad => unreachable!("data loads never take the sync path"),
    }
}

impl DnvL1 {
    /// Creates an empty GCS L1 for core `id`: the DeNovo L1 with the GCS
    /// sync tier in place of the backoff unit.
    pub fn new_gcs(
        id: crate::msg::CoreId,
        geometry: CacheGeometry,
        banks: usize,
        layout: Arc<MemoryLayout>,
    ) -> Self {
        let tier = GcsTier {
            predictor: SyncPredictor::new(SyncPredictor::DEFAULT_SLOTS),
            remote_watch: None,
            notify_buf: None,
        };
        Self::with_tier(id, geometry, banks, SyncTier::Gcs(tier), layout)
    }

    fn gcs(&self) -> Option<&GcsTier> {
        match &self.tier {
            SyncTier::Gcs(g) => Some(g),
            SyncTier::Backoff(_) => None,
        }
    }

    fn gcs_mut(&mut self) -> Option<&mut GcsTier> {
        match &mut self.tier {
            SyncTier::Gcs(g) => Some(g),
            SyncTier::Backoff(_) => None,
        }
    }

    /// Whether this L1 predicts `word` is sync-classified at its bank
    /// (always false outside GCS).
    pub fn predicts_sync(&self, word: WordAddr) -> bool {
        self.gcs().is_some_and(|g| g.predictor.contains(word))
    }

    /// The word this L1 is remote-watching, if any (invariant checking).
    pub fn remote_watch_word(&self) -> Option<WordAddr> {
        self.gcs().and_then(|g| g.remote_watch.map(|(w, _)| w))
    }

    /// Whether a bank recall is parked on `word`'s MSHR entry.
    pub fn has_parked_recall(&self, word: WordAddr) -> bool {
        self.mshr.get(&word).is_some_and(|p| p.recall_parked())
    }

    /// Records `word` as sync-classified (idempotent) and emits the
    /// data→sync classification transition the first time.
    fn learn(&mut self, word: WordAddr, cause: &'static str) {
        if !self.predicts_sync(word) {
            self.emit_transition(word, "data", "sync", cause);
        }
        if let Some(g) = self.gcs_mut() {
            g.predictor.insert(word);
        }
    }

    /// Arms a level-triggered remote watch for a classified word and sends
    /// the `SyncWatch` to the home bank. `seen` is the value the failed
    /// spin observed — the bank notifies immediately if it already differs.
    pub fn start_remote_watch(&mut self, word: WordAddr, seen: u64, actions: &mut Vec<Action>) {
        let g = self.gcs_mut().expect("remote watches are a GCS mechanism");
        g.remote_watch = Some((word, seen));
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::SyncWatch {
                word,
                req: self.id,
                seen,
            }),
        });
    }

    /// Hook: a spin load consumes a pending notification for `word`.
    pub(crate) fn take_notified(&mut self, word: WordAddr) -> Option<u64> {
        let g = self.gcs_mut()?;
        let (w, value) = g.notify_buf?;
        if w != word {
            return None;
        }
        g.notify_buf = None;
        Some(value)
    }

    /// Hook: sends `access` down the dedicated sync path — a `SyncOp`
    /// executed at the home bank, awaited in a `SyncWait` MSHR entry.
    pub(crate) fn start_sync_op(
        &mut self,
        word: WordAddr,
        access: AccessKind,
        actions: &mut Vec<Action>,
    ) {
        let (complete, op) = sync_op_for(access);
        self.mshr
            .try_insert(word, self.pend(PendKind::SyncWait { complete }))
            .expect("fresh mshr");
        self.send_sync_op(word, op, actions);
    }

    fn send_sync_op(&mut self, word: WordAddr, op: GcsOpKind, actions: &mut Vec<Action>) {
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::SyncOp {
                word,
                req: self.id,
                op,
            }),
        });
    }

    /// Handles an incoming dedicated-path (GCS) message.
    pub fn on_gcs(&mut self, msg: GcsMsg, actions: &mut Vec<Action>) {
        if self.gcs().is_none() {
            actions.push(Action::violation(format!(
                "L1 {} cannot handle {msg:?}",
                self.id
            )));
            return;
        }
        match msg {
            GcsMsg::Classified { word } => self.on_classified(word, actions),
            GcsMsg::SyncResp { word, value } => self.on_sync_resp(word, value, actions),
            GcsMsg::SyncNotify { word, value } => {
                self.learn(word, "SyncNotify");
                let g = self.gcs_mut().expect("checked above");
                if g.remote_watch.map(|(w, _)| w) == Some(word) {
                    g.remote_watch = None;
                    g.notify_buf = Some((word, value));
                    actions.push(Action::SpinWake);
                } else {
                    actions.push(Action::violation(format!(
                        "L1 {}: SyncNotify for {word} without a remote watch",
                        self.id
                    )));
                }
            }
            GcsMsg::Recall { word } => self.on_recall(word, actions),
            other => actions.push(Action::violation(format!(
                "L1 {} cannot handle {other:?}",
                self.id
            ))),
        }
    }

    /// Hook: the bank rejected our optimistic registration because the word
    /// is sync-classified. Convert the pending access to the dedicated path.
    fn on_classified(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        self.learn(word, "Classified");
        let Some(pend) = self.mshr.get(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: Classified without pending registration for {word}",
                self.id
            )));
            return;
        };
        if pend.parked_xfer.is_some() || pend.recall_parked() {
            actions.push(Action::violation(format!(
                "L1 {}: Classified for {word} with a parked transfer or recall",
                self.id
            )));
            return;
        }
        let kind = pend.kind;
        let access = match kind {
            PendKind::SyncRead => AccessKind::SyncLoad,
            PendKind::SyncWrite { value } => AccessKind::SyncStore { value },
            PendKind::Rmw { op } => AccessKind::SyncRmw(op),
            PendKind::Write => {
                // The optimistic store set the word Registered locally; the
                // directory owns classified words, so undo and re-execute
                // there.
                let value = self
                    .word_mut(word)
                    .filter(|w| w.state == WState::Registered)
                    .map(|w| {
                        w.state = WState::Invalid;
                        w.value
                    })
                    .expect("write-registered word resident");
                self.emit_transition(word, "R", "I", "Classified");
                AccessKind::DataStore { value }
            }
            other => {
                actions.push(Action::violation(format!(
                    "L1 {}: Classified for {word} with {other:?} pending",
                    self.id
                )));
                return;
            }
        };
        let (complete, op) = sync_op_for(access);
        self.mshr.get_mut(&word).expect("checked above").kind = PendKind::SyncWait { complete };
        self.send_sync_op(word, op, actions);
    }

    /// The bank executed our `SyncOp`.
    fn on_sync_resp(&mut self, word: WordAddr, value: u64, actions: &mut Vec<Action>) {
        let Some(pend) = self.mshr.remove(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: SyncResp without pending sync op for {word}",
                self.id
            )));
            return;
        };
        let PendKind::SyncWait { complete } = pend.kind else {
            actions.push(Action::violation(format!(
                "L1 {}: SyncResp for {word} with {:?} pending",
                self.id, pend.kind
            )));
            return;
        };
        if pend.parked_xfer.is_some() || pend.recall_parked() {
            actions.push(Action::violation(format!(
                "L1 {}: SyncResp for {word} with a parked transfer or recall",
                self.id
            )));
            return;
        }
        let stored = match complete {
            SyncComplete::Load => {
                actions.push(Action::CoreDone { value: Some(value) });
                value
            }
            SyncComplete::Store { value: v } => {
                actions.push(Action::CoreDone { value: None });
                v
            }
            SyncComplete::Rmw { op } => {
                actions.push(Action::CoreDone { value: Some(value) });
                op.apply(value)
            }
            SyncComplete::DataStore { value: v } => {
                actions.push(Action::StoresDone { count: 1 });
                v
            }
        };
        // Keep any stale Valid copy program-order consistent with our own
        // completed operation.
        if let Some(w) = self.word_mut(word) {
            if w.state == WState::Valid {
                w.value = stored;
            }
        }
        self.serve_reads(word, stored, &pend.parked_reads, actions);
    }

    /// The bank reclaims a newly classified word we are registered for.
    fn on_recall(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        self.learn(word, "Recall");
        if let Some(pend) = self.mshr.get_mut(&word) {
            match pend.kind {
                // Our writeback is already in flight; the bank accepts it
                // as the recall return.
                PendKind::Wb { .. } => {}
                PendKind::SyncRead
                | PendKind::SyncWrite { .. }
                | PendKind::Rmw { .. }
                | PendKind::Write => {
                    if pend.recall_parked() || pend.parked_xfer.is_some() {
                        actions.push(Action::violation(format!(
                            "L1 {}: second recall/transfer parked for {word}",
                            self.id
                        )));
                        return;
                    }
                    pend.parked_recall = Some(true);
                }
                PendKind::Read | PendKind::SyncWait { .. } => {
                    actions.push(Action::violation(format!(
                        "L1 {}: Recall for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                }
            }
            return;
        }
        // `None`: ownership had already moved on (our writeback raced
        // ahead); the bank ignores such stale acks.
        let value = self.downgrade(word, None, actions);
        self.send_recall_ack(word, value, actions);
    }

    /// Hook: the registration a recall parked behind has completed with
    /// `owned_value`; surrender the word to the bank.
    pub(crate) fn surrender_recalled(
        &mut self,
        word: WordAddr,
        cached: bool,
        owned_value: u64,
        actions: &mut Vec<Action>,
    ) {
        let value = if cached {
            self.downgrade(word, None, actions)
                .expect("word registered by this ack")
        } else {
            owned_value
        };
        self.learn(word, "Recall");
        self.send_recall_ack(word, Some(value), actions);
    }

    fn send_recall_ack(&self, word: WordAddr, value: Option<u64>, actions: &mut Vec<Action>) {
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::RecallAck {
                word,
                from: self.id,
                value,
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{DnvMsg, XferClass};
    use crate::proto::IssueResult;
    use dvs_mem::{Addr, LayoutBuilder};
    use dvs_vm::MemRequest;

    fn layout() -> Arc<MemoryLayout> {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 16, r);
        Arc::new(b.build())
    }

    fn l1() -> DnvL1 {
        DnvL1::new_gcs(0, CacheGeometry::new(1024, 2), 4, layout())
    }

    fn req(addr: u64, kind: AccessKind) -> MemRequest {
        MemRequest {
            addr: Addr::new(addr),
            kind,
            dst: None,
            spin: None,
        }
    }

    fn word(addr: u64) -> WordAddr {
        Addr::new(addr).word()
    }

    #[test]
    fn unclassified_sync_access_registers_optimistically() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Miss
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Dnv(DnvMsg::RegReq {
                    class: XferClass::SyncRead,
                    ..
                }),
                ..
            }
        ));
        acts.clear();
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 7,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(7) }));
        assert!(l1.word_registered(word(0x100)));
    }

    #[test]
    fn classified_rejection_converts_to_sync_op() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        assert!(l1.predicts_sync(word(0x100)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncOp {
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        // The bank executed the RMW on old value 10: core sees 10.
        l1.on_gcs(
            GcsMsg::SyncResp {
                word: word(0x100),
                value: 10,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        assert_eq!(l1.outstanding_txns(), 0);
    }

    #[test]
    fn predicted_sync_access_skips_registration() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        acts.clear();
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        l1.on_gcs(
            GcsMsg::SyncResp {
                word: word(0x100),
                value: 1,
            },
            &mut acts,
        );
        acts.clear();
        // Second access goes straight down the dedicated path.
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::SyncStore { value: 9 }),
                false,
                &mut acts
            ),
            IssueResult::Miss
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncOp {
                    op: GcsOpKind::Store { value: 9 },
                    ..
                }),
                ..
            }
        ));
    }

    #[test]
    fn converted_data_store_invalidates_local_copy_and_retires() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 5 }),
                false,
                &mut acts
            ),
            IssueResult::StoreAccepted { completed: false }
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Registered);
        acts.clear();
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncOp {
                    op: GcsOpKind::Store { value: 5 },
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        l1.on_gcs(
            GcsMsg::SyncResp {
                word: word(0x100),
                value: 5,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
    }

    #[test]
    fn recall_of_settled_word_returns_value_and_wakes_spinner() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 3,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        l1.set_watch(word(0x100));
        acts.clear();
        l1.on_gcs(GcsMsg::Recall { word: word(0x100) }, &mut acts);
        assert!(acts.contains(&Action::SpinWake));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::RecallAck { value: Some(3), .. }),
                ..
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(l1.predicts_sync(word(0x100)));
    }

    #[test]
    fn recall_parks_on_inflight_registration_and_serves_after_ack() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_gcs(GcsMsg::Recall { word: word(0x100) }, &mut acts);
        assert!(acts.is_empty(), "recall must park: {acts:?}");
        assert!(l1.has_parked_recall(word(0x100)));
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 10,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        // The post-RMW value 11 is surrendered to the bank.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::RecallAck {
                    value: Some(11),
                    ..
                }),
                ..
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert_eq!(l1.outstanding_txns(), 0);
    }

    #[test]
    fn notify_buffer_serves_the_reissued_spin_load() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        l1.start_remote_watch(word(0x100), 0, &mut acts);
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncWatch { seen: 0, .. }),
                ..
            }
        ));
        acts.clear();
        l1.on_gcs(
            GcsMsg::SyncNotify {
                word: word(0x100),
                value: 42,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::SpinWake));
        assert!(l1.remote_watch_word().is_none());
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Hit { value: Some(42) }
        );
        assert!(acts.is_empty(), "notify hit must not touch the network");
        // Consumed: the next spin load goes remote again.
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Miss
        );
    }

    #[test]
    fn recall_with_writeback_in_flight_defers_to_the_writeback() {
        let mut l1 = l1();
        let mut acts = Vec::new();
        for (a, v) in [(0x200u64, 1u64), (0x400, 2)] {
            l1.core_request(
                &req(a, AccessKind::DataStore { value: v }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(a),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
        }
        acts.clear();
        l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        acts.clear();
        // The recall crosses our in-flight WbReq: the bank will accept the
        // writeback as the recall return, so the L1 stays silent.
        l1.on_gcs(GcsMsg::Recall { word: word(0x200) }, &mut acts);
        assert!(acts.is_empty(), "{acts:?}");
        l1.on_msg(DnvMsg::WbAck { word: word(0x200) }, &mut acts);
        assert_eq!(l1.peek_registered(word(0x200)), None);
    }
}
