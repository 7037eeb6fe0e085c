//! GCS's bank sync tier.
//!
//! A GCS home bank *is* the DeNovo registry ([`crate::denovo::registry`]):
//! ordinary words are `Valid` at the bank or `Registered` to one L1, with
//! non-blocking re-points on racing registrations. The registry carries a
//! `SyncDirectory`, and this module holds everything it adds — **dynamic
//! classification**. When two cores contend for a word with
//! synchronization accesses (a sync-class registration hits a word
//! registered elsewhere, or a `SyncOp`/`SyncWatch` arrives), the bank
//! promotes the word to a *sync-classified* entry — permanently.
//! Classified words always live at the bank (`Valid`); sync operations
//! execute here atomically ([`GcsMsg::SyncOp`]), spinners park in a
//! per-word waiter set ([`GcsMsg::SyncWatch`]), and every value change
//! pushes targeted [`GcsMsg::SyncNotify`] wakeups — no writer-initiated
//! invalidations, no broadcast.
//!
//! Promotion of a currently-registered word runs a recall handshake: the
//! bank sends [`GcsMsg::Recall`], parks everything that arrives for the
//! word, and settles when the value comes back (via [`GcsMsg::RecallAck`]
//! or a crossing writeback, whichever wins the race).
//!
//! The registry enters the tier at two hooks: **dispatch** hands the tier
//! every sync-path message and every message for a classified word
//! (`DnvRegistry::on_sync_tier`), and a **sync-class registration that
//! contends** for a registered word is rejected with `Classified` instead
//! of re-pointed (`DnvRegistry::sync_contended`).

use crate::config::ProtocolMutation;
use crate::denovo::registry::{DnvRegistry, RegWord};
use crate::msg::{BankId, CoreId, DnvMsg, Endpoint, GcsMsg, GcsOpKind, Msg, XferClass};
use crate::proto::Action;
use dvs_mem::{LineAddr, WordAddr, WORDS_PER_LINE};
use dvs_telemetry::{Component, Event, EventKind, TelemetryKey};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Maximum cores a waiter set can track.
const MAX_WAITERS: usize = 256;

/// A dense per-word waiter set (one bit per core, up to 256 cores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct WaiterMask([u64; MAX_WAITERS / 64]);

impl WaiterMask {
    fn set(&mut self, core: CoreId) {
        assert!(
            core < MAX_WAITERS,
            "waiter mask supports {MAX_WAITERS} cores"
        );
        self.0[core / 64] |= 1 << (core % 64);
    }

    fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| i * 64 + b)
        })
    }

    /// Returns all set cores and clears the mask.
    fn drain(&mut self) -> Vec<CoreId> {
        let waiters: Vec<CoreId> = self.iter().collect();
        self.0 = [0; MAX_WAITERS / 64];
        waiters
    }
}

/// Directory state for one sync-classified word. Presence in the sync map
/// *is* the classification — entries are never removed.
#[derive(Debug, Clone, Hash)]
struct SyncEntry {
    /// Cores to wake on the next value change.
    waiters: WaiterMask,
    /// A recall handshake is reclaiming the word from its registrant.
    recalling: bool,
    /// Messages parked while recalling; drained FIFO once settled.
    pending: VecDeque<Msg>,
}

impl SyncEntry {
    fn new(recalling: bool) -> Self {
        SyncEntry {
            waiters: WaiterMask::default(),
            recalling,
            pending: VecDeque::new(),
        }
    }

    fn busy(&self) -> bool {
        self.recalling || !self.pending.is_empty()
    }
}

/// A GCS bank's sync tier: the sync-classified words it homes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncDirectory {
    /// Sync-classified words (sticky; sorted for canonical hash).
    entries: BTreeMap<WordAddr, SyncEntry>,
    /// Targeted wakeup notifications sent (metric).
    notifies: u64,
    /// Recall handshakes started (metric).
    recalls: u64,
}

/// Canonical hash: the classified words. The notify and recall counters
/// are metrics and excluded.
impl Hash for SyncDirectory {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.hash(state);
    }
}

impl DnvRegistry {
    /// Creates an empty GCS bank fetching lines through `mem`: the DeNovo
    /// registry with a sync directory.
    pub fn new_gcs(bank: BankId, mem: Endpoint) -> Self {
        let mut r = Self::new(bank, mem);
        r.sync = Some(SyncDirectory::default());
        r
    }

    fn dir(&self) -> Option<&SyncDirectory> {
        self.sync.as_ref()
    }

    fn dir_mut(&mut self) -> &mut SyncDirectory {
        self.sync.as_mut().expect("GCS sync tier")
    }

    fn entry_mut(&mut self, word: WordAddr) -> &mut SyncEntry {
        self.dir_mut()
            .entries
            .get_mut(&word)
            .expect("classified entry")
    }

    /// Whether this bank runs GCS's sync tier.
    pub fn has_sync_tier(&self) -> bool {
        self.sync.is_some()
    }

    /// Targeted wakeup notifications sent so far.
    pub fn notifies(&self) -> u64 {
        self.dir().map_or(0, |d| d.notifies)
    }

    /// Recall handshakes started so far.
    pub fn recalls(&self) -> u64 {
        self.dir().map_or(0, |d| d.recalls)
    }

    /// Whether `word` is sync-classified at this bank.
    pub fn classified(&self, word: WordAddr) -> bool {
        self.dir().is_some_and(|d| d.entries.contains_key(&word))
    }

    /// Which words of `line` are sync-classified here, as a mask (bit `i`
    /// for word `i`): one range probe of the sync map for the whole line.
    pub fn classified_mask(&self, line: LineAddr) -> u8 {
        self.dir().map_or(0, |d| {
            d.entries
                .range(line.word(0)..=line.word(WORDS_PER_LINE - 1))
                .fold(0, |m, (w, _)| m | 1 << w.index_in_line())
        })
    }

    /// Iterates every sync-classified word homed here.
    pub fn classified_words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        self.dir()
            .into_iter()
            .flat_map(|d| d.entries.keys().copied())
    }

    /// Whether a recall handshake is in flight for `word`.
    pub fn recalling(&self, word: WordAddr) -> bool {
        self.dir()
            .and_then(|d| d.entries.get(&word))
            .is_some_and(|e| e.recalling)
    }

    /// The cores currently parked in `word`'s waiter set, in ascending
    /// order.
    pub fn waiters_of(&self, word: WordAddr) -> impl Iterator<Item = CoreId> + '_ {
        self.dir()
            .and_then(|d| d.entries.get(&word))
            .into_iter()
            .flat_map(|e| e.waiters.iter())
    }

    /// Test-only corruption: sets `core`'s waiter bit on a classified
    /// `word`, arming nothing at the core (a no-op for any other word).
    #[cfg(test)]
    pub(crate) fn force_waiter(&mut self, word: WordAddr, core: CoreId) {
        if let Some(entry) = self.sync.as_mut().and_then(|d| d.entries.get_mut(&word)) {
            entry.waiters.set(core);
        }
    }

    /// Total parked waiters across all classified words.
    pub fn waiter_count(&self) -> usize {
        self.dir().map_or(0, |d| {
            d.entries.values().map(|e| e.waiters.iter().count()).sum()
        })
    }

    /// Whether any sync entry is mid-recall or holds parked messages (for
    /// quiescence checks).
    pub fn sync_busy(&self) -> bool {
        self.dir()
            .is_some_and(|d| d.entries.values().any(SyncEntry::busy))
    }

    /// Whether `word`'s sync entry is mid-recall or holds parked messages.
    pub(crate) fn sync_word_busy(&self, word: WordAddr) -> bool {
        self.dir()
            .and_then(|d| d.entries.get(&word))
            .is_some_and(SyncEntry::busy)
    }

    /// Appends `word`'s sync-entry state to a stall-report description.
    pub(crate) fn describe_sync(&self, word: WordAddr, s: &mut String) {
        if let Some(sync) = self.dir().and_then(|d| d.entries.get(&word)) {
            s.push_str(&format!(
                " sync[recalling={} waiters={} parked={}]",
                sync.recalling,
                sync.waiters.iter().count(),
                sync.pending.len()
            ));
        }
    }

    fn emit_classify(&self, word: WordAddr) {
        self.tel.emit(|| Event {
            cycle: self.tel.now(),
            node: self.bank as u32,
            component: Component::Dir,
            addr: word.telemetry_key(),
            kind: EventKind::Transition {
                from: "data",
                to: "sync",
                cause: "classify",
            },
        });
    }

    /// Hook: a sync-class registration by `req` hit `word` registered at
    /// `prev`. Sync-on-sync contention is what marks a word as a
    /// synchronization variable: classify it, recall it from `prev`, and
    /// reject the registration. Returns whether the tier took the request
    /// (never on DS0/DS, nor for plain data writes, which re-point).
    pub(crate) fn sync_contended(
        &mut self,
        word: WordAddr,
        prev: CoreId,
        req: CoreId,
        class: XferClass,
        actions: &mut Vec<Action>,
    ) -> bool {
        if self.sync.is_none() || !class.registers() || class == XferClass::Write {
            return false;
        }
        self.classify(word, prev, actions);
        actions.push(Action::Send {
            to: Endpoint::L1(req),
            msg: Msg::Gcs(GcsMsg::Classified { word }),
        });
        true
    }

    /// Hook: a message the sync tier owns — a sync-path message, or any
    /// message for a classified word.
    pub(crate) fn on_sync_tier(&mut self, msg: Msg, actions: &mut Vec<Action>) {
        let word = match &msg {
            Msg::Dnv(m) => m.word(),
            Msg::Gcs(m) => m.word(),
            _ => unreachable!("filtered by on_msg"),
        };
        match self
            .dir()
            .and_then(|d| d.entries.get(&word))
            .map(|e| e.recalling)
        {
            Some(true) => self.on_recalling(word, msg, actions),
            Some(false) => self.on_classified_word(word, msg, actions),
            None => self.on_unclassified_sync(word, msg, actions),
        }
    }

    /// A sync op can only reach an unclassified word when the sender's
    /// predictor outlives knowledge this bank never had (fresh bank state in
    /// unit tests); classify on demand.
    fn on_unclassified_sync(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        let req = match msg {
            Msg::Gcs(GcsMsg::SyncOp { req, .. }) | Msg::Gcs(GcsMsg::SyncWatch { req, .. }) => req,
            other => {
                actions.push(Action::violation(format!(
                    "registry bank {} cannot handle {other:?}",
                    self.bank
                )));
                return;
            }
        };
        match *self.word_slot(word) {
            RegWord::Registered(owner) => {
                if owner == req {
                    actions.push(Action::violation(format!(
                        "registry bank {}: sync op for {word} from its own registrant core {req}",
                        self.bank
                    )));
                    return;
                }
                self.classify(word, owner, actions);
                self.entry_mut(word).pending.push_back(msg);
            }
            RegWord::Valid(_) => {
                self.dir_mut().entries.insert(word, SyncEntry::new(false));
                self.emit_classify(word);
                self.on_classified_word(word, msg, actions);
            }
        }
    }

    /// A recall handshake is in flight: accept the returning value (a
    /// `RecallAck`, or the registrant's crossing writeback), park sync and
    /// read traffic, and turn registrations away immediately.
    fn on_recalling(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        match msg {
            // The registrant's eviction writeback crossed our recall:
            // accept it as the recall return (its L1 drops the recall).
            Msg::Dnv(DnvMsg::WbReq { value, from, .. }) => {
                if self.on_writeback(word, value, from, actions) {
                    self.settle_recall(word, actions);
                }
            }
            Msg::Gcs(GcsMsg::RecallAck { from, value, .. }) => {
                let RegWord::Registered(owner) = *self.word_slot(word) else {
                    actions.push(Action::violation(format!(
                        "registry bank {}: RecallAck for {word} the bank already holds",
                        self.bank
                    )));
                    return;
                };
                if owner != from {
                    actions.push(Action::violation(format!(
                        "registry bank {}: RecallAck for {word} from core {from}, \
                         registrant is core {owner}",
                        self.bank
                    )));
                    return;
                }
                let Some(value) = value else {
                    actions.push(Action::violation(format!(
                        "registry bank {}: registrant core {from} answered the recall of \
                         {word} without the value",
                        self.bank
                    )));
                    return;
                };
                *self.word_slot(word) = RegWord::Valid(value);
                self.settle_recall(word, actions);
            }
            // The word is classified; any registration attempt converts.
            Msg::Dnv(DnvMsg::RegReq { req, .. }) => actions.push(Action::Send {
                to: Endpoint::L1(req),
                msg: Msg::Gcs(GcsMsg::Classified { word }),
            }),
            Msg::Dnv(DnvMsg::ReadReq { .. })
            | Msg::Gcs(GcsMsg::SyncOp { .. })
            | Msg::Gcs(GcsMsg::SyncWatch { .. }) => {
                self.entry_mut(word).pending.push_back(msg);
            }
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?} while recalling {word}",
                self.bank
            ))),
        }
    }

    fn settle_recall(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        let entry = self.entry_mut(word);
        entry.recalling = false;
        let pending: Vec<Msg> = entry.pending.drain(..).collect();
        for m in pending {
            self.dispatch(m, actions);
        }
    }

    /// The word is classified and settled at the bank.
    fn on_classified_word(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        match msg {
            Msg::Gcs(GcsMsg::SyncOp { req, op, .. }) => self.exec_sync(word, req, op, actions),
            Msg::Gcs(GcsMsg::SyncWatch { req, seen, .. }) => self.watch(word, req, seen, actions),
            Msg::Dnv(DnvMsg::RegReq { req, .. }) => actions.push(Action::Send {
                to: Endpoint::L1(req),
                msg: Msg::Gcs(GcsMsg::Classified { word }),
            }),
            Msg::Dnv(DnvMsg::ReadReq { req, .. }) => {
                let RegWord::Valid(value) = *self.word_slot(word) else {
                    actions.push(Action::violation(format!(
                        "registry bank {}: classified word {word} registered away",
                        self.bank
                    )));
                    return;
                };
                self.serve_read(word, req, value, actions);
            }
            // A stale recall answer from a registrant whose writeback had
            // already returned the word; the handshake is long settled.
            Msg::Gcs(GcsMsg::RecallAck { value: None, .. }) => {}
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?} for classified word {word}",
                self.bank
            ))),
        }
    }

    /// Promotes `word` to sync-classified and starts recalling it from its
    /// current registrant.
    fn classify(&mut self, word: WordAddr, registrant: CoreId, actions: &mut Vec<Action>) {
        let dir = self.dir_mut();
        dir.entries.insert(word, SyncEntry::new(true));
        dir.recalls += 1;
        self.emit_classify(word);
        actions.push(Action::Send {
            to: Endpoint::L1(registrant),
            msg: Msg::Gcs(GcsMsg::Recall { word }),
        });
    }

    /// Executes a sync operation atomically at the bank and notifies the
    /// waiter set if the value changed.
    fn exec_sync(&mut self, word: WordAddr, req: CoreId, op: GcsOpKind, actions: &mut Vec<Action>) {
        let RegWord::Valid(old) = *self.word_slot(word) else {
            actions.push(Action::violation(format!(
                "registry bank {}: classified word {word} registered away during sync op",
                self.bank
            )));
            return;
        };
        let (stored, resp) = match op {
            GcsOpKind::Load => (old, old),
            GcsOpKind::Store { value } => (value, value),
            GcsOpKind::Rmw(o) => {
                let new = if self.mutation == Some(ProtocolMutation::GcsSkipUpdate) {
                    old
                } else {
                    o.apply(old)
                };
                (new, old)
            }
        };
        *self.word_slot(word) = RegWord::Valid(stored);
        actions.push(Action::Send {
            to: Endpoint::L1(req),
            msg: Msg::Gcs(GcsMsg::SyncResp { word, value: resp }),
        });
        if stored != old {
            self.notify_waiters(word, stored, req, actions);
        }
    }

    /// Arms a level-triggered watch: notify immediately if the value has
    /// already moved past what the spinner saw, otherwise park it.
    fn watch(&mut self, word: WordAddr, req: CoreId, seen: u64, actions: &mut Vec<Action>) {
        let RegWord::Valid(cur) = *self.word_slot(word) else {
            actions.push(Action::violation(format!(
                "registry bank {}: classified word {word} registered away during watch",
                self.bank
            )));
            return;
        };
        if cur != seen {
            if self.mutation != Some(ProtocolMutation::GcsDropNotify) {
                self.dir_mut().notifies += 1;
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Gcs(GcsMsg::SyncNotify { word, value: cur }),
                });
            }
            return;
        }
        self.entry_mut(word).waiters.set(req);
    }

    /// Pushes the new value to every parked waiter. The waiter set always
    /// clears — a half-cleared set would desynchronize the directory even
    /// under the drop-notify mutation.
    fn notify_waiters(
        &mut self,
        word: WordAddr,
        value: u64,
        writer: CoreId,
        actions: &mut Vec<Action>,
    ) {
        let waiters = self.entry_mut(word).waiters.drain();
        if waiters.is_empty() {
            return;
        }
        if self.mutation != Some(ProtocolMutation::GcsDropNotify) {
            for &c in &waiters {
                self.dir_mut().notifies += 1;
                actions.push(Action::Send {
                    to: Endpoint::L1(c),
                    msg: Msg::Gcs(GcsMsg::SyncNotify { word, value }),
                });
            }
        }
        self.tel.emit(|| Event {
            cycle: self.tel.now(),
            node: self.bank as u32,
            component: Component::Dir,
            addr: word.telemetry_key(),
            kind: EventKind::Notify {
                writer: writer as u32,
                waiters: waiters.len() as u32,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_mem::RmwOp;

    fn word(i: u64) -> WordAddr {
        WordAddr::new(64 + i)
    }

    fn warmed() -> DnvRegistry {
        let mut b = DnvRegistry::new_gcs(0, Endpoint::Mem(0));
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Dnv(DnvMsg::ReadReq {
                word: word(0),
                req: 9,
            }),
            &mut acts,
        );
        let mut data = [0u64; 8];
        data[0] = 100;
        data[1] = 101;
        b.on_mem_data(word(0).line(), data, &mut acts);
        b
    }

    fn reg(b: &mut DnvRegistry, w: WordAddr, core: CoreId, class: XferClass) {
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: w,
                req: core,
                class,
            }),
            &mut acts,
        );
        assert_eq!(b.word(w), Some(RegWord::Registered(core)));
    }

    #[test]
    fn sync_contention_classifies_and_recalls() {
        let mut b = warmed();
        reg(&mut b, word(2), 1, XferClass::SyncWrite);
        let mut acts = Vec::new();
        // Core 4's sync read contends: the word becomes a sync variable.
        b.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(2),
                req: 4,
                class: XferClass::SyncRead,
            }),
            &mut acts,
        );
        assert!(b.classified(word(2)) && b.recalling(word(2)));
        assert_eq!(b.recalls(), 1);
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(1),
            msg: Msg::Gcs(GcsMsg::Recall { word: word(2) }),
        }));
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(4),
            msg: Msg::Gcs(GcsMsg::Classified { word: word(2) }),
        }));
        acts.clear();
        // A read parks behind the recall.
        b.on_msg(
            Msg::Dnv(DnvMsg::ReadReq {
                word: word(2),
                req: 6,
            }),
            &mut acts,
        );
        assert!(acts.is_empty());
        // The registrant returns the value; parked traffic drains.
        b.on_msg(
            Msg::Gcs(GcsMsg::RecallAck {
                word: word(2),
                from: 1,
                value: Some(55),
            }),
            &mut acts,
        );
        assert!(!b.recalling(word(2)));
        assert_eq!(b.word(word(2)), Some(RegWord::Valid(55)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(6),
                msg: Msg::Dnv(DnvMsg::ReadResp { value: 55, .. }),
            }
        )));
    }

    #[test]
    fn data_write_contention_repoints_without_classifying() {
        let mut b = warmed();
        reg(&mut b, word(3), 1, XferClass::Write);
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(3),
                req: 2,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        assert!(!b.classified(word(3)));
        assert_eq!(b.word(word(3)), Some(RegWord::Registered(2)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 2, .. }),
            }
        )));
    }

    #[test]
    fn sync_op_executes_at_bank_and_notifies_waiters() {
        let mut b = warmed();
        let mut acts = Vec::new();
        // RMW on a bank-held word classifies on demand and executes.
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 2,
                op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
            }),
            &mut acts,
        );
        assert!(b.classified(word(1)));
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(2),
            msg: Msg::Gcs(GcsMsg::SyncResp {
                word: word(1),
                value: 101,
            }),
        }));
        assert_eq!(b.word(word(1)), Some(RegWord::Valid(102)));
        acts.clear();
        // Core 5 watches the value it just saw: parked, no notify yet.
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncWatch {
                word: word(1),
                req: 5,
                seen: 102,
            }),
            &mut acts,
        );
        assert!(acts.is_empty());
        assert_eq!(b.waiters_of(word(1)).collect::<Vec<_>>(), vec![5]);
        // A store changes the value: targeted notify, set cleared.
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 3,
                op: GcsOpKind::Store { value: 7 },
            }),
            &mut acts,
        );
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(5),
            msg: Msg::Gcs(GcsMsg::SyncNotify {
                word: word(1),
                value: 7,
            }),
        }));
        assert!(b.waiters_of(word(1)).collect::<Vec<_>>().is_empty());
        assert_eq!(b.notifies(), 1);
    }

    #[test]
    fn stale_watch_notifies_immediately() {
        let mut b = warmed();
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 2,
                op: GcsOpKind::Load,
            }),
            &mut acts,
        );
        acts.clear();
        // The spinner saw 0 but the word is 101: immediate wakeup, no bit.
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncWatch {
                word: word(1),
                req: 5,
                seen: 0,
            }),
            &mut acts,
        );
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(5),
            msg: Msg::Gcs(GcsMsg::SyncNotify {
                word: word(1),
                value: 101,
            }),
        }));
        assert!(b.waiters_of(word(1)).collect::<Vec<_>>().is_empty());
    }

    #[test]
    fn crossing_writeback_settles_the_recall() {
        let mut b = warmed();
        reg(&mut b, word(2), 1, XferClass::Write);
        let mut acts = Vec::new();
        // A sync op from core 3 starts the recall of core 1's registration.
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(2),
                req: 3,
                op: GcsOpKind::Load,
            }),
            &mut acts,
        );
        assert!(b.recalling(word(2)));
        acts.clear();
        // Core 1's eviction writeback crossed the recall in flight: the
        // bank accepts it as the recall return and serves the parked op.
        b.on_msg(
            Msg::Dnv(DnvMsg::WbReq {
                word: word(2),
                value: 88,
                from: 1,
            }),
            &mut acts,
        );
        assert!(!b.recalling(word(2)));
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(1),
            msg: Msg::Dnv(DnvMsg::WbAck { word: word(2) }),
        }));
        assert!(acts.contains(&Action::Send {
            to: Endpoint::L1(3),
            msg: Msg::Gcs(GcsMsg::SyncResp {
                word: word(2),
                value: 88,
            }),
        }));
    }

    #[test]
    fn registration_of_classified_word_is_rejected() {
        let mut b = warmed();
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 2,
                op: GcsOpKind::Load,
            }),
            &mut acts,
        );
        acts.clear();
        b.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(1),
                req: 7,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        assert_eq!(
            acts,
            vec![Action::Send {
                to: Endpoint::L1(7),
                msg: Msg::Gcs(GcsMsg::Classified { word: word(1) }),
            }]
        );
        assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
    }

    #[test]
    fn skip_update_mutation_loses_the_rmw() {
        let mut b = warmed();
        b.set_mutation(Some(ProtocolMutation::GcsSkipUpdate));
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 2,
                op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
            }),
            &mut acts,
        );
        // The old value comes back but the increment is lost.
        assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
    }

    #[test]
    fn drop_notify_mutation_strands_waiters() {
        let mut b = warmed();
        b.set_mutation(Some(ProtocolMutation::GcsDropNotify));
        let mut acts = Vec::new();
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 2,
                op: GcsOpKind::Load,
            }),
            &mut acts,
        );
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncWatch {
                word: word(1),
                req: 5,
                seen: 101,
            }),
            &mut acts,
        );
        acts.clear();
        b.on_msg(
            Msg::Gcs(GcsMsg::SyncOp {
                word: word(1),
                req: 3,
                op: GcsOpKind::Store { value: 9 },
            }),
            &mut acts,
        );
        // The store completes but the wakeup never leaves the bank.
        assert!(!acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncNotify { .. }),
                ..
            }
        )));
        assert_eq!(b.notifies(), 0);
        assert!(b.waiters_of(word(1)).collect::<Vec<_>>().is_empty());
    }
}
