//! The DeNovo private-cache (L1) controller, shared by DeNovoSync0,
//! DeNovoSync and GCS.
//!
//! Per-word states Invalid / Valid / Registered; no transient states in the
//! array — in-flight work lives in word-granularity MSHRs. Key behaviours
//! from the paper:
//!
//! * data writes transition to Registered **immediately** (no stall) and
//!   send a registration request;
//! * synchronization reads to anything but Registered state always miss and
//!   register (DeNovoSync0's single-reader rule);
//! * a forwarded request arriving while the word's own registration is
//!   pending parks in the MSHR — the distributed registration queue;
//! * under DeNovoSync, a remote synchronization-read registration downgrades
//!   Registered → Valid and bumps the backoff counter; a later local
//!   synchronization read to Valid state stalls for the counter value
//!   before issuing its miss;
//! * evicting a Registered word uses a writeback *handshake* (`WbReq` /
//!   `WbAck` / `WbNack`): the registry may have already re-pointed the word
//!   at a new registrant, in which case the in-flight transfer must still be
//!   served from the held value.
//!
//! Synchronization policy lives in the L1's `SyncTier`: DeNovoSync0 and
//! DeNovoSync carry the hardware [`BackoffUnit`] (disabled on DS0); GCS
//! carries its sync tier instead, entered from this data path at a few
//! named hooks — see [`crate::gcs::l1`].

use crate::config::BackoffConfig;
use crate::denovo::backoff::BackoffUnit;
use crate::gcs::l1::{GcsTier, SyncComplete};
use crate::msg::{CoreId, DnvMsg, Endpoint, Msg, XferClass};
use crate::proto::{Action, IssueResult};
use dvs_mem::array::InsertOutcome;
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{
    AccessKind, CacheArray, CacheGeometry, LineAddr, Mshr, Region, RmwOp, WordAddr, WORDS_PER_LINE,
};
use dvs_stats::CacheStats;
use dvs_telemetry::{Component, Event, EventKind, Telemetry, TelemetryKey};
use dvs_vm::MemRequest;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Per-word coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WState {
    /// No usable copy.
    Invalid,
    /// A (possibly stale) copy; usable by data reads, never by
    /// synchronization reads. Under DeNovoSync also the backoff trigger.
    Valid,
    /// The registered (single up-to-date) copy; readable and writable.
    Registered,
}

impl WState {
    /// Short state label for telemetry transitions.
    pub fn label(self) -> &'static str {
        match self {
            WState::Invalid => "I",
            WState::Valid => "V",
            WState::Registered => "R",
        }
    }
}

/// One cached word.
#[derive(Debug, Clone, Copy, Hash)]
pub struct DnvWord {
    /// Coherence state.
    pub state: WState,
    /// The word's value (meaningful unless Invalid).
    pub value: u64,
}

/// A cached line: eight independently-tracked words.
#[derive(Debug, Clone, Hash)]
pub struct DnvLine {
    /// The line's words.
    pub words: [DnvWord; WORDS_PER_LINE],
}

impl DnvLine {
    pub(crate) fn empty() -> Self {
        DnvLine {
            words: [DnvWord {
                state: WState::Invalid,
                value: 0,
            }; WORDS_PER_LINE],
        }
    }

    pub(crate) fn has_registered(&self) -> bool {
        self.words.iter().any(|w| w.state == WState::Registered)
    }
}

/// What an MSHR entry is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PendKind {
    /// Non-ownership data read.
    Read,
    /// Synchronization-read registration.
    SyncRead,
    /// Data-write registration (the word is already Registered locally).
    Write,
    /// Synchronization-write registration; holds the value to store.
    SyncWrite { value: u64 },
    /// RMW registration; executes on arrival of the current value.
    Rmw { op: RmwOp },
    /// Writeback handshake in flight; holds the evicted value. `nacked`
    /// means the registry refused (ownership moved) and we are waiting for
    /// the in-flight transfer.
    Wb { value: u64, nacked: bool },
    /// GCS: a sync operation is executing at the home bank.
    SyncWait { complete: SyncComplete },
}

/// One outstanding word-granularity transaction.
#[derive(Debug, Clone)]
pub(crate) struct Pend {
    pub(crate) kind: PendKind,
    /// Forwarded data reads that arrived while we were pending.
    pub(crate) parked_reads: Vec<CoreId>,
    /// A forwarded registration transfer that arrived while we were pending
    /// (at most one: the registry serializes, and each registrant has
    /// exactly one successor).
    pub(crate) parked_xfer: Option<(CoreId, XferClass)>,
    /// GCS: whether a bank `Recall` arrived while our own registration was
    /// in flight (served right after the operation completes). `None` under
    /// DeNovoSync0/DeNovoSync, which have no recalls.
    pub(crate) parked_recall: Option<bool>,
}

impl Pend {
    /// Whether a GCS recall is parked on this entry.
    pub(crate) fn recall_parked(&self) -> bool {
        self.parked_recall == Some(true)
    }
}

/// Canonical hash. `parked_recall` hashes only where it exists (GCS), so
/// each protocol's fingerprint stream is that of its own entry layout.
impl Hash for Pend {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.parked_reads.hash(state);
        self.parked_xfer.hash(state);
        if let Some(parked) = self.parked_recall {
            parked.hash(state);
        }
    }
}

/// The synchronization policy the shared data path defers to.
#[derive(Debug, Clone)]
pub(crate) enum SyncTier {
    /// DeNovoSync0 / DeNovoSync: the hardware backoff unit (disabled on DS0).
    Backoff(BackoffUnit),
    /// GCS: sync-word prediction, the remote watch and the notify buffer.
    Gcs(GcsTier),
}

/// The DeNovo L1 controller for one core.
#[derive(Debug, Clone)]
pub struct DnvL1 {
    pub(crate) id: CoreId,
    banks: usize,
    cache: CacheArray<DnvLine>,
    pub(crate) mshr: Mshr<WordAddr, Pend>,
    pub(crate) tier: SyncTier,
    watch: Option<WordAddr>,
    layout: Arc<MemoryLayout>,
    stats: CacheStats,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    tel: Telemetry,
}

fn bank_for(word: WordAddr, banks: usize) -> usize {
    (word.line().raw() % banks as u64) as usize
}

impl DnvL1 {
    /// Creates an empty L1 for core `id`. `backoff_enabled` selects
    /// DeNovoSync (true) vs DeNovoSync0 (false).
    pub fn new(
        id: CoreId,
        geometry: CacheGeometry,
        banks: usize,
        backoff_cfg: BackoffConfig,
        backoff_enabled: bool,
        layout: Arc<MemoryLayout>,
    ) -> Self {
        let tier = SyncTier::Backoff(BackoffUnit::new(backoff_cfg, backoff_enabled));
        Self::with_tier(id, geometry, banks, tier, layout)
    }

    pub(crate) fn with_tier(
        id: CoreId,
        geometry: CacheGeometry,
        banks: usize,
        tier: SyncTier,
        layout: Arc<MemoryLayout>,
    ) -> Self {
        DnvL1 {
            id,
            banks,
            cache: CacheArray::new(geometry),
            mshr: Mshr::unbounded(),
            tier,
            watch: None,
            layout,
            stats: CacheStats::new(),
            tel: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle (word-state transitions, registrations,
    /// MSHR occupancy).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.mshr.set_telemetry(tel.clone(), self.id as u32);
        self.tel = tel;
    }

    /// Peak simultaneous MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshr.high_water()
    }

    pub(crate) fn emit_transition(
        &self,
        word: WordAddr,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        self.tel.emit(|| Event {
            cycle: self.tel.now(),
            node: self.id as u32,
            component: Component::L1,
            addr: word.telemetry_key(),
            kind: EventKind::Transition { from, to, cause },
        });
    }

    /// Cache-access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The backoff unit (diagnostics / ablation reporting).
    ///
    /// # Panics
    ///
    /// Panics on a GCS L1, which has no hardware backoff.
    pub fn backoff(&self) -> &BackoffUnit {
        match &self.tier {
            SyncTier::Backoff(b) => b,
            SyncTier::Gcs(_) => panic!("GCS L1s have no backoff unit"),
        }
    }

    fn backoff_mut(&mut self) -> Option<&mut BackoffUnit> {
        match &mut self.tier {
            SyncTier::Backoff(b) => Some(b),
            SyncTier::Gcs(_) => None,
        }
    }

    /// A fresh MSHR entry for this L1's protocol.
    pub(crate) fn pend(&self, kind: PendKind) -> Pend {
        Pend {
            kind,
            parked_reads: Vec::new(),
            parked_xfer: None,
            parked_recall: matches!(self.tier, SyncTier::Gcs(_)).then_some(false),
        }
    }

    /// Sets the spin-watched word.
    pub fn set_watch(&mut self, word: WordAddr) {
        self.watch = Some(word);
    }

    /// Clears the spin watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// Whether a synchronization read of `word` would hit right now (the
    /// word is Registered with no writeback pending) — used by the system to
    /// decide between watching and re-issuing a failed spin.
    pub fn word_registered(&self, word: WordAddr) -> bool {
        !self.mshr.contains(&word) && self.word_state(word) == WState::Registered
    }

    /// One line's word masks for the delivery-boundary check: bit `i` of
    /// the first is set when word `i` is Registered in the array, bit `i`
    /// of the second when word `i` has an MSHR entry. A word is a settled
    /// registrant ([`DnvL1::word_registered`]) exactly when its bit is in
    /// `registered & !pending`.
    pub fn line_masks(&self, line: LineAddr) -> (u8, u8) {
        let registered = self.cache.get(line).map_or(0, |l| {
            l.words
                .iter()
                .enumerate()
                .filter(|(_, w)| w.state == WState::Registered)
                .fold(0, |m, (i, _)| m | 1 << i)
        });
        let pending = self
            .mshr
            .range(line.word(0)..=line.word(WORDS_PER_LINE - 1))
            .fold(0, |m, (w, _)| m | 1 << w.index_in_line());
        (registered, pending)
    }

    /// The word's current state (Invalid if the line is absent).
    pub fn word_state(&self, word: WordAddr) -> WState {
        self.cache
            .get(word.line())
            .map_or(WState::Invalid, |l| l.words[word.index_in_line()].state)
    }

    /// The value of a word this core is responsible for (Registered in the
    /// array, or held by a writeback handshake), if any.
    pub fn peek_registered(&self, word: WordAddr) -> Option<u64> {
        if let Some(Pend {
            kind: PendKind::Wb { value, .. },
            ..
        }) = self.mshr.get(&word)
        {
            return Some(*value);
        }
        let line = self.cache.get(word.line())?;
        let w = line.words[word.index_in_line()];
        (w.state == WState::Registered).then_some(w.value)
    }

    /// Iterates every word this L1 holds in Registered state (for invariant
    /// checking).
    pub fn registered_words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        self.cache.iter().flat_map(|(line, payload)| {
            payload
                .words
                .iter()
                .enumerate()
                .filter(|(_, w)| w.state == WState::Registered)
                .map(move |(i, _)| line.word(i))
        })
    }

    /// Number of outstanding MSHR transactions.
    pub fn outstanding_txns(&self) -> usize {
        self.mshr.len()
    }

    /// Test-only corruption: forces `word`'s array state, installing its
    /// line if absent, without touching the MSHR or telling the registry.
    #[cfg(test)]
    pub(crate) fn force_word_state(&mut self, word: WordAddr, state: WState) {
        if !self.cache.contains(word.line()) {
            let _ = self
                .cache
                .insert_filtered(word.line(), DnvLine::empty(), |_, _| false);
        }
        let line = self.cache.get_mut(word.line()).expect("line installed");
        line.words[word.index_in_line()].state = state;
    }

    /// Whether a forwarded registration transfer is parked on `word`'s MSHR
    /// entry — the in-L1 link of the distributed registration queue.
    pub fn has_parked_xfer(&self, word: WordAddr) -> bool {
        self.mshr
            .get(&word)
            .is_some_and(|p| p.parked_xfer.is_some())
    }

    /// One `(word, description)` pair per outstanding MSHR entry (stall
    /// diagnostics and conservation checking).
    pub fn pending_summaries(&self) -> Vec<(WordAddr, String)> {
        self.mshr
            .iter()
            .map(|(w, p)| {
                let mut desc = format!("{:?}", p.kind);
                if !p.parked_reads.is_empty() {
                    desc.push_str(&format!(", {} parked read(s)", p.parked_reads.len()));
                }
                if let Some((c, class)) = p.parked_xfer {
                    desc.push_str(&format!(", parked xfer to core {c} ({class:?})"));
                }
                if p.recall_parked() {
                    desc.push_str(", parked recall");
                }
                (*w, desc)
            })
            .collect()
    }

    /// Self-invalidates every Valid word belonging to `region` (Registered
    /// words are untouched — "registered data stays in the cache across
    /// synchronization boundaries").
    pub fn self_invalidate(&mut self, region: Region) {
        let layout = Arc::clone(&self.layout);
        for (line, payload) in self.cache.iter_mut() {
            for i in 0..WORDS_PER_LINE {
                if payload.words[i].state == WState::Valid
                    && layout.region_of_word(line.word(i)) == Some(region)
                {
                    payload.words[i].state = WState::Invalid;
                }
            }
        }
    }

    /// Self-invalidates exactly the given words (signature mode): each one
    /// that is cached Valid becomes Invalid; Registered words are untouched.
    pub fn self_invalidate_words(&mut self, words: &[WordAddr]) {
        for &word in words {
            if let Some(line) = self.cache.get_mut(word.line()) {
                let w = &mut line.words[word.index_in_line()];
                if w.state == WState::Valid {
                    w.state = WState::Invalid;
                }
            }
        }
    }

    pub(crate) fn home(&self, word: WordAddr) -> Endpoint {
        Endpoint::Bank(bank_for(word, self.banks))
    }

    pub(crate) fn word_mut(&mut self, word: WordAddr) -> Option<&mut DnvWord> {
        self.cache
            .get_mut(word.line())
            .map(|l| &mut l.words[word.index_in_line()])
    }

    /// Presents a core memory request. `after_backoff` marks the re-issue of
    /// a synchronization read whose hardware backoff has expired (it must
    /// not be delayed again).
    pub fn core_request(
        &mut self,
        req: &MemRequest,
        after_backoff: bool,
        actions: &mut Vec<Action>,
    ) -> IssueResult {
        let word = req.addr.word();
        match req.kind {
            AccessKind::DataLoad => {
                if let Some(Pend { kind, .. }) = self.mshr.get(&word) {
                    match kind {
                        PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                            return IssueResult::Blocked
                        }
                        PendKind::Write => { /* word is Registered locally: falls through to hit */
                        }
                        other => unreachable!("data load with own {other:?} pending"),
                    }
                }
                match self.word_state(word) {
                    WState::Valid | WState::Registered => {
                        let value = self.word_mut(word).expect("resident").value;
                        self.note_hit(req.kind);
                        IssueResult::Hit { value: Some(value) }
                    }
                    WState::Invalid => {
                        self.note_miss(req.kind);
                        self.mshr
                            .try_insert(word, self.pend(PendKind::Read))
                            .expect("fresh mshr");
                        actions.push(Action::Send {
                            to: self.home(word),
                            msg: Msg::Dnv(DnvMsg::ReadReq { word, req: self.id }),
                        });
                        IssueResult::Miss
                    }
                }
            }
            AccessKind::DataStore { value } => {
                if let Some(Pend { kind, .. }) = self.mshr.get(&word) {
                    match kind {
                        PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                            return IssueResult::Blocked
                        }
                        PendKind::Write => {
                            // Previous store's registration still in flight;
                            // the word is Registered locally — just update.
                            self.word_mut(word).expect("registered word").value = value;
                            self.note_hit(req.kind);
                            return IssueResult::StoreAccepted { completed: true };
                        }
                        other => unreachable!("data store with own {other:?} pending"),
                    }
                }
                if self.word_state(word) == WState::Registered {
                    self.word_mut(word).expect("resident").value = value;
                    self.note_hit(req.kind);
                    return IssueResult::StoreAccepted { completed: true };
                }
                if self.predicts_sync(word) {
                    // GCS: a classified word cannot be registered here; the
                    // store executes at its home bank.
                    self.note_miss(req.kind);
                    self.start_sync_op(word, req.kind, actions);
                    return IssueResult::StoreAccepted { completed: false };
                }
                // Immediate transition to Registered + registration request
                // (no transient state — the paper's write path).
                if !self.ensure_line(word.line(), actions) {
                    return IssueResult::Blocked;
                }
                self.note_miss(req.kind);
                let w = self.word_mut(word).expect("line just ensured");
                let from = w.state.label();
                w.state = WState::Registered;
                w.value = value;
                self.emit_transition(word, from, "R", "store");
                self.register(word, PendKind::Write, XferClass::Write, actions);
                IssueResult::StoreAccepted { completed: false }
            }
            AccessKind::SyncLoad => {
                if let Some(value) = self.take_notified(word) {
                    // GCS: the targeted notification answers the re-issued
                    // spin load without touching the network.
                    self.note_hit(req.kind);
                    return IssueResult::Hit { value: Some(value) };
                }
                if self.mshr.contains(&word) {
                    return IssueResult::Blocked; // writeback handshake in flight
                }
                match self.word_state(word) {
                    WState::Registered => {
                        let value = self.word_mut(word).expect("resident").value;
                        if let Some(b) = self.backoff_mut() {
                            b.on_sync_hit();
                        }
                        self.note_hit(req.kind);
                        IssueResult::Hit { value: Some(value) }
                    }
                    state => {
                        // DeNovoSync: a read to Valid state triggers backoff.
                        if state == WState::Valid && !after_backoff {
                            let delay = match &self.tier {
                                SyncTier::Backoff(b) => b.current(),
                                SyncTier::Gcs(_) => 0,
                            };
                            if delay > 0 {
                                return IssueResult::Backoff { cycles: delay };
                            }
                        }
                        self.note_miss(req.kind);
                        self.sync_miss(req, PendKind::SyncRead, XferClass::SyncRead, actions);
                        IssueResult::Miss
                    }
                }
            }
            AccessKind::SyncStore { value } => {
                if self.mshr.contains(&word) {
                    return IssueResult::Blocked;
                }
                if self.word_state(word) == WState::Registered {
                    self.word_mut(word).expect("resident").value = value;
                    if let Some(b) = self.backoff_mut() {
                        b.on_release();
                    }
                    self.note_hit(req.kind);
                    return IssueResult::Hit { value: None };
                }
                self.note_miss(req.kind);
                let kind = PendKind::SyncWrite { value };
                self.sync_miss(req, kind, XferClass::SyncWrite, actions);
                IssueResult::Miss
            }
            AccessKind::SyncRmw(op) => {
                if self.mshr.contains(&word) {
                    return IssueResult::Blocked;
                }
                if self.word_state(word) == WState::Registered {
                    let w = self.word_mut(word).expect("resident");
                    let old = w.value;
                    w.value = op.apply(old);
                    if let Some(b) = self.backoff_mut() {
                        b.on_sync_hit();
                    }
                    self.note_hit(req.kind);
                    return IssueResult::Hit { value: Some(old) };
                }
                self.note_miss(req.kind);
                self.sync_miss(req, PendKind::Rmw { op }, XferClass::SyncWrite, actions);
                IssueResult::Miss
            }
        }
    }

    /// Sends a synchronization miss to the home bank: the dedicated sync
    /// operation for a word GCS predicts is classified, a registration
    /// otherwise.
    fn sync_miss(
        &mut self,
        req: &MemRequest,
        kind: PendKind,
        class: XferClass,
        actions: &mut Vec<Action>,
    ) {
        let word = req.addr.word();
        if self.predicts_sync(word) {
            self.start_sync_op(word, req.kind, actions);
        } else {
            self.register(word, kind, class, actions);
        }
    }

    /// Opens an MSHR entry and sends the registration request.
    fn register(
        &mut self,
        word: WordAddr,
        kind: PendKind,
        class: XferClass,
        actions: &mut Vec<Action>,
    ) {
        self.mshr
            .try_insert(word, self.pend(kind))
            .expect("fresh mshr");
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Dnv(DnvMsg::RegReq {
                word,
                req: self.id,
                class,
            }),
        });
    }

    /// Handles an incoming protocol message.
    pub fn on_msg(&mut self, msg: DnvMsg, actions: &mut Vec<Action>) {
        match msg {
            DnvMsg::ReadReq { word, req } => {
                // A data read forwarded by the registry: we are (or were
                // about to become) the registrant.
                if let Some(pend) = self.mshr.get_mut(&word) {
                    if !matches!(pend.kind, PendKind::Write) {
                        pend.parked_reads.push(req);
                        return;
                    }
                }
                if self.word_state(word) != WState::Registered {
                    actions.push(Action::violation(format!(
                        "L1 {}: forwarded read for unregistered word {word}",
                        self.id
                    )));
                    return;
                }
                // DeNovo transfers data at line granularity: piggy-back the
                // line's other words registered here (they are equally
                // current), cutting the forwarded-read count for data that
                // was written together (original DeNovo [10]).
                let line = self
                    .cache
                    .get(word.line())
                    .expect("registered word resident");
                let idx = word.index_in_line();
                let value = line.words[idx].value;
                let mut mask = 0u8;
                let mut data = [0u64; WORDS_PER_LINE];
                for (i, w) in line.words.iter().enumerate() {
                    if i != idx && w.state == WState::Registered {
                        mask |= 1 << i;
                        data[i] = w.value;
                    }
                }
                let fill = (mask != 0).then_some((mask, data));
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Dnv(DnvMsg::ReadResp { word, value, fill }),
                });
            }
            DnvMsg::Xfer {
                word,
                new_owner,
                class,
            } => {
                if let Some(pend) = self.mshr.get_mut(&word) {
                    if matches!(pend.kind, PendKind::SyncWait { .. }) {
                        // GCS: the bank never re-points a classified word.
                        actions.push(Action::violation(format!(
                            "L1 {}: transfer for classified word {word}",
                            self.id
                        )));
                        return;
                    }
                    if let PendKind::Wb {
                        value,
                        nacked: true,
                    } = pend.kind
                    {
                        // The registry refused our writeback because this
                        // transfer was already on its way: serve and drop.
                        let reads = std::mem::take(&mut pend.parked_reads);
                        self.mshr.remove(&word);
                        self.serve_reads(word, value, &reads, actions);
                        actions.push(Action::Send {
                            to: Endpoint::L1(new_owner),
                            msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
                        });
                        return;
                    }
                    if pend.parked_xfer.is_some() || pend.recall_parked() {
                        actions.push(Action::violation(format!(
                            "L1: second transfer parked on one registration for {word}"
                        )));
                        return;
                    }
                    pend.parked_xfer = Some((new_owner, class));
                    return;
                }
                let Some(value) = self.downgrade(word, Some(class), actions) else {
                    actions.push(Action::violation(format!(
                        "L1 {}: transfer for unregistered word {word}",
                        self.id
                    )));
                    return;
                };
                actions.push(Action::Send {
                    to: Endpoint::L1(new_owner),
                    msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
                });
            }
            DnvMsg::ReadResp { word, value, fill } => {
                let Some(pend) = self.mshr.remove(&word) else {
                    actions.push(Action::violation(format!(
                        "L1 {}: ReadResp without pending read for {word}",
                        self.id
                    )));
                    return;
                };
                if !matches!(pend.kind, PendKind::Read) {
                    actions.push(Action::violation(format!(
                        "L1 {}: ReadResp for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                    return;
                }
                if self.ensure_line(word.line(), actions) {
                    let w = self.word_mut(word).expect("line ensured");
                    if w.state == WState::Invalid {
                        w.state = WState::Valid;
                        w.value = value;
                    }
                    if let Some((mask, data)) = fill {
                        self.fill_line(word.line(), mask, &data);
                    }
                }
                // (If no way could be freed, deliver uncached — reads take
                // no ownership, so nothing else is required.)
                actions.push(Action::CoreDone { value: Some(value) });
            }
            DnvMsg::RegAck { word, value, .. } => self.on_reg_ack(word, value, actions),
            DnvMsg::WbAck { word } => {
                let Some(pend) = self.mshr.remove(&word) else {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck without writeback for {word}",
                        self.id
                    )));
                    return;
                };
                let PendKind::Wb { value, nacked } = pend.kind else {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                    return;
                };
                if nacked {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck for {word} after WbNack",
                        self.id
                    )));
                    return;
                }
                if pend.parked_xfer.is_some() {
                    actions.push(Action::violation(format!(
                        "L1 {}: registry acked a writeback of {word} with a transfer outstanding",
                        self.id
                    )));
                    return;
                }
                self.serve_reads(word, value, &pend.parked_reads, actions);
            }
            DnvMsg::WbNack { word } => {
                let Some(pend) = self.mshr.get_mut(&word) else {
                    actions.push(Action::violation(format!(
                        "L1: WbNack without writeback for {word}"
                    )));
                    return;
                };
                let PendKind::Wb { value, .. } = pend.kind else {
                    let kind = pend.kind;
                    actions.push(Action::violation(format!(
                        "L1: WbNack for {word} with {kind:?} pending"
                    )));
                    return;
                };
                if let Some((new_owner, class)) = pend.parked_xfer.take() {
                    let reads = std::mem::take(&mut pend.parked_reads);
                    self.mshr.remove(&word);
                    self.serve_reads(word, value, &reads, actions);
                    actions.push(Action::Send {
                        to: Endpoint::L1(new_owner),
                        msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
                    });
                } else {
                    pend.kind = PendKind::Wb {
                        value,
                        nacked: true,
                    };
                }
            }
            other => actions.push(Action::violation(format!(
                "L1 {} cannot handle {other:?}",
                self.id
            ))),
        }
    }

    /// Our own registration was acknowledged: perform the operation, then
    /// serve anything that parked behind us in the distributed queue.
    fn on_reg_ack(&mut self, word: WordAddr, ack_value: u64, actions: &mut Vec<Action>) {
        let Some(pend) = self.mshr.remove(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: RegAck without registration for {word}",
                self.id
            )));
            return;
        };
        let cached = self.ensure_line(word.line(), actions);
        let mut owned_value = ack_value;
        match pend.kind {
            PendKind::Write => {
                // The word was already Registered locally with our value;
                // the ack just retires the store.
                owned_value = self
                    .word_mut(word)
                    .map(|w| w.value)
                    .expect("write-registered word resident");
                actions.push(Action::StoresDone { count: 1 });
            }
            PendKind::SyncRead => {
                if cached {
                    let w = self.word_mut(word).expect("line ensured");
                    let from = w.state.label();
                    w.state = WState::Registered;
                    w.value = ack_value;
                    self.emit_transition(word, from, "R", "RegAck");
                }
                actions.push(Action::CoreDone {
                    value: Some(ack_value),
                });
            }
            PendKind::SyncWrite { value } => {
                if cached {
                    let w = self.word_mut(word).expect("line ensured");
                    let from = w.state.label();
                    w.state = WState::Registered;
                    w.value = value;
                    self.emit_transition(word, from, "R", "RegAck");
                }
                owned_value = value;
                if let Some(b) = self.backoff_mut() {
                    b.on_release();
                }
                actions.push(Action::CoreDone { value: None });
            }
            PendKind::Rmw { op } => {
                let new = op.apply(ack_value);
                if cached {
                    let w = self.word_mut(word).expect("line ensured");
                    let from = w.state.label();
                    w.state = WState::Registered;
                    w.value = new;
                    self.emit_transition(word, from, "R", "RegAck");
                }
                owned_value = new;
                actions.push(Action::CoreDone {
                    value: Some(ack_value),
                });
            }
            PendKind::Read | PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                actions.push(Action::violation(format!(
                    "L1 {}: RegAck for {word} with {:?} pending",
                    self.id, pend.kind
                )));
                return;
            }
        }
        // Serve parked forwarded reads with the post-operation value (they
        // were serialized after our registration).
        self.serve_reads(word, owned_value, &pend.parked_reads, actions);
        if pend.recall_parked() {
            // GCS: the word was classified while our registration was in
            // flight; the operation completed above, now surrender it.
            self.surrender_recalled(word, cached, owned_value, actions);
            return;
        }
        // Then the parked transfer, if any: ownership moves on.
        if let Some((new_owner, class)) = pend.parked_xfer {
            let value = if cached {
                // The ack just (re-)registered the word here, so the
                // downgrade cannot miss.
                self.downgrade(word, Some(class), actions)
                    .expect("word registered by this ack")
            } else {
                owned_value
            };
            actions.push(Action::Send {
                to: Endpoint::L1(new_owner),
                msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
            });
        } else if !cached {
            // We are the registrant but could not cache the word: hand the
            // value straight back to the registry.
            self.mshr
                .try_insert(
                    word,
                    self.pend(PendKind::Wb {
                        value: owned_value,
                        nacked: false,
                    }),
                )
                .expect("fresh mshr");
            actions.push(Action::Send {
                to: self.home(word),
                msg: Msg::Dnv(DnvMsg::WbReq {
                    word,
                    value: owned_value,
                    from: self.id,
                }),
            });
        }
    }

    /// Downgrades a Registered word for an outgoing transfer of `class` (or,
    /// with `None`, a GCS recall), returning its value (`None` if the word
    /// is not actually Registered here — a protocol violation the caller
    /// reports). Synchronization reads under DeNovoSync leave a Valid copy
    /// (the backoff trigger) and bump the counter; everything else
    /// invalidates.
    pub(crate) fn downgrade(
        &mut self,
        word: WordAddr,
        class: Option<XferClass>,
        actions: &mut Vec<Action>,
    ) -> Option<u64> {
        let mut keep_valid = false;
        if class == Some(XferClass::SyncRead) {
            if let Some(b) = self.backoff_mut() {
                keep_valid = b.is_enabled();
                b.on_remote_sync_read();
            }
        }
        let w = self
            .word_mut(word)
            .filter(|w| w.state == WState::Registered)?;
        let value = w.value;
        w.state = if keep_valid {
            WState::Valid
        } else {
            WState::Invalid
        };
        let cause = if class.is_some() { "Xfer" } else { "Recall" };
        self.emit_transition(word, "R", if keep_valid { "V" } else { "I" }, cause);
        if self.watch == Some(word) {
            actions.push(Action::SpinWake);
        }
        Some(value)
    }

    pub(crate) fn serve_reads(
        &self,
        word: WordAddr,
        value: u64,
        readers: &[CoreId],
        actions: &mut Vec<Action>,
    ) {
        for &r in readers {
            actions.push(Action::Send {
                to: Endpoint::L1(r),
                msg: Msg::Dnv(DnvMsg::ReadResp {
                    word,
                    value,
                    fill: None,
                }),
            });
        }
    }

    /// Copies the registry's valid sibling words into Invalid slots.
    fn fill_line(&mut self, line: LineAddr, mask: u8, data: &[u64; WORDS_PER_LINE]) {
        let payload = self.cache.get_mut(line).expect("line resident");
        for (i, (slot, &value)) in payload.words.iter_mut().zip(data).enumerate() {
            if mask & (1 << i) != 0
                && slot.state == WState::Invalid
                // Skip words with their own pending transactions.
                && !self.mshr.contains(&line.word(i))
            {
                *slot = DnvWord {
                    state: WState::Valid,
                    value,
                };
            }
        }
    }

    /// Makes `line` resident, evicting if necessary. Returns false if no way
    /// could be freed.
    fn ensure_line(&mut self, line: LineAddr, actions: &mut Vec<Action>) -> bool {
        if self.cache.contains(line) {
            self.cache.touch(line);
            return true;
        }
        let watch_line = self.watch.map(WordAddr::line);
        // First preference: a victim with nothing pinned (clean Valid-only
        // lines drop silently — Valid words are always clean copies).
        let mshr = &self.mshr;
        let clean = self
            .cache
            .insert_filtered(line, DnvLine::empty(), |addr, l| {
                Some(addr) != watch_line
                    && !l.has_registered()
                    && addr.words().all(|w| !mshr.contains(&w))
            });
        match clean {
            InsertOutcome::Inserted | InsertOutcome::Evicted(..) => return true,
            InsertOutcome::NoVictim(_) => {}
        }
        // Fall back to evicting a line with Registered words via the
        // writeback handshake.
        let mshr = &self.mshr;
        let outcome = self
            .cache
            .insert_filtered(line, DnvLine::empty(), |addr, _| {
                Some(addr) != watch_line && addr.words().all(|w| !mshr.contains(&w))
            });
        match outcome {
            InsertOutcome::Inserted => true,
            InsertOutcome::Evicted(victim, old) => {
                for i in 0..WORDS_PER_LINE {
                    if old.words[i].state == WState::Registered {
                        let word = victim.word(i);
                        let value = old.words[i].value;
                        self.mshr
                            .try_insert(
                                word,
                                self.pend(PendKind::Wb {
                                    value,
                                    nacked: false,
                                }),
                            )
                            .expect("victim words unpinned");
                        actions.push(Action::Send {
                            to: self.home(word),
                            msg: Msg::Dnv(DnvMsg::WbReq {
                                word,
                                value,
                                from: self.id,
                            }),
                        });
                    }
                }
                true
            }
            InsertOutcome::NoVictim(_) => false,
        }
    }

    fn note_hit(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::DataLoad => self.stats.data_read_hits += 1,
            AccessKind::DataStore { .. } => self.stats.data_write_hits += 1,
            AccessKind::SyncLoad => self.stats.sync_read_hits += 1,
            AccessKind::SyncStore { .. } | AccessKind::SyncRmw(_) => {
                self.stats.sync_write_hits += 1
            }
        }
    }

    fn note_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::DataLoad => self.stats.data_read_misses += 1,
            AccessKind::DataStore { .. } => self.stats.data_write_misses += 1,
            AccessKind::SyncLoad => self.stats.sync_read_misses += 1,
            AccessKind::SyncStore { .. } | AccessKind::SyncRmw(_) => {
                self.stats.sync_write_misses += 1
            }
        }
    }
}

/// Canonical hash for model checking: every field that influences future
/// protocol behaviour, in a fixed order — the sync tier's backoff unit
/// (DS0/DS) or predictor (GCS) where the backoff unit always sat, then the
/// spin watch, then GCS's remote watch and notify buffer. `stats` (counters)
/// and `layout` (immutable, shared) are excluded.
impl Hash for DnvL1 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.banks.hash(state);
        self.cache.hash(state);
        self.mshr.hash(state);
        match &self.tier {
            SyncTier::Backoff(b) => b.hash(state),
            SyncTier::Gcs(g) => g.predictor.hash(state),
        }
        self.watch.hash(state);
        if let SyncTier::Gcs(g) = &self.tier {
            g.remote_watch.hash(state);
            g.notify_buf.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_mem::{Addr, LayoutBuilder};

    fn layout() -> Arc<MemoryLayout> {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 16, r);
        Arc::new(b.build())
    }

    fn l1(enabled: bool) -> DnvL1 {
        DnvL1::new(
            0,
            CacheGeometry::new(1024, 2),
            4,
            BackoffConfig::cores16(),
            enabled,
            layout(),
        )
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
    fn sync_read_always_misses_unless_registered() {
        let mut l1 = l1(false);
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
        // Now a sync read hits.
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Hit { value: Some(7) }
        );
    }

    #[test]
    fn data_write_registers_immediately_without_stalling() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 5 }),
                false,
                &mut acts
            ),
            IssueResult::StoreAccepted { completed: false }
        );
        // The word is already Registered locally: reads hit and see 5.
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts),
            IssueResult::Hit { value: Some(5) }
        );
        // The ack retires the outstanding store.
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
        assert_eq!(l1.peek_registered(word(0x100)), Some(5));
    }

    #[test]
    fn transfer_downgrades_to_invalid_on_ds0_and_valid_on_ds() {
        for (enabled, expect) in [(false, WState::Invalid), (true, WState::Valid)] {
            let mut l1 = l1(enabled);
            let mut acts = Vec::new();
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 9 }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(0x100),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
            acts.clear();
            l1.on_msg(
                DnvMsg::Xfer {
                    word: word(0x100),
                    new_owner: 2,
                    class: XferClass::SyncRead,
                },
                &mut acts,
            );
            // Value 9 travels to the new owner.
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::L1(2),
                    msg: Msg::Dnv(DnvMsg::RegAck { value: 9, .. })
                }
            )));
            assert_eq!(l1.word_state(word(0x100)), expect, "enabled={enabled}");
            if enabled {
                assert!(l1.backoff().current() > 0, "backoff must have grown");
            }
        }
    }

    #[test]
    fn sync_read_to_valid_backs_off_then_misses() {
        let mut l1 = l1(true);
        let mut acts = Vec::new();
        // Register then lose to a remote sync read → Valid + backoff > 0.
        l1.core_request(
            &req(0x100, AccessKind::DataStore { value: 1 }),
            false,
            &mut acts,
        );
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::Write,
            },
            &mut acts,
        );
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 1,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        acts.clear();
        let res = l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        let IssueResult::Backoff { cycles } = res else {
            panic!("expected backoff, got {res:?}");
        };
        assert!(cycles > 0);
        assert!(acts.is_empty(), "no messages during backoff");
        // After the backoff expires the re-issue must miss (ignoring the
        // Valid copy).
        let res = l1.core_request(&req(0x100, AccessKind::SyncLoad), true, &mut acts);
        assert_eq!(res, IssueResult::Miss);
    }

    #[test]
    fn racing_transfer_parks_in_mshr_until_own_ack() {
        // The distributed queue: our sync read is pending; the next
        // registrant's transfer arrives first and must wait for our ack.
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        acts.clear();
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 3,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.is_empty(), "transfer must park: {acts:?}");
        // Our ack arrives: we complete, then immediately pass ownership on.
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 42,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(42) }));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 42, .. })
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
    }

    #[test]
    fn rmw_applies_at_ownership_and_serves_parked_reads_with_new_value() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        // A forwarded data read parks behind our pending registration.
        l1.on_msg(
            DnvMsg::ReadReq {
                word: word(0x100),
                req: 5,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 10,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        // The parked read sees the post-RMW value 11.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::ReadResp { value: 11, .. })
            }
        )));
        assert_eq!(l1.peek_registered(word(0x100)), Some(11));
    }

    #[test]
    fn self_invalidation_clears_valid_but_not_registered() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        // Valid word via data read.
        l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::ReadResp {
                word: word(0x100),
                value: 3,
                fill: None,
            },
            &mut acts,
        );
        // Registered word via store.
        l1.core_request(
            &req(0x140, AccessKind::DataStore { value: 4 }),
            false,
            &mut acts,
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Valid);
        assert_eq!(l1.word_state(word(0x140)), WState::Registered);
        let region = l1.layout.region_of(Addr::new(0x100)).unwrap();
        l1.self_invalidate(region);
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert_eq!(l1.word_state(word(0x140)), WState::Registered);
    }

    #[test]
    fn read_resp_fill_installs_only_invalid_words() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        // Make word 1 of the line Registered first.
        l1.core_request(
            &req(0x108, AccessKind::DataStore { value: 99 }),
            false,
            &mut acts,
        );
        acts.clear();
        l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts);
        let mut data = [0u64; 8];
        data[2] = 22;
        data[1] = 11; // must NOT overwrite the registered 99
        l1.on_msg(
            DnvMsg::ReadResp {
                word: word(0x100),
                value: 5,
                fill: Some((0b0000_0110, data)),
            },
            &mut acts,
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Valid);
        assert_eq!(l1.word_state(word(0x110)), WState::Valid);
        assert_eq!(l1.peek_registered(word(0x108)), Some(99));
    }

    #[test]
    fn writeback_handshake_ack_path() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        // Fill both ways of set 0 with registered words, then force a third
        // line into the set (2-way, 8 sets ⇒ stride 8 lines = 0x200).
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
        let res = l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        assert_eq!(res, IssueResult::StoreAccepted { completed: false });
        let wb = acts.iter().find_map(|a| match a {
            Action::Send {
                msg: Msg::Dnv(DnvMsg::WbReq { word, value, .. }),
                ..
            } => Some((*word, *value)),
            _ => None,
        });
        let (wb_word, wb_value) = wb.expect("writeback for the evicted registered word");
        assert_eq!(wb_word, word(0x200));
        assert_eq!(wb_value, 1);
        // Held value still answers peeks during the handshake.
        assert_eq!(l1.peek_registered(wb_word), Some(1));
        acts.clear();
        l1.on_msg(DnvMsg::WbAck { word: wb_word }, &mut acts);
        assert_eq!(l1.peek_registered(wb_word), None);
    }

    #[test]
    fn writeback_nack_then_transfer_serves_from_held_value() {
        let mut l1 = l1(false);
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
        // Registry refuses: ownership already moved to core 4.
        l1.on_msg(DnvMsg::WbNack { word: word(0x200) }, &mut acts);
        assert!(acts.is_empty());
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x200),
                new_owner: 4,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 1, .. })
            }
        )));
        // Only the 0x600 store's own registration remains outstanding.
        assert_eq!(l1.outstanding_txns(), 1);
    }

    #[test]
    fn transfer_before_nack_also_resolves() {
        let mut l1 = l1(false);
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
        // Transfer parks on the writeback entry, then the nack releases it.
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x200),
                new_owner: 4,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        l1.on_msg(DnvMsg::WbNack { word: word(0x200) }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 1, .. })
            }
        )));
    }

    #[test]
    fn spin_watch_wakes_on_transfer() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        l1.set_watch(word(0x100));
        acts.clear();
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 9,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::SpinWake));
    }
}
