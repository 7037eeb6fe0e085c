//! The DeNovo registry: the L2 bank's word-granularity ownership tracker,
//! shared by DeNovoSync0, DeNovoSync and GCS.
//!
//! Each word is either `Valid(data)` — the L2 holds the up-to-date value —
//! or `Registered(core)` — a pointer to the L1 holding it. There are no
//! sharer lists and, crucially, the registry is **non-blocking**: a
//! registration request for a word registered elsewhere immediately
//! re-points the registry at the new requestor and forwards the request to
//! the previous registrant; it never buffers waiting for the transfer to
//! finish. Racing registrations therefore serialize through the L1s' MSHRs
//! (the paper's distributed queue, §4.1 "Handling races").
//!
//! A GCS bank is this registry plus a sync tier ([`crate::gcs::bank`]),
//! which owns the words it has classified and is entered from the data path
//! when a synchronization registration contends for a registered word.

use crate::config::ProtocolMutation;
use crate::gcs::bank::SyncDirectory;
use crate::msg::{BankId, CoreId, DnvMsg, Endpoint, LineData, Msg};
use crate::proto::Action;
use dvs_mem::{LineAddr, MemoryLayout, SpanMap, WordAddr, LINE_BYTES, WORDS_PER_LINE};
use dvs_telemetry::{Component, Event, EventKind, Telemetry, TelemetryKey};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// One word's registry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegWord {
    /// The L2 holds the current value.
    Valid(u64),
    /// The named core's L1 holds the current value.
    Registered(CoreId),
}

/// Requests parked while a line's data is fetched from memory. A DS0/DS
/// bank only ever parks data-path requests; a GCS bank parks any message it
/// accepts. Each hashes as exactly its own queue.
#[derive(Debug, Clone)]
enum Parked {
    Data(VecDeque<DnvMsg>),
    Any(VecDeque<Msg>),
}

impl Parked {
    fn push(&mut self, msg: Msg) {
        match (self, msg) {
            (Parked::Data(q), Msg::Dnv(m)) => q.push_back(m),
            (Parked::Any(q), m) => q.push_back(m),
            (Parked::Data(_), other) => unreachable!("data-only bank accepted {other:?}"),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        match self {
            Parked::Data(q) => q.len(),
            Parked::Any(q) => q.len(),
        }
    }

    fn drain(&mut self) -> Vec<Msg> {
        match self {
            Parked::Data(q) => q.drain(..).map(Msg::Dnv).collect(),
            Parked::Any(q) => q.drain(..).collect(),
        }
    }
}

impl Hash for Parked {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Parked::Data(q) => q.hash(state),
            Parked::Any(q) => q.hash(state),
        }
    }
}

#[derive(Debug, Clone, Hash)]
struct RegLine {
    words: [RegWord; WORDS_PER_LINE],
    has_data: bool,
    fetching: bool,
    queue: Parked,
}

impl RegLine {
    fn new(any: bool) -> Self {
        RegLine {
            words: [RegWord::Valid(0); WORDS_PER_LINE],
            has_data: false,
            fetching: false,
            queue: if any {
                Parked::Any(VecDeque::new())
            } else {
                Parked::Data(VecDeque::new())
            },
        }
    }
}

/// One L2 bank's slice of the registry.
#[derive(Debug, Clone)]
pub struct DnvRegistry {
    pub(crate) bank: BankId,
    mem: Endpoint,
    lines: SpanMap<RegLine>,
    /// GCS's sync tier; `None` on DeNovoSync0/DeNovoSync.
    pub(crate) sync: Option<SyncDirectory>,
    pub(crate) mutation: Option<ProtocolMutation>,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    pub(crate) tel: Telemetry,
}

impl DnvRegistry {
    /// Creates an empty bank. `mem` is the memory-controller endpoint this
    /// bank fetches lines through.
    pub fn new(bank: BankId, mem: Endpoint) -> Self {
        DnvRegistry {
            bank,
            mem,
            lines: SpanMap::sparse_only(),
            sync: None,
            mutation: None,
            tel: Telemetry::off(),
        }
    }

    /// Sizes the dense line table from the workload layout. This bank homes
    /// exactly the lines `l` with `l.raw() % banks == bank`, so the table
    /// covers the layout span at stride `banks` with no unreachable slots;
    /// out-of-layout lines (thread-private pools) spill to the sparse tier.
    /// Call before any traffic arrives.
    pub fn configure_span(&mut self, layout: &MemoryLayout, banks: usize) {
        debug_assert!(self.lines.is_empty(), "span configured after traffic");
        let top_line = layout.top().div_ceil(LINE_BYTES);
        let slots = top_line.div_ceil(banks as u64) as usize;
        self.lines = SpanMap::with_span(self.bank as u64, banks as u64, slots);
    }

    /// Attaches a telemetry handle (registration re-points).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Emits a [`EventKind::Registration`]: the registry pointer for `word`
    /// moved to `owner` (from `prev`, or `u32::MAX` when the registry itself
    /// held the value).
    fn emit_registration(&self, word: WordAddr, owner: CoreId, prev: Option<CoreId>) {
        self.tel.emit(|| Event {
            cycle: self.tel.now(),
            node: self.bank as u32,
            component: Component::Dir,
            addr: word.telemetry_key(),
            kind: EventKind::Registration {
                owner: owner as u32,
                prev: prev.map_or(u32::MAX, |p| p as u32),
            },
        });
    }

    /// Arms a seeded protocol bug (negative testing; see
    /// [`ProtocolMutation`]).
    pub fn set_mutation(&mut self, mutation: Option<ProtocolMutation>) {
        self.mutation = mutation;
    }

    /// The registry state of a word, if its line has been touched.
    pub fn word(&self, word: WordAddr) -> Option<RegWord> {
        self.line_words(word.line())
            .map(|words| words[word.index_in_line()])
    }

    /// The registry state of every word of `line` at once, if the line has
    /// been touched — [`DnvRegistry::word`] for the whole line in one
    /// lookup.
    pub fn line_words(&self, line: LineAddr) -> Option<&[RegWord; WORDS_PER_LINE]> {
        let line = self.lines.get(line.raw())?;
        line.has_data.then_some(&line.words)
    }

    /// Test-only corruption: overwrites the registry state of a word whose
    /// line holds data, telling no L1 (a no-op for any other word).
    #[cfg(test)]
    pub(crate) fn force_word(&mut self, word: WordAddr, state: RegWord) {
        if let Some(line) = self.lines.get_mut(word.line().raw()) {
            if line.has_data {
                line.words[word.index_in_line()] = state;
            }
        }
    }

    /// Number of words currently registered to some L1 (diagnostics; the
    /// registry's entire "sharer state" is this one pointer per word).
    pub fn registered_words(&self) -> usize {
        self.lines
            .iter()
            .flat_map(|(_, l)| l.words.iter())
            .filter(|w| matches!(w, RegWord::Registered(_)))
            .count()
    }

    /// Iterates every word currently registered to some core (for invariant
    /// checking).
    pub fn registrations(&self) -> impl Iterator<Item = (WordAddr, CoreId)> + '_ {
        self.lines.iter().flat_map(|(raw, e)| {
            let line = LineAddr::new(raw);
            e.words
                .iter()
                .enumerate()
                .filter_map(move |(i, w)| match w {
                    RegWord::Registered(c) => Some((line.word(i), *c)),
                    RegWord::Valid(_) => None,
                })
        })
    }

    /// Whether any line is still waiting on a memory fetch (for quiescence
    /// checks).
    pub fn any_fetching(&self) -> bool {
        self.lines
            .iter()
            .any(|(_, l)| l.fetching || !l.queue.is_empty())
    }

    /// Whether the line is still being resolved — fetching from memory,
    /// holding queued requests, not yet filled, or (GCS) mid-recall on one
    /// of its words. The transient exemption for the runtime conservation
    /// checker.
    pub fn line_busy(&self, line: LineAddr) -> bool {
        self.lines
            .get(line.raw())
            .is_some_and(|l| l.fetching || !l.queue.is_empty() || !l.has_data)
            || line.words().any(|w| self.sync_word_busy(w))
    }

    /// A one-line human-readable description of a word's registry state, if
    /// its line has been touched (stall diagnostics).
    pub fn describe_word(&self, word: WordAddr) -> Option<String> {
        let e = self.lines.get(word.line().raw())?;
        let mut s = format!(
            "bank {}: {word} {:?} has_data={} fetching={} queued={}",
            self.bank,
            e.words[word.index_in_line()],
            e.has_data,
            e.fetching,
            e.queue.len()
        );
        self.describe_sync(word, &mut s);
        Some(s)
    }

    /// Handles one incoming message: a data-path [`DnvMsg`], or under GCS
    /// also a sync-path [`Msg::Gcs`].
    pub fn on_msg(&mut self, msg: impl Into<Msg>, actions: &mut Vec<Action>) {
        let msg = msg.into();
        let (word, class) = match &msg {
            Msg::Dnv(m) => (m.word(), m.class()),
            Msg::Gcs(m) if self.sync.is_some() => (m.word(), m.class()),
            other => {
                actions.push(Action::violation(format!(
                    "registry bank {} cannot handle {other:?}",
                    self.bank
                )));
                return;
            }
        };
        let line = word.line();
        let any = self.sync.is_some();
        let entry = self.lines.or_insert_with(line.raw(), || RegLine::new(any));
        if !entry.has_data {
            entry.queue.push(msg);
            if !entry.fetching {
                entry.fetching = true;
                actions.push(Action::Send {
                    to: self.mem,
                    msg: Msg::MemRead {
                        line,
                        bank: self.bank,
                        class,
                    },
                });
            }
            return;
        }
        self.dispatch(msg, actions);
    }

    /// Memory returned a line this bank was fetching.
    pub fn on_mem_data(&mut self, line: LineAddr, data: LineData, actions: &mut Vec<Action>) {
        let Some(entry) = self.lines.get_mut(line.raw()) else {
            actions.push(Action::violation(format!(
                "registry bank {}: MemData for unknown line {line}",
                self.bank
            )));
            return;
        };
        if !entry.fetching {
            actions.push(Action::violation(format!(
                "registry bank {}: MemData for {line} that was not being fetched",
                self.bank
            )));
            return;
        }
        for (i, w) in entry.words.iter_mut().enumerate() {
            *w = RegWord::Valid(data[i]);
        }
        entry.has_data = true;
        entry.fetching = false;
        // The registry is non-blocking: drain everything that queued.
        for m in entry.queue.drain() {
            self.dispatch(m, actions);
        }
    }

    /// Routes a message for a fetched line: GCS's sync tier takes its own
    /// messages and every message for a word it has classified; the rest
    /// takes the data path.
    pub(crate) fn dispatch(&mut self, msg: Msg, actions: &mut Vec<Action>) {
        match msg {
            Msg::Dnv(m) if !self.classified(m.word()) => self.handle(m, actions),
            other => self.on_sync_tier(other, actions),
        }
    }

    /// The registry slot of a word whose line has been fetched.
    pub(crate) fn word_slot(&mut self, word: WordAddr) -> &mut RegWord {
        let entry = self
            .lines
            .get_mut(word.line().raw())
            .expect("line fetched before dispatch");
        &mut entry.words[word.index_in_line()]
    }

    fn handle(&mut self, msg: DnvMsg, actions: &mut Vec<Action>) {
        let word = msg.word();
        let idx = word.index_in_line();
        let entry = self
            .lines
            .get_mut(word.line().raw())
            .expect("line fetched before dispatch");
        match msg {
            DnvMsg::ReadReq { req, .. } => match entry.words[idx] {
                RegWord::Valid(value) => actions.push(read_resp(&entry.words, word, req, value)),
                RegWord::Registered(owner) => {
                    if owner == req {
                        actions.push(Action::violation(format!(
                            "registry bank {}: registrant core {req} data-reading its own \
                             word {word} remotely",
                            self.bank
                        )));
                        return;
                    }
                    actions.push(Action::Send {
                        to: Endpoint::L1(owner),
                        msg: Msg::Dnv(DnvMsg::ReadReq { word, req }),
                    });
                }
            },
            DnvMsg::RegReq { req, class, .. } => match entry.words[idx] {
                RegWord::Valid(value) => {
                    entry.words[idx] = RegWord::Registered(req);
                    actions.push(Action::Send {
                        to: Endpoint::L1(req),
                        msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
                    });
                    self.emit_registration(word, req, None);
                }
                RegWord::Registered(prev) => {
                    if prev == req {
                        actions.push(Action::violation(format!(
                            "registry bank {}: re-registration of {word} by current \
                             registrant core {req}",
                            self.bank
                        )));
                        return;
                    }
                    if self.sync_contended(word, prev, req, class, actions) {
                        return;
                    }
                    // A GCS bank arms only its sync-tier mutations.
                    let mutation = self.mutation.filter(|_| self.sync.is_none());
                    if mutation != Some(ProtocolMutation::DnvSkipRepoint) {
                        *self.word_slot(word) = RegWord::Registered(req);
                    }
                    if mutation != Some(ProtocolMutation::DnvDropXfer) {
                        actions.push(Action::Send {
                            to: Endpoint::L1(prev),
                            msg: Msg::Dnv(DnvMsg::Xfer {
                                word,
                                new_owner: req,
                                class,
                            }),
                        });
                    }
                    self.emit_registration(word, req, Some(prev));
                }
            },
            DnvMsg::WbReq { value, from, .. } => {
                self.on_writeback(word, value, from, actions);
            }
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?}",
                self.bank
            ))),
        }
    }

    /// A registrant's eviction writeback: accepted from the current
    /// registrant, refused (the word was re-pointed) from anyone else.
    /// Returns whether it was accepted.
    pub(crate) fn on_writeback(
        &mut self,
        word: WordAddr,
        value: u64,
        from: CoreId,
        actions: &mut Vec<Action>,
    ) -> bool {
        match *self.word_slot(word) {
            RegWord::Registered(owner) if owner == from => {
                *self.word_slot(word) = RegWord::Valid(value);
                actions.push(Action::Send {
                    to: Endpoint::L1(from),
                    msg: Msg::Dnv(DnvMsg::WbAck { word }),
                });
                return true;
            }
            RegWord::Registered(_) => actions.push(Action::Send {
                to: Endpoint::L1(from),
                msg: Msg::Dnv(DnvMsg::WbNack { word }),
            }),
            RegWord::Valid(_) => actions.push(Action::violation(format!(
                "registry bank {}: writeback for {word}, which the registry already holds",
                self.bank
            ))),
        }
        false
    }

    /// Serves a data read of a bank-held word.
    pub(crate) fn serve_read(
        &self,
        word: WordAddr,
        req: CoreId,
        value: u64,
        actions: &mut Vec<Action>,
    ) {
        let entry = self
            .lines
            .get(word.line().raw())
            .expect("line fetched before dispatch");
        actions.push(read_resp(&entry.words, word, req, value));
    }
}

/// The response to a data read served from the bank, piggy-backing the
/// line's other valid words (only valid parts travel — DeNovo's traffic
/// advantage).
fn read_resp(words: &[RegWord; WORDS_PER_LINE], word: WordAddr, req: CoreId, value: u64) -> Action {
    let idx = word.index_in_line();
    let mut mask = 0u8;
    let mut data = [0u64; WORDS_PER_LINE];
    for (i, w) in words.iter().enumerate() {
        if i != idx {
            if let RegWord::Valid(v) = *w {
                mask |= 1 << i;
                data[i] = v;
            }
        }
    }
    Action::Send {
        to: Endpoint::L1(req),
        msg: Msg::Dnv(DnvMsg::ReadResp {
            word,
            value,
            fill: Some((mask, data)),
        }),
    }
}

/// Canonical hash for model checking: lines sorted by address, then (GCS)
/// the sync tier's classified words. Queued messages hash in FIFO order —
/// their order is architecturally visible.
impl Hash for DnvRegistry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bank.hash(state);
        self.mem.hash(state);
        // SpanMap hashes entries sorted by key, length-prefixed; `LineAddr`
        // hashes as its raw `u64`, so the stream is unchanged from the
        // HashMap-backed version of this bank.
        self.lines.hash(state);
        if let Some(dir) = &self.sync {
            dir.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::XferClass;

    fn word(i: u64) -> WordAddr {
        WordAddr::new(64 + i)
    }

    fn warmed() -> DnvRegistry {
        let mut r = DnvRegistry::new(0, Endpoint::Mem(0));
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(0),
                req: 9,
            },
            &mut acts,
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::MemRead { .. },
                ..
            }
        ));
        acts.clear();
        let mut data = [0u64; 8];
        data[0] = 100;
        data[1] = 101;
        r.on_mem_data(word(0).line(), data, &mut acts);
        // The queued read is now served with a fill of the other words.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(9),
                msg: Msg::Dnv(DnvMsg::ReadResp {
                    value: 100,
                    fill: Some((0xFE, _)),
                    ..
                })
            }
        )));
        r
    }

    #[test]
    fn cold_line_fetches_memory_once_and_drains_queue() {
        let mut r = DnvRegistry::new(0, Endpoint::Mem(0));
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(0),
                req: 1,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 2,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        // Only one memory fetch despite two queued requests.
        let fetches = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::MemRead { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fetches, 1);
        acts.clear();
        r.on_mem_data(word(0).line(), [7; 8], &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::ReadResp { value: 7, .. })
            }
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 7, .. })
            }
        )));
        assert_eq!(r.word(word(1)), Some(RegWord::Registered(2)));
    }

    #[test]
    fn registration_of_valid_word_acks_with_value() {
        let mut r = warmed();
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 3,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Dnv(DnvMsg::RegAck {
                    value: 101,
                    class: XferClass::Write,
                    ..
                })
            }
        )));
        assert_eq!(r.word(word(1)), Some(RegWord::Registered(3)));
    }

    #[test]
    fn registration_race_repoints_immediately_and_forwards() {
        // The non-blocking registry: A registers, then B and C race; the
        // registry re-points on each request without waiting.
        let mut r = warmed();
        let mut acts = Vec::new();
        for core in [4usize, 5, 6] {
            r.on_msg(
                DnvMsg::RegReq {
                    word: word(2),
                    req: core,
                    class: XferClass::SyncRead,
                },
                &mut acts,
            );
        }
        assert_eq!(r.word(word(2)), Some(RegWord::Registered(6)));
        // B's request forwarded to A, C's to B: a chain.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 5, .. })
            }
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 6, .. })
            }
        )));
    }

    #[test]
    fn forwarded_data_read_goes_to_registrant() {
        let mut r = warmed();
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(3),
                req: 2,
                class: XferClass::Write,
            },
            &mut acts,
        );
        acts.clear();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(3),
                req: 7,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::ReadReq { req: 7, .. })
            }
        )));
        // Registry still points at 2: data reads take no ownership.
        assert_eq!(r.word(word(3)), Some(RegWord::Registered(2)));
    }

    #[test]
    fn writeback_ack_and_nack() {
        let mut r = warmed();
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(4),
                req: 2,
                class: XferClass::Write,
            },
            &mut acts,
        );
        acts.clear();
        // Owner writes back: accepted, value stored.
        r.on_msg(
            DnvMsg::WbReq {
                word: word(4),
                value: 77,
                from: 2,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::WbAck { .. })
            }
        )));
        assert_eq!(r.word(word(4)), Some(RegWord::Valid(77)));
        // Now 3 registers; a stale writeback from 2 is nacked.
        acts.clear();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(4),
                req: 3,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::WbReq {
                word: word(4),
                value: 1,
                from: 2,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::WbNack { .. })
            }
        )));
        assert_eq!(r.word(word(4)), Some(RegWord::Registered(3)));
    }

    #[test]
    fn registered_word_count_tracks_pointers() {
        let mut r = warmed();
        assert_eq!(r.registered_words(), 0);
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 1,
                class: XferClass::Write,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::RegReq {
                word: word(2),
                req: 1,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert_eq!(r.registered_words(), 2);
    }
}
