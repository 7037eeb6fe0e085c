//! A generic set-associative tag array with true-LRU replacement.
//!
//! The protocol controllers store their per-line coherence metadata (MESI
//! state + data, or DeNovo per-word states + data) as the array's payload
//! type. Victim selection can be filtered: a line that is mid-transaction
//! (MSHR pending, registered word with an in-flight writeback, ...) can be
//! declared non-evictable by the caller.

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use std::hash::{Hash, Hasher};

/// A resident cache line: its address and the protocol-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLine<L> {
    /// The line's address.
    pub addr: LineAddr,
    /// Protocol-specific per-line state (and data).
    pub payload: L,
    lru: u64,
}

/// Outcome of [`CacheArray::insert_filtered`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome<L> {
    /// The line was inserted into a free (or same-address) way.
    Inserted,
    /// The line was inserted after evicting the returned victim.
    Evicted(LineAddr, L),
    /// No way could be freed (every candidate was vetoed); the payload is
    /// handed back and the array is unchanged.
    NoVictim(L),
}

/// A set-associative array of `L`-payload lines with true-LRU replacement.
///
/// # Storage
///
/// The resident lines live in one pool (in no particular order). A flat
/// `sets × assoc` way index maps each set's ways to pool slots, and a
/// bitmap marks the sets that hold a line. Cloning or dropping the array
/// costs three allocations plus the resident lines, however many sets the
/// geometry has; lookups scan at most `assoc` ways, and iterating or
/// hashing visits only the marked sets. Within a set, ways keep the order
/// of a `Vec` that is appended to on insert and `swap_remove`d from on
/// removal, and [`CacheArray::iter`] walks the sets in index order.
///
/// # Examples
///
/// ```
/// use dvs_mem::{CacheArray, CacheGeometry, LineAddr};
///
/// let mut cache: CacheArray<u32> = CacheArray::new(CacheGeometry::new(128, 2));
/// cache.insert_filtered(LineAddr::new(1), 11, |_, _| true);
/// assert_eq!(cache.get(LineAddr::new(1)), Some(&11));
/// assert_eq!(cache.get(LineAddr::new(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<L> {
    geometry: CacheGeometry,
    /// The resident lines, in no particular order.
    lines: Vec<CacheLine<L>>,
    /// `ways[set * assoc + w]` is the `lines` index of way `w` of `set`, or
    /// [`NO_LINE`]. A set's occupied ways are packed at the front.
    ways: Vec<u32>,
    /// Bit `set % 64` of word `set / 64` is set iff `set` holds a line.
    nonempty: Vec<u64>,
    clock: u64,
}

/// An unoccupied entry of the way index.
const NO_LINE: u32 = u32::MAX;

/// The pool indices of `set`'s lines in a way index, in way order.
fn set_lines(ways: &[u32], assoc: usize, set: usize) -> impl Iterator<Item = usize> + '_ {
    ways[set * assoc..(set + 1) * assoc]
        .iter()
        .take_while(|&&i| i != NO_LINE)
        .map(|&i| i as usize)
}

/// The sets marked in a non-empty bitmap, in index order.
fn nonempty_sets(nonempty: &[u64]) -> impl Iterator<Item = usize> + '_ {
    nonempty.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k * 64 + bit
            })
        })
    })
}

/// Every resident line's pool index, set by set in index order.
fn pool_order<'a>(
    ways: &'a [u32],
    nonempty: &'a [u64],
    assoc: usize,
) -> impl Iterator<Item = usize> + 'a {
    nonempty_sets(nonempty).flat_map(move |set| set_lines(ways, assoc, set))
}

impl<L> CacheArray<L> {
    /// Creates an empty array with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.lines() < NO_LINE as usize,
            "too many lines for the way index"
        );
        CacheArray {
            geometry,
            lines: Vec::new(),
            ways: vec![NO_LINE; geometry.lines()],
            nonempty: vec![0; geometry.sets().div_ceil(64)],
            clock: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The pool indices of `set`'s lines, in way order.
    fn set_lines(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        set_lines(&self.ways, self.geometry.assoc(), set)
    }

    /// The pool index of `addr`, if resident.
    fn find(&self, addr: LineAddr) -> Option<usize> {
        self.set_lines(self.geometry.set_index(addr))
            .find(|&i| self.lines[i].addr == addr)
    }

    /// Immutable payload lookup. Does **not** update LRU state.
    pub fn get(&self, addr: LineAddr) -> Option<&L> {
        self.find(addr).map(|i| &self.lines[i].payload)
    }

    /// Mutable payload lookup; marks the line most-recently-used.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut L> {
        let stamp = self.tick();
        let i = self.find(addr)?;
        let line = &mut self.lines[i];
        line.lru = stamp;
        Some(&mut line.payload)
    }

    /// Marks a line most-recently-used without touching its payload.
    pub fn touch(&mut self, addr: LineAddr) {
        let stamp = self.tick();
        if let Some(i) = self.find(addr) {
            self.lines[i].lru = stamp;
        }
    }

    /// Whether a line is resident.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Inserts `payload` for `addr`, evicting the least-recently-used line
    /// for which `can_evict` returns `true` if the set is full.
    ///
    /// If `addr` is already resident its payload is **replaced** (and the
    /// line becomes most-recently-used); the old payload is returned as an
    /// eviction of the same address.
    pub fn insert_filtered(
        &mut self,
        addr: LineAddr,
        payload: L,
        mut can_evict: impl FnMut(LineAddr, &L) -> bool,
    ) -> InsertOutcome<L> {
        let stamp = self.tick();
        if let Some(i) = self.find(addr) {
            let line = &mut self.lines[i];
            line.lru = stamp;
            let old = std::mem::replace(&mut line.payload, payload);
            return InsertOutcome::Evicted(addr, old);
        }

        let new = CacheLine {
            addr,
            payload,
            lru: stamp,
        };
        let set = self.geometry.set_index(addr);
        let used = self.set_lines(set).count();
        if used < self.geometry.assoc() {
            self.ways[set * self.geometry.assoc() + used] = self.lines.len() as u32;
            self.lines.push(new);
            self.nonempty[set / 64] |= 1 << (set % 64);
            return InsertOutcome::Inserted;
        }

        // Choose the LRU way among evictable candidates.
        let victim = self
            .set_lines(set)
            .filter(|&i| can_evict(self.lines[i].addr, &self.lines[i].payload))
            .min_by_key(|&i| self.lines[i].lru);
        match victim {
            Some(i) => {
                let old = std::mem::replace(&mut self.lines[i], new);
                InsertOutcome::Evicted(old.addr, old.payload)
            }
            None => InsertOutcome::NoVictim(new.payload),
        }
    }

    /// Removes a line, returning its payload.
    pub fn remove(&mut self, addr: LineAddr) -> Option<L> {
        let set = self.geometry.set_index(addr);
        let pos = self
            .set_lines(set)
            .position(|i| self.lines[i].addr == addr)?;
        let used = self.set_lines(set).count();
        // Within the set: the last occupied way fills the hole.
        let base = set * self.geometry.assoc();
        let i = self.ways[base + pos] as usize;
        self.ways[base + pos] = self.ways[base + used - 1];
        self.ways[base + used - 1] = NO_LINE;
        if used == 1 {
            self.nonempty[set / 64] &= !(1 << (set % 64));
        }
        // Within the pool: the last line fills the hole; repoint its way.
        let line = self.lines.swap_remove(i);
        if let Some(moved) = self.lines.get(i) {
            let assoc = self.geometry.assoc();
            let base = self.geometry.set_index(moved.addr) * assoc;
            let from = self.lines.len() as u32;
            let way = self.ways[base..base + assoc]
                .iter_mut()
                .find(|j| **j == from)
                .expect("every pooled line has a way");
            *way = i as u32;
        }
        Some(line.payload)
    }

    /// Iterates all resident lines, set by set in index order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &L)> {
        pool_order(&self.ways, &self.nonempty, self.geometry.assoc()).map(move |i| {
            let line = &self.lines[i];
            (line.addr, &line.payload)
        })
    }

    /// Iterates all resident lines mutably, in [`CacheArray::iter`]'s order
    /// (does not update LRU state).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut L)> {
        let mut lines: Vec<Option<&mut CacheLine<L>>> = self.lines.iter_mut().map(Some).collect();
        pool_order(&self.ways, &self.nonempty, self.geometry.assoc()).map(move |i| {
            let line = lines[i].take().expect("each pooled line has one way");
            (line.addr, &mut line.payload)
        })
    }
}

/// Writes the zero length prefixes of `count` empty sets, `count` zero
/// `usize`s, as one block (chunked only past a 1 KB zero buffer). A
/// streaming hasher, such as the `std` SipHash behind `DefaultHasher`, sees
/// the same bytes as from `count` calls of `write_usize(0)`, and its output
/// depends only on the bytes, not on where the `write` calls split them.
fn write_empty_sets<H: Hasher>(state: &mut H, count: usize) {
    const ZEROS: [u8; 1024] = [0; 1024];
    let mut bytes = count * std::mem::size_of::<usize>();
    while bytes > 0 {
        let chunk = bytes.min(ZEROS.len());
        state.write(&ZEROS[..chunk]);
        bytes -= chunk;
    }
}

/// Hashes the array's *replacement-relevant* state canonically: for each set
/// (in index order), the number of resident lines as a `usize`, then those
/// lines sorted by address, each hashed as
/// `(addr, lru-rank-within-set, payload)`. Absolute `lru` stamps, the
/// global `clock` and the pool order are excluded — two arrays that would
/// make identical eviction decisions forever hash identically even if they
/// were touched a different number of times.
///
/// Only non-empty sets are visited; each run of empty sets is written as
/// one block of zero length prefixes (`write_empty_sets`), so the cost
/// scales with the resident lines, not the geometry, and the byte stream —
/// hence every `std` `DefaultHasher` fingerprint — is the one a per-set
/// writer produces.
impl<L: Hash> Hash for CacheArray<L> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.geometry.hash(state);
        let mut by_addr: Vec<usize> = Vec::with_capacity(self.geometry.assoc());
        let mut next_set = 0;
        for set in nonempty_sets(&self.nonempty) {
            write_empty_sets(state, set - next_set);
            by_addr.clear();
            by_addr.extend(self.set_lines(set));
            by_addr.sort_unstable_by_key(|&i| self.lines[i].addr);
            state.write_usize(by_addr.len());
            for &i in &by_addr {
                let line = &self.lines[i];
                line.addr.hash(state);
                // Rank of the line's lru stamp within its set (0 = LRU).
                let rank = by_addr
                    .iter()
                    .filter(|&&j| self.lines[j].lru < line.lru)
                    .count();
                state.write_usize(rank);
                line.payload.hash(state);
            }
            next_set = set + 1;
        }
        write_empty_sets(state, self.geometry.sets() - next_set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<u32> {
        // 2 ways, 2 sets.
        CacheArray::new(CacheGeometry::new(4 * 64, 2))
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = small();
        assert!(matches!(
            c.insert_filtered(line(0), 10, |_, _| true),
            InsertOutcome::Inserted
        ));
        assert_eq!(c.get(line(0)), Some(&10));
        assert!(c.contains(line(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn same_address_replaces() {
        let mut c = small();
        c.insert_filtered(line(0), 1, |_, _| true);
        match c.insert_filtered(line(0), 2, |_, _| true) {
            InsertOutcome::Evicted(a, old) => {
                assert_eq!(a, line(0));
                assert_eq!(old, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.get(line(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_lru() {
        let mut c = small();
        // lines 0, 2, 4 all map to set 0 (2 sets).
        c.insert_filtered(line(0), 0, |_, _| true);
        c.insert_filtered(line(2), 2, |_, _| true);
        c.get_mut(line(0)); // make line 0 MRU
        match c.insert_filtered(line(4), 4, |_, _| true) {
            InsertOutcome::Evicted(a, p) => {
                assert_eq!(a, line(2));
                assert_eq!(p, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn touch_updates_lru() {
        let mut c = small();
        c.insert_filtered(line(0), 0, |_, _| true);
        c.insert_filtered(line(2), 2, |_, _| true);
        c.touch(line(0));
        match c.insert_filtered(line(4), 4, |_, _| true) {
            InsertOutcome::Evicted(a, _) => assert_eq!(a, line(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eviction_filter_vetoes() {
        let mut c = small();
        c.insert_filtered(line(0), 0, |_, _| true);
        c.insert_filtered(line(2), 2, |_, _| true);
        // Veto everything: insertion must fail and give the payload back.
        match c.insert_filtered(line(4), 4, |_, _| false) {
            InsertOutcome::NoVictim(p) => assert_eq!(p, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!c.contains(line(4)));
        // Veto only line 0: line 2 must be evicted even though 0 is older.
        c.get_mut(line(2)); // 0 is LRU now
        match c.insert_filtered(line(4), 4, |a, _| a != line(0)) {
            InsertOutcome::Evicted(a, _) => assert_eq!(a, line(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn remove_returns_payload() {
        let mut c = small();
        c.insert_filtered(line(1), 7, |_, _| true);
        assert_eq!(c.remove(line(1)), Some(7));
        assert_eq!(c.remove(line(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_visits_everything() {
        let mut c = small();
        c.insert_filtered(line(0), 0, |_, _| true);
        c.insert_filtered(line(1), 1, |_, _| true);
        c.insert_filtered(line(2), 2, |_, _| true);
        let mut seen: Vec<u64> = c.iter().map(|(a, _)| a.raw()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    /// The `Vec<Vec<_>>` array this one replaced, with its per-set hash
    /// writer: the reference for storage order, evictions and hashes.
    struct Model {
        geometry: CacheGeometry,
        sets: Vec<Vec<CacheLine<u32>>>,
        clock: u64,
    }

    impl Model {
        fn new(geometry: CacheGeometry) -> Self {
            Model {
                geometry,
                sets: (0..geometry.sets()).map(|_| Vec::new()).collect(),
                clock: 0,
            }
        }

        fn set(&mut self, addr: LineAddr) -> &mut Vec<CacheLine<u32>> {
            &mut self.sets[self.geometry.set_index(addr)]
        }

        fn get_mut(&mut self, addr: LineAddr) -> Option<&mut u32> {
            self.clock += 1;
            let stamp = self.clock;
            let line = self.set(addr).iter_mut().find(|l| l.addr == addr)?;
            line.lru = stamp;
            Some(&mut line.payload)
        }

        fn insert_filtered(
            &mut self,
            addr: LineAddr,
            payload: u32,
            mut can_evict: impl FnMut(LineAddr, &u32) -> bool,
        ) -> InsertOutcome<u32> {
            self.clock += 1;
            let stamp = self.clock;
            let assoc = self.geometry.assoc();
            let set = self.set(addr);
            if let Some(line) = set.iter_mut().find(|l| l.addr == addr) {
                line.lru = stamp;
                return InsertOutcome::Evicted(addr, std::mem::replace(&mut line.payload, payload));
            }
            let new = CacheLine {
                addr,
                payload,
                lru: stamp,
            };
            if set.len() < assoc {
                set.push(new);
                return InsertOutcome::Inserted;
            }
            let victim = set
                .iter()
                .enumerate()
                .filter(|(_, l)| can_evict(l.addr, &l.payload))
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let old = std::mem::replace(&mut set[i], new);
                    InsertOutcome::Evicted(old.addr, old.payload)
                }
                None => InsertOutcome::NoVictim(new.payload),
            }
        }

        fn remove(&mut self, addr: LineAddr) -> Option<u32> {
            let set = self.set(addr);
            let pos = set.iter().position(|l| l.addr == addr)?;
            Some(set.swap_remove(pos).payload)
        }

        fn lines(&self) -> Vec<(LineAddr, u32)> {
            self.sets
                .iter()
                .flat_map(|s| s.iter().map(|l| (l.addr, l.payload)))
                .collect()
        }

        fn fingerprint(&self) -> u64 {
            let mut state = std::collections::hash_map::DefaultHasher::new();
            self.geometry.hash(&mut state);
            for set in &self.sets {
                let mut stamps: Vec<u64> = set.iter().map(|l| l.lru).collect();
                stamps.sort_unstable();
                let mut entries: Vec<&CacheLine<u32>> = set.iter().collect();
                entries.sort_unstable_by_key(|l| l.addr);
                state.write_usize(entries.len());
                for line in entries {
                    line.addr.hash(&mut state);
                    let rank = stamps.iter().position(|&s| s == line.lru).unwrap();
                    state.write_usize(rank);
                    line.payload.hash(&mut state);
                }
            }
            state.finish()
        }
    }

    fn fingerprint(c: &CacheArray<u32>) -> u64 {
        let mut state = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut state);
        state.finish()
    }

    fn lines_of(c: &CacheArray<u32>) -> Vec<(LineAddr, u32)> {
        c.iter().map(|(a, &p)| (a, p)).collect()
    }

    /// Drives the array and the model through one seeded random sequence of
    /// inserts, lookups, touches and removals, comparing every outcome,
    /// the iteration order and the hash after each step.
    fn differential(geometry: CacheGeometry, seed: u64, steps: usize) {
        // SplitMix64: enough randomness without a dependency.
        let mut x = seed;
        let mut next = move |n: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut c = CacheArray::new(geometry);
        let mut m = Model::new(geometry);
        // Three lines' worth of addresses per way, so sets fill and evict.
        let span = (geometry.lines() as u64 * 3).max(4);
        for step in 0..steps {
            let addr = line(next(span));
            let what = format!("{} sets, seed {seed}, step {step}", geometry.sets());
            match next(8) {
                0..=3 => {
                    let payload = next(1000) as u32;
                    // Veto odd payloads sometimes, to reach NoVictim and
                    // filtered victims.
                    let veto = next(3) == 0;
                    let can_evict = |_: LineAddr, p: &u32| !veto || p.is_multiple_of(2);
                    let got = c.insert_filtered(addr, payload, can_evict);
                    assert_eq!(got, m.insert_filtered(addr, payload, can_evict), "{what}");
                }
                4 => {
                    let got = c.get_mut(addr).map(|p| *p);
                    assert_eq!(got, m.get_mut(addr).map(|p| *p), "{what}");
                }
                5 => {
                    c.touch(addr);
                    m.get_mut(addr);
                }
                _ => assert_eq!(c.remove(addr), m.remove(addr), "{what}"),
            }
            assert_eq!(lines_of(&c), m.lines(), "{what}");
            assert_eq!(c.len(), m.lines().len(), "{what}");
            assert_eq!(fingerprint(&c), m.fingerprint(), "{what}");
        }
        let mut_order: Vec<LineAddr> = c.iter_mut().map(|(a, _)| a).collect();
        let order: Vec<LineAddr> = m.lines().into_iter().map(|(a, _)| a).collect();
        assert_eq!(mut_order, order);
    }

    #[test]
    fn matches_the_per_set_vec_model_and_its_hash() {
        // 1, 64, 128 and 1024 sets; 1024 four-way sets give runs of empty
        // sets longer than the zero buffer of `write_empty_sets`.
        for (bytes, assoc, steps) in [
            (4 * 64, 4, 3000),
            (64 * 2 * 64, 2, 3000),
            (32 * 1024, 4, 3000),
            (1024 * 4 * 64, 4, 600),
        ] {
            let geometry = CacheGeometry::new(bytes, assoc);
            for seed in 0..4 {
                differential(geometry, seed, steps);
            }
        }
    }

    #[test]
    fn empty_and_sparse_hashes_match_the_model() {
        let geometry = CacheGeometry::new(1024 * 4 * 64, 4);
        let mut c = CacheArray::new(geometry);
        let mut m = Model::new(geometry);
        assert_eq!(fingerprint(&c), m.fingerprint());
        // One line in the last set only: a single 1023-set zero run.
        let last = line(geometry.sets() as u64 - 1);
        c.insert_filtered(last, 5, |_, _| true);
        m.insert_filtered(last, 5, |_, _| true);
        assert_eq!(fingerprint(&c), m.fingerprint());
    }

    #[test]
    fn iter_mut_writes_reach_the_lines() {
        let mut c = small();
        for i in 0..4 {
            c.insert_filtered(line(i), i as u32, |_, _| true);
        }
        c.remove(line(0));
        for (a, p) in c.iter_mut() {
            *p = a.raw() as u32 * 10;
        }
        assert_eq!(
            lines_of(&c),
            vec![(line(2), 20), (line(1), 10), (line(3), 30)]
        );
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        // Set 0 full.
        c.insert_filtered(line(0), 0, |_, _| true);
        c.insert_filtered(line(2), 2, |_, _| true);
        // Set 1 still has room: no eviction.
        assert!(matches!(
            c.insert_filtered(line(1), 1, |_, _| true),
            InsertOutcome::Inserted
        ));
        assert_eq!(c.len(), 3);
    }
}
