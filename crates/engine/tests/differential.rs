//! Differential property test: the calendar-queue [`Scheduler`] against the
//! retired binary-heap implementation ([`reference::HeapScheduler`]).
//!
//! The determinism contract the whole simulator rests on is that the pop
//! sequence is a pure function of the schedule sequence: events come out in
//! `(cycle, scheduling-order)` order. The heap implementation satisfied it
//! by construction; the calendar queue must reproduce it exactly, including
//! across the ring/overflow boundary. These tests drive both schedulers
//! through identical randomized schedule/pop interleavings and assert the
//! `(cycle, event)` streams never diverge.

use dvs_engine::reference::HeapScheduler;
use dvs_engine::{Cycle, DetRng, Scheduler};

/// Drives both schedulers through one seeded random interleaving of
/// schedules and pops, checking every pop and counter along the way.
fn differential_run(seed: u64, ops: usize, max_delay: Cycle, burst: u64) {
    let mut rng = DetRng::new(seed);
    let mut new: Scheduler<u64> = Scheduler::new();
    let mut old: HeapScheduler<u64> = HeapScheduler::new();
    let mut next_tag: u64 = 0;

    for op in 0..ops {
        // Weighted coin: schedule bursts build the queue up; pops drain it.
        if rng.range(0, 100) < 55 || old.is_empty() {
            for _ in 0..rng.range(1, burst + 1) {
                let delay = rng.range(0, max_delay + 1);
                new.schedule_in(delay, next_tag);
                old.schedule_in(delay, next_tag);
                next_tag += 1;
            }
        } else {
            let a = new.pop();
            let b = old.pop();
            assert_eq!(a, b, "seed {seed}: pop diverged at op {op}");
        }
        assert_eq!(new.len(), old.len(), "seed {seed}: len diverged at op {op}");
        assert_eq!(new.now(), old.now(), "seed {seed}: now diverged at op {op}");
        assert_eq!(
            new.peek_cycle(),
            old.peek_cycle(),
            "seed {seed}: peek diverged at op {op}"
        );
        assert_eq!(new.scheduled_events(), old.scheduled_events());
    }

    // Drain both to the end: the tails must match too.
    loop {
        let a = new.pop();
        let b = old.pop();
        assert_eq!(a, b, "seed {seed}: drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn near_future_delays_match_heap() {
    // Delays within the calendar ring: the pure ring path.
    for seed in 0..8 {
        differential_run(seed, 4000, 200, 4);
    }
}

#[test]
fn far_future_delays_match_heap() {
    // Delays far beyond the ring: the pure overflow path.
    for seed in 8..16 {
        differential_run(seed, 2000, 20_000, 4);
    }
}

#[test]
fn mixed_delays_cross_the_ring_boundary() {
    // Delays straddling the ring width, including the exact boundary, so
    // overflow events land on cycles that also hold ring events and the
    // overflow-first tie-break is exercised.
    for seed in 16..32 {
        differential_run(seed, 4000, 600, 6);
    }
}

#[test]
fn same_cycle_bursts_keep_fifo_across_tiers() {
    // Tiny delay range: huge same-cycle bursts, maximal FIFO pressure.
    for seed in 32..40 {
        differential_run(seed, 3000, 2, 16);
    }
}

#[test]
fn zero_delay_self_scheduling_matches() {
    // A core that keeps rescheduling itself at the current cycle (the
    // spin-retry pattern) must interleave identically.
    let mut new: Scheduler<u32> = Scheduler::new();
    let mut old: HeapScheduler<u32> = HeapScheduler::new();
    for i in 0..4 {
        new.schedule_at(5, i);
        old.schedule_at(5, i);
    }
    for round in 0..100u32 {
        let a = new.pop();
        let b = old.pop();
        assert_eq!(a, b, "round {round}");
        let (cycle, tag) = a.expect("queue never drains in this loop");
        assert_eq!(cycle, 5);
        new.schedule_at(5, tag + 100);
        old.schedule_at(5, tag + 100);
    }
}

#[test]
fn overflow_events_precede_ring_events_on_the_same_cycle() {
    // Construct the tie directly: one event scheduled while its cycle was
    // out of window (overflow, smaller seq), one scheduled after `now`
    // advanced enough to bring the same cycle in window (ring, larger seq).
    let mut new: Scheduler<&str> = Scheduler::new();
    let mut old: HeapScheduler<&str> = HeapScheduler::new();
    for s in [&mut new as &mut dyn FnSched, &mut old as &mut dyn FnSched] {
        s.sched(1000, "early-scheduled");
        s.sched(900, "stepping-stone");
    }
    assert_eq!(new.pop(), old.pop()); // now = 900; 1000 is in window now.
    new.schedule_at(1000, "late-scheduled");
    old.schedule_at(1000, "late-scheduled");
    assert_eq!(new.pop(), Some((1000, "early-scheduled")));
    assert_eq!(old.pop(), Some((1000, "early-scheduled")));
    assert_eq!(new.pop(), Some((1000, "late-scheduled")));
    assert_eq!(old.pop(), Some((1000, "late-scheduled")));
}

/// Object-safe shim so the tie-break test can drive both schedulers through
/// one loop despite their distinct types.
trait FnSched {
    fn sched(&mut self, at: Cycle, tag: &'static str);
}
impl FnSched for Scheduler<&'static str> {
    fn sched(&mut self, at: Cycle, tag: &'static str) {
        self.schedule_at(at, tag);
    }
}
impl FnSched for HeapScheduler<&'static str> {
    fn sched(&mut self, at: Cycle, tag: &'static str) {
        self.schedule_at(at, tag);
    }
}

/// What the calendar ring and the overflow heap hold at the moment of a
/// clone in [`clone_and_continue`].
#[derive(Debug, Clone, Copy)]
enum Held {
    /// Fully drained — every model-checker state is cloned like this.
    Nothing,
    RingOnly,
    OverflowOnly,
    Both,
}

/// The production scheduler and the reference, driven in lockstep.
struct Pair {
    new: Scheduler<u64>,
    old: HeapScheduler<u64>,
}

impl Pair {
    fn schedule_in(&mut self, delay: Cycle, tag: u64) {
        self.new.schedule_in(delay, tag);
        self.old.schedule_in(delay, tag);
    }
}

/// Runs a random pre-history, drains both schedulers, loads them as `held`
/// says, clones both, and then drives all four through the same further
/// random schedules and pops: original and clone, production and
/// reference, must pop the same sequence.
fn clone_and_continue(seed: u64, held: Held) {
    let mut rng = DetRng::new(seed);
    let mut a = Pair {
        new: Scheduler::new(),
        old: HeapScheduler::new(),
    };
    let mut tag: u64 = 0;

    // Pre-history across both tiers. The first 40 pushes queue enough
    // events to allocate the ring, so after the drain the original holds
    // an empty ring and its clone none: the two take different tiers for
    // the same later pushes.
    for _ in 0..40 {
        a.schedule_in(rng.range(0, 600), tag);
        tag += 1;
    }
    for _ in 0..rng.range(0, 200) {
        if rng.range(0, 100) < 60 {
            a.schedule_in(rng.range(0, 600), tag);
            tag += 1;
        } else {
            assert_eq!(a.new.pop(), a.old.pop(), "seed {seed}: pre-history");
        }
    }
    while let Some(ev) = a.old.pop() {
        assert_eq!(a.new.pop(), Some(ev), "seed {seed}: drain");
    }
    assert!(a.new.is_empty());

    let (ring, overflow) = match held {
        Held::Nothing => (false, false),
        Held::RingOnly => (true, false),
        Held::OverflowOnly => (false, true),
        Held::Both => (true, true),
    };
    for _ in 0..rng.range(1, 12) {
        if ring {
            a.schedule_in(rng.range(0, 256), tag);
            tag += 1;
        }
        if overflow {
            a.schedule_in(rng.range(256, 3000), tag);
            tag += 1;
        }
    }

    let mut b = Pair {
        new: a.new.clone(),
        old: a.old.clone(),
    };
    for op in 0..2000 {
        if rng.range(0, 100) < 50 || a.old.is_empty() {
            let delay = rng.range(0, 600);
            a.schedule_in(delay, tag);
            b.schedule_in(delay, tag);
            tag += 1;
        } else {
            let want = a.old.pop();
            assert!(want.is_some());
            assert_eq!(
                b.old.pop(),
                want,
                "seed {seed} {held:?}: reference clone, op {op}"
            );
            assert_eq!(a.new.pop(), want, "seed {seed} {held:?}: original, op {op}");
            assert_eq!(b.new.pop(), want, "seed {seed} {held:?}: clone, op {op}");
        }
        assert_eq!(b.new.len(), a.old.len());
        assert_eq!(b.new.peek_cycle(), a.old.peek_cycle());
        assert_eq!(b.new.scheduled_events(), a.old.scheduled_events());
    }
    while let Some(ev) = a.old.pop() {
        assert_eq!(b.old.pop(), Some(ev));
        assert_eq!(a.new.pop(), Some(ev), "seed {seed} {held:?}: original tail");
        assert_eq!(b.new.pop(), Some(ev), "seed {seed} {held:?}: clone tail");
    }
    assert_eq!((a.new.pop(), b.new.pop(), b.old.pop()), (None, None, None));
}

#[test]
fn clones_continue_like_the_original_in_every_tier_state() {
    for held in [
        Held::Nothing,
        Held::RingOnly,
        Held::OverflowOnly,
        Held::Both,
    ] {
        for seed in 40..52 {
            clone_and_continue(seed, held);
        }
    }
}
