//! The pool's worker cores, with the counts the hot path reads kept
//! current.
//!
//! Every executed task, every 20 µs tick and every DAG arrival asks the
//! cores the same questions: how many the vRAN holds, how many it holds
//! without a pending release, how many are in service, how many a fault
//! has taken down, and which ones spin idle. [`Cores`] answers each in
//! constant time. Its methods are the only way to change a core's state,
//! pending release, fault or retirement, and each one updates the four
//! counts and the idle set as it goes, so none of the answers needs a scan
//! over the pool's width. The per-task transitions (`Spinning → Busy`,
//! `Busy → Spinning`) change no count and flip one bit of the idle set.

use concordia_ran::time::Nanos;

/// A worker core's state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum CoreState {
    /// Yielded to the OS / best-effort workloads.
    Released,
    /// Signalled; the wake event is in flight.
    Waking,
    /// Granted and polling the queue (busy-wait).
    Spinning,
    /// Executing a task.
    Busy { dag: u32, node: u32 },
}

/// One worker core. Every field is private: only [`Cores`] changes them,
/// so the cached counts cannot drift from the cores they count.
#[derive(Debug, Clone)]
pub(super) struct Core {
    state: CoreState,
    /// Bumped on every state-machine reset so in-flight events for the old
    /// incarnation are ignored.
    epoch: u64,
    /// When the vRAN acquired this core (cache-warmth reference; valid
    /// unless Released).
    held_since: Nanos,
    /// Last time this core's occupancy was flushed into the metrics.
    acct_since: Nanos,
    /// Release as soon as the current task finishes.
    release_pending: bool,
    /// Taken offline by fault injection: cannot be granted until the fault
    /// window clears.
    faulted: bool,
    /// Retired by a runtime pool shrink: permanently out of service (never
    /// granted, never counted in capacity) until a later grow revives the
    /// slot. Kept in place so core indices — and with them per-core
    /// accounting, epochs and trace tracks — stay stable.
    retired: bool,
}

impl Core {
    fn new(state: CoreState, now: Nanos) -> Core {
        Core {
            state,
            epoch: 0,
            held_since: now,
            acct_since: now,
            release_pending: false,
            faulted: false,
            retired: false,
        }
    }

    pub(super) fn state(&self) -> CoreState {
        self.state
    }

    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(super) fn held_since(&self) -> Nanos {
        self.held_since
    }

    pub(super) fn release_pending(&self) -> bool {
        self.release_pending
    }

    pub(super) fn faulted(&self) -> bool {
        self.faulted
    }

    pub(super) fn retired(&self) -> bool {
        self.retired
    }

    /// Held by the vRAN (granted, waking or busy).
    fn granted(&self) -> bool {
        self.state != CoreState::Released
    }

    /// Held and not scheduled for release.
    fn effective(&self) -> bool {
        self.granted() && !self.release_pending
    }

    /// Polling the queue with no release pending: a dispatch target.
    fn idle(&self) -> bool {
        self.state == CoreState::Spinning && !self.release_pending
    }

    /// Lost to a fault window. A retired core is already outside the
    /// capacity, so it is not counted twice against the pool.
    fn offline(&self) -> bool {
        self.faulted && !self.retired
    }
}

/// Core-time accumulated since each core's last accounting flush, split
/// by what the core was doing.
pub(super) struct Occupancy {
    /// Faulted cores.
    pub(super) offline: Nanos,
    /// Released cores (reclaimed for best-effort work).
    pub(super) besteffort: Nanos,
    /// Cores the vRAN held.
    pub(super) vran: Nanos,
}

/// The pool's cores plus the counts and the idle set derived from them.
pub(super) struct Cores {
    cores: Vec<Core>,
    /// Bit `i` is set iff core `i` is [`Core::idle`]. Sized at
    /// construction and grown only by [`Cores::push_released`].
    idle: Vec<u64>,
    /// Cores with [`Core::granted`].
    granted: u32,
    /// Cores with [`Core::effective`].
    effective: u32,
    /// Cores not retired.
    capacity: u32,
    /// Cores with [`Core::offline`].
    offline: u32,
}

impl std::ops::Index<usize> for Cores {
    type Output = Core;

    fn index(&self, i: usize) -> &Core {
        &self.cores[i]
    }
}

impl Cores {
    /// `n` cores, all granted and spinning at time zero.
    pub(super) fn new(n: u32) -> Cores {
        let mut cores = Cores {
            cores: Vec::with_capacity(n as usize),
            idle: Vec::new(),
            granted: 0,
            effective: 0,
            capacity: 0,
            offline: 0,
        };
        for _ in 0..n {
            cores.push(Core::new(CoreState::Spinning, Nanos::ZERO));
        }
        cores
    }

    pub(super) fn len(&self) -> usize {
        self.cores.len()
    }

    pub(super) fn iter(&self) -> std::slice::Iter<'_, Core> {
        self.cores.iter()
    }

    /// Cores currently held by the vRAN (not released).
    pub(super) fn granted(&self) -> u32 {
        self.granted
    }

    /// Cores held and not scheduled for release.
    pub(super) fn effective(&self) -> u32 {
        self.effective
    }

    /// Cores in service (not retired).
    pub(super) fn capacity(&self) -> u32 {
        self.capacity
    }

    /// In-service cores a fault window has taken down.
    pub(super) fn offline(&self) -> u32 {
        self.offline
    }

    /// The lowest-indexed idle core at or above `from`: the index-order
    /// scan for "a spinning core without a pending release", one word of
    /// the idle set at a time.
    pub(super) fn next_idle(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.idle.get(w)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.idle.get(w)?;
        }
    }

    fn set_idle(&mut self, i: usize, idle: bool) {
        let bit = 1u64 << (i % 64);
        if idle {
            self.idle[i / 64] |= bit;
        } else {
            self.idle[i / 64] &= !bit;
        }
    }

    /// Appends `core` and counts it in.
    fn push(&mut self, core: Core) {
        if self.cores.len().is_multiple_of(64) {
            self.idle.push(0);
        }
        self.cores.push(core);
        self.count_in(self.cores.len() - 1);
    }

    /// Adds core `i` to the counts and sets its bit of the idle set.
    fn count_in(&mut self, i: usize) {
        let c = &self.cores[i];
        self.granted += c.granted() as u32;
        self.effective += c.effective() as u32;
        self.capacity += !c.retired as u32;
        self.offline += c.offline() as u32;
        let idle = c.idle();
        self.set_idle(i, idle);
    }

    /// Takes core `i` out of the counts (`count_in` resets its idle bit).
    fn count_out(&mut self, i: usize) {
        let c = &self.cores[i];
        self.granted -= c.granted() as u32;
        self.effective -= c.effective() as u32;
        self.capacity -= !c.retired as u32;
        self.offline -= c.offline() as u32;
    }

    /// Applies `change` to core `i`, moving its share of the counts and of
    /// the idle set from what it was to what it is now.
    fn update(&mut self, i: usize, change: impl FnOnce(&mut Core)) {
        self.count_out(i);
        change(&mut self.cores[i]);
        self.count_in(i);
    }

    /// Runtime grow: appends a released core whose accounting starts at
    /// `now`.
    pub(super) fn push_released(&mut self, now: Nanos) {
        self.push(Core::new(CoreState::Released, now));
    }

    /// Runtime shrink: takes core `i` out of service in place.
    pub(super) fn retire(&mut self, i: usize) {
        self.update(i, |c| c.retired = true);
    }

    /// Runtime grow: brings retired core `i` back into service.
    pub(super) fn revive(&mut self, i: usize) {
        self.update(i, |c| c.retired = false);
    }

    /// Schedules (or cancels) the release of core `i` for when its current
    /// task finishes.
    pub(super) fn set_release_pending(&mut self, i: usize, pending: bool) {
        self.update(i, |c| c.release_pending = pending);
    }

    /// Core `i` starts a task. It was idle, or busy with the task whose
    /// successor it keeps locally; either way no count moves.
    pub(super) fn start(&mut self, i: usize, dag: u32, node: u32) {
        debug_assert!(!self.cores[i].release_pending);
        self.cores[i].state = CoreState::Busy { dag, node };
        self.set_idle(i, false);
    }

    /// Core `i` finished its task and spins; it is a dispatch target
    /// unless its release is pending. No count moves.
    pub(super) fn finish(&mut self, i: usize) {
        let c = &mut self.cores[i];
        c.state = CoreState::Spinning;
        let idle = !c.release_pending;
        self.set_idle(i, idle);
    }

    /// Signals released core `i` back into the vRAN at `now`. Returns the
    /// core's best-effort span since its last flush; the new epoch tags the
    /// wake event.
    pub(super) fn wake(&mut self, i: usize, now: Nanos) -> Nanos {
        let c = &self.cores[i];
        debug_assert_eq!(c.state, CoreState::Released);
        debug_assert!(!c.faulted, "faulted cores are never woken");
        debug_assert!(!c.retired, "retired cores are never woken");
        let span = now.saturating_sub(c.acct_since);
        self.update(i, |c| {
            c.acct_since = now;
            c.epoch += 1;
            c.state = CoreState::Waking;
            c.held_since = now;
            c.release_pending = false;
        });
        span
    }

    /// Core `i`'s wake landed: it spins.
    pub(super) fn wake_done(&mut self, i: usize) {
        self.update(i, |c| c.state = CoreState::Spinning);
    }

    /// Yields core `i` (spinning or waking) at `now`. Returns its held span
    /// since its last flush.
    pub(super) fn release(&mut self, i: usize, now: Nanos) -> Nanos {
        let c = &self.cores[i];
        debug_assert!(c.state != CoreState::Released);
        debug_assert!(!matches!(c.state, CoreState::Busy { .. }));
        let span = now.saturating_sub(c.acct_since);
        self.update(i, |c| {
            c.acct_since = now;
            c.epoch += 1; // invalidates any in-flight Wake
            c.state = CoreState::Released;
            c.release_pending = false;
        });
        span
    }

    /// A fault takes core `i` down at `now`. Returns its span since the
    /// last flush and whether it was released during that span.
    pub(super) fn fail(&mut self, i: usize, now: Nanos) -> (Nanos, bool) {
        let c = &self.cores[i];
        let span = now.saturating_sub(c.acct_since);
        let was_released = c.state == CoreState::Released;
        self.update(i, |c| {
            c.acct_since = now;
            c.epoch += 1; // invalidates in-flight Wake / TaskFinish events
            c.state = CoreState::Released;
            c.release_pending = false;
            c.faulted = true;
        });
        (span, was_released)
    }

    /// Faulted core `i` comes back, released, at `now`. Returns its offline
    /// span.
    pub(super) fn restore(&mut self, i: usize, now: Nanos) -> Nanos {
        let span = now.saturating_sub(self.cores[i].acct_since);
        self.update(i, |c| {
            c.acct_since = now;
            c.faulted = false;
        });
        span
    }

    /// Flushes every core's in-progress occupancy up to `now`.
    pub(super) fn flush(&mut self, now: Nanos) -> Occupancy {
        let mut occ = Occupancy {
            offline: Nanos::ZERO,
            besteffort: Nanos::ZERO,
            vran: Nanos::ZERO,
        };
        for c in &mut self.cores {
            let span = now.saturating_sub(c.acct_since);
            c.acct_since = now;
            if c.faulted {
                occ.offline += span;
            } else if c.state == CoreState::Released {
                occ.besteffort += span;
            } else {
                occ.vran += span;
            }
        }
        occ
    }

    /// Debug builds: the cached counts and the idle set equal a recount
    /// over the cores.
    #[cfg(debug_assertions)]
    pub(super) fn check(&self) {
        let (mut granted, mut effective, mut capacity, mut offline) = (0, 0, 0, 0);
        for (i, c) in self.cores.iter().enumerate() {
            granted += c.granted() as u32;
            effective += c.effective() as u32;
            capacity += !c.retired as u32;
            offline += c.offline() as u32;
            let bit = self.idle[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, c.idle(), "idle bit of core {i}");
        }
        assert_eq!(self.granted, granted, "granted-core count");
        assert_eq!(self.effective, effective, "effective count");
        assert_eq!(self.capacity, capacity, "capacity");
        assert_eq!(self.offline, offline, "offline-core count");
        assert_eq!(self.idle.len(), self.cores.len().div_ceil(64), "idle words");
        let used = self.cores.len() % 64;
        if used > 0 {
            assert_eq!(
                self.idle[self.idle.len() - 1] >> used,
                0,
                "idle bits past the last core"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `next_idle` from every start index agrees with a scan over the
    /// cores.
    fn walk_matches_scan(cores: &Cores) -> bool {
        (0..=cores.len() + 64)
            .all(|from| cores.next_idle(from) == (from..cores.len()).find(|&i| cores[i].idle()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn idle_walk_and_counts_follow_every_transition(
            width in 1u32..200,
            ops in proptest::collection::vec((0u8..9, 0usize..1_000), 0..300),
        ) {
            let mut cores = Cores::new(width);
            let now = Nanos::ZERO;
            for (op, i) in ops {
                let i = i % cores.len();
                let c = &cores[i];
                let out_of_service = c.faulted || c.retired;
                match (op, c.state) {
                    (0, CoreState::Spinning) if !c.release_pending => cores.start(i, 0, 0),
                    (1, CoreState::Busy { .. }) => cores.finish(i),
                    (2, CoreState::Spinning | CoreState::Waking) => {
                        cores.release(i, now);
                    }
                    (3, CoreState::Released) if !out_of_service => {
                        cores.wake(i, now);
                    }
                    (4, CoreState::Waking) => cores.wake_done(i),
                    (5, CoreState::Busy { .. }) => {
                        let pending = c.release_pending;
                        cores.set_release_pending(i, !pending);
                    }
                    (6, _) => cores.push_released(now),
                    (7, _) if c.retired => cores.revive(i),
                    (7, _) => cores.retire(i),
                    (8, _) if c.faulted => {
                        cores.restore(i, now);
                    }
                    (8, _) => {
                        cores.fail(i, now);
                    }
                    _ => {}
                }
                #[cfg(debug_assertions)]
                cores.check();
                prop_assert!(walk_matches_scan(&cores));
            }
        }
    }
}
