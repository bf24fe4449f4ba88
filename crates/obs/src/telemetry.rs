//! The streaming telemetry registry: sharded counters, per-lock latency
//! histograms, and scheduler gauges, aggregated incrementally at
//! scheduling boundaries.
//!
//! Where [`crate::lock_profile`] replays a *complete* buffered access log
//! after the run, [`Telemetry`] consumes the same value transitions
//! *incrementally* as the kernel drains the machine's access log at each
//! scheduling boundary, folding every completed wait and hold interval
//! into a fixed-size [`Log2Histogram`] per lock. Memory is
//! O(buckets × locks) plus O(threads) counter shards — never O(events) —
//! so the layer survives the 10k-thread lock-server scenario that the
//! buffered exporters cannot.
//!
//! The state machine mirrors `lock_profile`'s transition rules exactly
//! (RMW of 0 = acquire, RMW/load of nonzero = contended probe, store of
//! 0 = release, nonzero committing store = optimistic acquire), extended
//! with per-thread attribution: the kernel drains accesses while the
//! thread that performed them is still current, so every transition
//! carries its thread. [`exact_lock_replay`] recomputes the same
//! intervals from a complete buffered stream; the differential tests pin
//! the streaming histograms byte-for-byte against histograms fed from
//! that exact replay.

use ras_machine::{AccessKind, MemAccess};

use crate::hist::Log2Histogram;
use crate::{ObsEvent, TimedObsEvent};

/// Handle to a named counter in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a named gauge in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A monotonically increasing counter sharded per guest thread.
///
/// Each thread increments its own shard; shards fold into the aggregate
/// at scheduling boundaries ([`ShardedCounter::flush`]), so the hot
/// update path is a single indexed add and reads never race with
/// updates — the simulator is single-threaded on the host, but the
/// sharding keeps per-thread attribution available for free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedCounter {
    shards: Vec<u64>,
    folded: u64,
}

impl ShardedCounter {
    /// Adds `delta` to `thread`'s shard, growing the shard vector on
    /// first sight of a thread.
    pub fn add(&mut self, thread: u32, delta: u64) {
        let i = thread as usize;
        if i >= self.shards.len() {
            self.shards.resize(i + 1, 0);
        }
        self.shards[i] += delta;
    }

    /// Folds all shards into the aggregate. Idempotent between updates.
    pub fn flush(&mut self) {
        for s in &mut self.shards {
            self.folded += *s;
            *s = 0;
        }
    }

    /// Folds only `thread`'s shard — the scheduling-boundary fold, where
    /// the switched-out thread is the only one that could have updated a
    /// shard since the previous boundary. O(1) instead of O(threads).
    pub fn flush_thread(&mut self, thread: u32) {
        if let Some(s) = self.shards.get_mut(thread as usize) {
            self.folded += *s;
            *s = 0;
        }
    }

    /// The aggregate value, including not-yet-folded shards.
    pub fn value(&self) -> u64 {
        self.folded + self.shards.iter().sum::<u64>()
    }
}

/// A named counter/gauge registry with per-thread counter sharding.
///
/// Names are registered once ([`Registry::counter`] / [`Registry::gauge`]
/// find-or-create) and updated through the returned handles; exporters
/// iterate in registration order, which is deterministic because the
/// telemetry layer registers everything up front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: Vec<(String, ShardedCounter)>,
    gauges: Vec<(String, u64)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Finds or creates the counter called `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters
            .push((name.to_owned(), ShardedCounter::default()));
        CounterId(self.counters.len() - 1)
    }

    /// Adds `delta` to counter `id` on `thread`'s shard.
    pub fn add(&mut self, id: CounterId, thread: u32, delta: u64) {
        self.counters[id.0].1.add(thread, delta);
    }

    /// Finds or creates the gauge called `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_owned(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets gauge `id` to `value`.
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0].1 = value;
    }

    /// Folds every counter's shards (a scheduling-boundary aggregation).
    pub fn flush(&mut self) {
        for (_, c) in &mut self.counters {
            c.flush();
        }
    }

    /// Folds every counter's shard for `thread` only — what a scheduling
    /// boundary needs, since only the outgoing thread ran since the last
    /// one. [`Registry::counters`] reads through unfolded shards either
    /// way; this keeps the boundary cost independent of thread count.
    pub fn flush_thread(&mut self, thread: u32) {
        for (_, c) in &mut self.counters {
            c.flush_thread(thread);
        }
    }

    /// `(name, value)` for every counter, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, c)| (n.as_str(), c.value()))
    }

    /// `(name, value)` for every gauge, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// Streaming per-lock statistics: wait/hold latency histograms plus the
/// transition-replay state needed to close intervals incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockTelemetry {
    /// The lock word's address.
    pub addr: u32,
    /// Completed wait intervals (first contended probe of a thread's
    /// streak to its acquire), in cycles.
    pub wait: Log2Histogram,
    /// Completed hold intervals (acquire to release), in cycles.
    pub hold: Log2Histogram,
    /// Successful acquisitions (RMW of 0 or committing store).
    pub acquisitions: u64,
    /// Releases (stores of 0 while held).
    pub releases: u64,
    /// Probes that found the lock held (failed RMWs and nonzero loads).
    pub contended_probes: u64,
    holder: Option<u32>,
    held_since: u64,
    contending: Vec<(u32, u64)>,
}

impl LockTelemetry {
    fn new(addr: u32) -> LockTelemetry {
        LockTelemetry {
            addr,
            wait: Log2Histogram::new(),
            hold: Log2Histogram::new(),
            acquisitions: 0,
            releases: 0,
            contended_probes: 0,
            holder: None,
            held_since: 0,
            contending: Vec::new(),
        }
    }

    /// The thread currently inferred to hold the lock, if any.
    pub fn holder(&self) -> Option<u32> {
        self.holder
    }
}

/// Per-thread attribution of lock time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTelemetry {
    /// The thread id.
    pub thread: u32,
    /// Locks this thread acquired.
    pub acquisitions: u64,
    /// Cycles this thread spent between first contended probe and
    /// acquire, summed over all locks.
    pub wait_cycles: u64,
    /// Cycles this thread held locks, summed over all locks.
    pub hold_cycles: u64,
}

/// The streaming telemetry aggregate the kernel owns and feeds directly
/// (`Kernel::enable_telemetry`), independent of any [`crate::Recording`].
///
/// Constructed with the set of lock-word addresses to watch; all other
/// accesses are ignored with an offset check (contiguous lock words) or
/// a binary-search miss. Three inputs arrive:
///
/// * [`Telemetry::observe`] — one drained access with the thread that
///   performed it (the kernel drains at every return from the machine,
///   while the performing thread is still current);
/// * [`Telemetry::on_event`] — the structured event stream, used for
///   quantum-utilization sampling and boundary flushes;
/// * [`Telemetry::sample_runqueue`] — ready-queue depth at dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    locks: Vec<LockTelemetry>,
    /// The watched addresses are exactly every word in the range — the
    /// "array of lock words" layout — so the per-access lookup is an
    /// offset computation instead of a binary search.
    dense: bool,
    threads: Vec<ThreadTelemetry>,
    /// Ready-queue depth sampled at every dispatch.
    pub runqueue_depth: Log2Histogram,
    /// Cycles between a thread's dispatch and its switch-out — quantum
    /// utilization (compare against the configured quantum).
    pub quantum_used: Log2Histogram,
    registry: Registry,
    acquisitions_id: CounterId,
    releases_id: CounterId,
    contended_id: CounterId,
    wait_cycles_id: CounterId,
    hold_cycles_id: CounterId,
    runqueue_gauge: GaugeId,
    slice_start: Option<(u32, u64)>,
    boundary_flushes: u64,
    capture_raw: bool,
    raw: Vec<(u32, MemAccess)>,
}

impl Telemetry {
    /// A telemetry aggregate watching `lock_addrs` (deduplicated and
    /// sorted internally).
    pub fn new(lock_addrs: &[u32]) -> Telemetry {
        let mut addrs: Vec<u32> = lock_addrs.to_vec();
        addrs.sort_unstable();
        addrs.dedup();
        let mut registry = Registry::new();
        let acquisitions_id = registry.counter("lock_acquisitions_total");
        let releases_id = registry.counter("lock_releases_total");
        let contended_id = registry.counter("lock_contended_probes_total");
        let wait_cycles_id = registry.counter("lock_wait_cycles_total");
        let hold_cycles_id = registry.counter("lock_hold_cycles_total");
        let runqueue_gauge = registry.gauge("runqueue_depth");
        let dense = !addrs.is_empty()
            && addrs
                .iter()
                .enumerate()
                .all(|(i, &a)| a == addrs[0] + 4 * i as u32);
        Telemetry {
            locks: addrs.into_iter().map(LockTelemetry::new).collect(),
            dense,
            threads: Vec::new(),
            runqueue_depth: Log2Histogram::new(),
            quantum_used: Log2Histogram::new(),
            registry,
            acquisitions_id,
            releases_id,
            contended_id,
            wait_cycles_id,
            hold_cycles_id,
            runqueue_gauge,
            slice_start: None,
            boundary_flushes: 0,
            capture_raw: false,
            raw: Vec::new(),
        }
    }

    /// Also retain every watched `(thread, access)` pair. Test-only
    /// ground truth for [`exact_lock_replay`]; defeats the bounded-memory
    /// guarantee, so production paths leave it off.
    pub fn set_capture_raw(&mut self, on: bool) {
        self.capture_raw = on;
    }

    /// Consumes one drained access performed by `thread`, replaying the
    /// lock-word value transition if the address is watched.
    pub fn observe(&mut self, thread: u32, a: &MemAccess) {
        let i = if self.dense {
            let off = a.addr.wrapping_sub(self.locks[0].addr);
            if off >= 4 * self.locks.len() as u32 || off & 3 != 0 {
                return;
            }
            (off >> 2) as usize
        } else {
            match self.locks.binary_search_by_key(&a.addr, |l| l.addr) {
                Ok(i) => i,
                Err(_) => return,
            }
        };
        if self.capture_raw {
            self.raw.push((thread, *a));
        }
        let clock = a.clock;
        match a.kind {
            AccessKind::Rmw => {
                if a.value == 0 {
                    self.acquire(i, thread, clock);
                } else {
                    self.probe(i, thread, clock);
                }
            }
            AccessKind::Load => {
                if a.value != 0 {
                    self.probe(i, thread, clock);
                }
            }
            AccessKind::Store => {
                if a.value == 0 {
                    self.release(i, clock);
                } else if self.locks[i].holder.is_none() {
                    // Committing store of an optimistic sequence: the
                    // acquire the kernel never saw as an RMW. A nonzero
                    // store while the lock is held is the unconditional
                    // overwrite of a failed Test-And-Set instead — the
                    // attempt was already counted by the load that saw
                    // the lock taken, and ownership does not change.
                    self.acquire(i, thread, clock);
                }
            }
        }
    }

    fn acquire(&mut self, i: usize, thread: u32, clock: u64) {
        let lock = &mut self.locks[i];
        lock.acquisitions += 1;
        if let Some(pos) = lock.contending.iter().position(|&(t, _)| t == thread) {
            let (_, since) = lock.contending.swap_remove(pos);
            let waited = clock - since;
            lock.wait.record(waited);
            self.thread_mut(thread).wait_cycles += waited;
            self.registry.add(self.wait_cycles_id, thread, waited);
        } else {
            // Uncontended fast path: zero wait, recorded so percentiles
            // reflect the full acquisition population.
            lock.wait.record(0);
        }
        let lock = &mut self.locks[i];
        lock.holder = Some(thread);
        lock.held_since = clock;
        self.thread_mut(thread).acquisitions += 1;
        self.registry.add(self.acquisitions_id, thread, 1);
    }

    fn probe(&mut self, i: usize, thread: u32, clock: u64) {
        let lock = &mut self.locks[i];
        lock.contended_probes += 1;
        if !lock.contending.iter().any(|&(t, _)| t == thread) {
            lock.contending.push((thread, clock));
        }
        self.registry.add(self.contended_id, thread, 1);
    }

    fn release(&mut self, i: usize, clock: u64) {
        let lock = &mut self.locks[i];
        let Some(holder) = lock.holder.take() else {
            return;
        };
        let held = clock - lock.held_since;
        lock.hold.record(held);
        lock.releases += 1;
        self.thread_mut(holder).hold_cycles += held;
        self.registry.add(self.hold_cycles_id, holder, held);
        self.registry.add(self.releases_id, holder, 1);
    }

    fn thread_mut(&mut self, thread: u32) -> &mut ThreadTelemetry {
        let i = thread as usize;
        if i >= self.threads.len() {
            // Stamp ids on the newly created tail only: restamping every
            // slot per growth was O(threads²) across a 10k-client spawn
            // wave.
            let old_len = self.threads.len();
            self.threads.resize_with(i + 1, ThreadTelemetry::default);
            for (t, slot) in self.threads.iter_mut().enumerate().skip(old_len) {
                slot.thread = t as u32;
            }
        }
        &mut self.threads[i]
    }

    /// Folds one structured event: dispatch opens a quantum-utilization
    /// interval, switch-out closes it and triggers the boundary flush
    /// that folds counter shards into their aggregates.
    pub fn on_event(&mut self, clock: u64, event: &ObsEvent) {
        match event {
            ObsEvent::Dispatch { thread } => {
                self.slice_start = Some((*thread, clock));
            }
            ObsEvent::SwitchOut { thread, .. } => {
                if let Some((t, since)) = self.slice_start.take() {
                    if t == *thread {
                        self.quantum_used.record(clock - since);
                    }
                }
                self.registry.flush_thread(*thread);
                self.boundary_flushes += 1;
            }
            _ => {}
        }
    }

    /// Records the ready-queue depth observed at a dispatch.
    pub fn sample_runqueue(&mut self, depth: u64) {
        self.runqueue_depth.record(depth);
        self.registry.set_gauge(self.runqueue_gauge, depth);
    }

    /// Per-lock statistics, sorted by address.
    pub fn locks(&self) -> &[LockTelemetry] {
        &self.locks
    }

    /// Per-thread attribution, indexed by thread id.
    pub fn threads(&self) -> &[ThreadTelemetry] {
        &self.threads
    }

    /// The counter/gauge registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// How many scheduling-boundary flushes have run.
    pub fn boundary_flushes(&self) -> u64 {
        self.boundary_flushes
    }

    /// The retained raw stream (empty unless
    /// [`Telemetry::set_capture_raw`] was on).
    pub fn raw(&self) -> &[(u32, MemAccess)] {
        &self.raw
    }
}

/// Exact per-lock intervals recomputed offline from a complete buffered
/// `(thread, access)` stream — the ground truth the streaming histograms
/// are differentially pinned against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactLockStats {
    /// The lock word's address.
    pub addr: u32,
    /// Every completed wait interval, in stream order.
    pub waits: Vec<u64>,
    /// Every completed hold interval, in stream order.
    pub holds: Vec<u64>,
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Releases.
    pub releases: u64,
    /// Contended probes.
    pub contended_probes: u64,
}

/// Batch-replays a complete buffered `(thread, access)` stream with the
/// same transition rules as [`Telemetry::observe`], but keeping every
/// individual interval instead of bucketing. Feeding the returned
/// intervals into a fresh [`Log2Histogram`] must reproduce the streaming
/// histogram byte-for-byte; sorting them gives exact percentiles the
/// bucketed answers must dominate within one bucket.
pub fn exact_lock_replay(raw: &[(u32, MemAccess)], lock_addrs: &[u32]) -> Vec<ExactLockStats> {
    let mut addrs: Vec<u32> = lock_addrs.to_vec();
    addrs.sort_unstable();
    addrs.dedup();
    let mut out: Vec<ExactLockStats> = addrs
        .iter()
        .map(|&addr| ExactLockStats {
            addr,
            ..ExactLockStats::default()
        })
        .collect();
    let mut holders: Vec<Option<(u32, u64)>> = vec![None; addrs.len()];
    let mut contending: Vec<Vec<(u32, u64)>> = vec![Vec::new(); addrs.len()];
    for &(thread, a) in raw {
        let Ok(i) = addrs.binary_search(&a.addr) else {
            continue;
        };
        let acquires = match a.kind {
            AccessKind::Rmw => a.value == 0,
            // A nonzero store acquires only when the lock is free: while
            // held it is a failed Test-And-Set's unconditional overwrite.
            AccessKind::Store => a.value != 0 && holders[i].is_none(),
            AccessKind::Load => false,
        };
        let releases = a.kind == AccessKind::Store && a.value == 0;
        let probes = (a.kind == AccessKind::Rmw || a.kind == AccessKind::Load) && a.value != 0;
        if acquires {
            out[i].acquisitions += 1;
            match contending[i].iter().position(|&(t, _)| t == thread) {
                Some(pos) => {
                    let (_, since) = contending[i].swap_remove(pos);
                    out[i].waits.push(a.clock - since);
                }
                None => out[i].waits.push(0),
            }
            holders[i] = Some((thread, a.clock));
        } else if releases {
            if let Some((_, since)) = holders[i].take() {
                out[i].holds.push(a.clock - since);
                out[i].releases += 1;
            }
        } else if probes {
            out[i].contended_probes += 1;
            if !contending[i].iter().any(|&(t, _)| t == thread) {
                contending[i].push((thread, a.clock));
            }
        }
    }
    out
}

/// Replays a captured event stream into a fresh [`Telemetry`]'s
/// event-driven channels (quantum utilization). Lets tests rebuild the
/// scheduler histograms from a buffered stream and compare with the
/// streamed aggregate.
pub fn replay_events(telemetry: &mut Telemetry, events: &[TimedObsEvent]) {
    for e in events {
        telemetry.on_event(e.clock, &e.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwitchReason;

    fn acc(clock: u64, kind: AccessKind, addr: u32, value: u32) -> MemAccess {
        MemAccess {
            pc: 0,
            addr,
            kind,
            clock,
            atomic: false,
            value,
        }
    }

    const LOCK: u32 = 64;

    #[test]
    fn sharded_counter_folds_at_flush() {
        let mut c = ShardedCounter::default();
        c.add(0, 3);
        c.add(5, 2);
        assert_eq!(c.value(), 5);
        c.flush();
        assert_eq!(c.value(), 5);
        c.add(1, 1);
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn registry_find_or_create_is_stable() {
        let mut r = Registry::new();
        let a = r.counter("ops");
        let b = r.counter("ops");
        assert_eq!(a, b);
        r.add(a, 0, 7);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("ops", 7)]);
        let g = r.gauge("depth");
        r.set_gauge(g, 42);
        assert_eq!(r.gauges().collect::<Vec<_>>(), vec![("depth", 42)]);
    }

    #[test]
    fn contended_handoff_attributes_wait_and_hold() {
        let mut t = Telemetry::new(&[LOCK]);
        // T0 acquires instantly, T1 probes at 10 and 20, T0 releases at
        // 30, T1 acquires at 32, releases at 50.
        t.observe(0, &acc(0, AccessKind::Rmw, LOCK, 0));
        t.observe(1, &acc(10, AccessKind::Rmw, LOCK, 1));
        t.observe(1, &acc(20, AccessKind::Load, LOCK, 1));
        t.observe(0, &acc(30, AccessKind::Store, LOCK, 0));
        t.observe(1, &acc(32, AccessKind::Rmw, LOCK, 0));
        t.observe(1, &acc(50, AccessKind::Store, LOCK, 0));
        let lock = &t.locks()[0];
        assert_eq!(lock.acquisitions, 2);
        assert_eq!(lock.releases, 2);
        assert_eq!(lock.contended_probes, 2);
        assert_eq!(lock.wait.count(), 2);
        // T1 waited 32 - 10 = 22 cycles; T0 waited 0.
        assert_eq!(t.threads()[1].wait_cycles, 22);
        assert_eq!(t.threads()[0].hold_cycles, 30);
        assert_eq!(t.threads()[1].hold_cycles, 18);
        let totals: Vec<(&str, u64)> = t.registry().counters().collect();
        assert!(totals.contains(&("lock_acquisitions_total", 2)));
        assert!(totals.contains(&("lock_wait_cycles_total", 22)));
        assert!(totals.contains(&("lock_hold_cycles_total", 48)));
    }

    #[test]
    fn committing_store_counts_as_optimistic_acquire() {
        let mut t = Telemetry::new(&[LOCK]);
        t.observe(2, &acc(5, AccessKind::Store, LOCK, 1));
        t.observe(2, &acc(25, AccessKind::Store, LOCK, 0));
        let lock = &t.locks()[0];
        assert_eq!(lock.acquisitions, 1);
        assert_eq!(lock.releases, 1);
        assert_eq!(lock.hold.count(), 1);
        assert_eq!(t.threads()[2].hold_cycles, 20);
    }

    #[test]
    fn unwatched_addresses_are_ignored() {
        let mut t = Telemetry::new(&[LOCK]);
        t.observe(0, &acc(0, AccessKind::Rmw, 128, 0));
        t.observe(0, &acc(1, AccessKind::Store, 128, 0));
        assert_eq!(t.locks()[0].acquisitions, 0);
    }

    #[test]
    fn streaming_matches_exact_replay_on_a_synthetic_stream() {
        // A deterministic pseudo-random interleaving over two locks.
        let locks = [64u32, 68];
        let mut stream: Vec<(u32, MemAccess)> = Vec::new();
        let mut state = 0x5eedu64;
        let mut held = [false; 2];
        let mut clock = 0;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let thread = ((state >> 33) % 3) as u32;
            let li = ((state >> 40) % 2) as usize;
            clock += 1 + (state >> 50) % 13;
            if held[li] {
                if state >> 60 < 6 {
                    stream.push((thread, acc(clock, AccessKind::Rmw, locks[li], 1)));
                } else {
                    stream.push((thread, acc(clock, AccessKind::Store, locks[li], 0)));
                    held[li] = false;
                }
            } else {
                stream.push((thread, acc(clock, AccessKind::Rmw, locks[li], 0)));
                held[li] = true;
            }
        }
        let mut streaming = Telemetry::new(&locks);
        for &(thread, a) in &stream {
            streaming.observe(thread, &a);
        }
        let exact = exact_lock_replay(&stream, &locks);
        for (lt, ex) in streaming.locks().iter().zip(exact.iter()) {
            assert_eq!(lt.addr, ex.addr);
            assert_eq!(lt.acquisitions, ex.acquisitions);
            assert_eq!(lt.releases, ex.releases);
            assert_eq!(lt.contended_probes, ex.contended_probes);
            let mut wait = Log2Histogram::new();
            for &w in &ex.waits {
                wait.record(w);
            }
            let mut hold = Log2Histogram::new();
            for &h in &ex.holds {
                hold.record(h);
            }
            assert_eq!(lt.wait, wait, "wait histograms diverge at {:#x}", lt.addr);
            assert_eq!(lt.hold, hold, "hold histograms diverge at {:#x}", lt.addr);
            assert_eq!(lt.wait.percentile_summary(), wait.percentile_summary());
        }
    }

    #[test]
    fn quantum_utilization_and_boundary_flushes() {
        let mut t = Telemetry::new(&[]);
        t.on_event(100, &ObsEvent::Dispatch { thread: 0 });
        t.on_event(
            350,
            &ObsEvent::SwitchOut {
                thread: 0,
                reason: SwitchReason::Quantum,
                inside_sequence: false,
            },
        );
        assert_eq!(t.quantum_used.count(), 1);
        assert_eq!(t.quantum_used.sum(), 250);
        assert_eq!(t.boundary_flushes(), 1);
        t.sample_runqueue(7);
        assert_eq!(t.runqueue_depth.count(), 1);
        assert_eq!(
            t.registry().gauges().collect::<Vec<_>>(),
            vec![("runqueue_depth", 7)]
        );
    }
}
