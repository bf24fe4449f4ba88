use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use ras_isa::{
    abi, CodeAddr, DataAddr, DataImage, DecodedProgram, Program, Reg, RseqCs,
    RSEQ_CS_NO_RESTART_ON_PREEMPT,
};
use ras_machine::{
    CpuProfile, EngineKind, Exit, Fault, Machine, PagingConfig, RegFile, TranslationCache,
    TranslationStats,
};
use ras_obs::{ObsEvent, Recorder, Recording, SwitchReason, Telemetry};

use crate::runq::{join_push, IntrusiveQueue, WaitBuckets, WaitCheckpoint, NIL};
use crate::{
    CheckTime, Event, KernelStats, PreemptionPolicy, Strategy, StrategyKind, Tcb, ThreadId,
    ThreadState, TimedEvent,
};

/// Configuration for [`Kernel::boot`].
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// The CPU the kernel runs on.
    pub profile: CpuProfile,
    /// Data memory size in bytes.
    pub mem_bytes: u32,
    /// Which atomicity strategy the kernel supports.
    pub strategy: StrategyKind,
    /// When the PC check runs (§4.1).
    pub check_time: CheckTime,
    /// Preemption quantum in cycles. The DECstation's 100 Hz tick at
    /// 25 MHz corresponds to 250,000 cycles.
    pub quantum: u64,
    /// Extra random delay added to each quantum, `0..=jitter` cycles.
    pub jitter: u64,
    /// Seed for the jitter generator.
    pub seed: u64,
    /// Optional demand paging.
    pub paging: Option<PagingConfig>,
    /// Per-thread stack size in bytes.
    pub stack_bytes: u32,
    /// Maximum number of threads (TCBs are never reclaimed).
    pub max_threads: usize,
    /// Collect the per-opcode instruction mix. Off by default: the
    /// histogram adds bookkeeping to the machine's hot loop, so only
    /// experiments that read [`ras_machine::Machine::instruction_mix`]
    /// should turn it on.
    pub collect_mix: bool,
    /// Which execution engine drives guest timeslices. The translated
    /// engine compiles hot traces into host closures (see
    /// [`ras_machine::TranslationCache`]) and is architecturally
    /// indistinguishable from the interpreter; the kernel builds the
    /// cache once at boot and shares it across every thread, since all
    /// threads execute the same program image.
    pub engine: EngineKind,
}

impl KernelConfig {
    /// A configuration with paper-realistic defaults: 8 MiB of memory, a
    /// 250,000-cycle quantum (10 ms at 25 MHz), 64 KiB stacks.
    pub fn new(profile: CpuProfile, strategy: StrategyKind) -> KernelConfig {
        KernelConfig {
            profile,
            mem_bytes: 8 * 1024 * 1024,
            strategy,
            check_time: CheckTime::OnSuspend,
            quantum: 250_000,
            jitter: 0,
            seed: 0,
            paging: None,
            stack_bytes: abi::DEFAULT_STACK_BYTES,
            max_threads: 64,
            collect_mix: false,
            engine: EngineKind::default(),
        }
    }
}

/// Why [`Kernel::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread exited.
    Completed,
    /// A thread executed `halt` directly (bare-metal style programs).
    Halted,
    /// No thread is runnable but some are blocked — a guest deadlock.
    Deadlock {
        /// The blocked threads.
        blocked: Vec<ThreadId>,
    },
    /// A thread faulted irrecoverably (guest bug).
    Fault {
        /// The faulting thread.
        thread: ThreadId,
        /// The fault.
        fault: Fault,
    },
    /// The cycle budget given to [`Kernel::run`] ran out; call `run` again
    /// to continue.
    OutOfFuel,
}

/// What a single [`Kernel::step_once`] call did.
///
/// Unlike [`Outcome`], this reports progress at instruction granularity:
/// the model checker in `ras-model` inspects the kernel between steps and
/// injects preemptions explicitly instead of relying on the timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// A thread was dispatched, or retired one instruction (possibly a
    /// syscall, handled to completion).
    Ran {
        /// The thread that made progress.
        thread: ThreadId,
    },
    /// Nothing runnable; the processor idled until the earliest sleeping
    /// thread's wake-up time.
    Idled,
    /// Every thread exited.
    Completed,
    /// A thread executed `halt` directly.
    Halted {
        /// The halting thread.
        thread: ThreadId,
    },
    /// No thread is runnable or sleeping but some are blocked.
    Deadlock {
        /// The blocked threads.
        blocked: Vec<ThreadId>,
    },
    /// A thread faulted irrecoverably.
    Fault {
        /// The faulting thread.
        thread: ThreadId,
        /// The fault.
        fault: Fault,
    },
}

/// Error booting a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// The data image does not fit below the stack region.
    DataTooLarge {
        /// Bytes required by the data image.
        need: u32,
        /// Bytes available.
        have: u32,
    },
    /// The program has no instructions.
    EmptyProgram,
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::DataTooLarge { need, have } => {
                write!(
                    f,
                    "data image needs {need} bytes but only {have} fit below the stacks"
                )
            }
            BootError::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for BootError {}

/// The simulated uniprocessor operating system.
///
/// Owns the machine, the program image, every thread's saved state, the
/// run and wait queues, and the configured atomicity strategy. Drives
/// execution with a preemption timer and performs the restartable-atomic-
/// sequence PC checks whenever a thread is suspended (§3–§4 of the paper).
///
/// # Example
///
/// ```
/// use ras_isa::{abi, Asm, DataLayout, Reg};
/// use ras_kernel::{Kernel, KernelConfig, Outcome, StrategyKind};
/// use ras_machine::CpuProfile;
///
/// // A main thread that stores 7 to address 0 and exits.
/// let mut asm = Asm::new();
/// asm.li(Reg::T0, 7);
/// asm.sw(Reg::T0, Reg::ZERO, 0);
/// asm.li(Reg::V0, abi::SYS_EXIT as i32);
/// asm.syscall();
/// let program = asm.finish()?;
///
/// let config = KernelConfig::new(CpuProfile::r3000(), StrategyKind::None);
/// let mut kernel = Kernel::boot(config, program, &DataLayout::new().finish())?;
/// assert_eq!(kernel.run(1_000_000), Outcome::Completed);
/// assert_eq!(kernel.read_word(0)?, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    machine: Machine,
    /// The linkable image (symbols, sequence ranges) — shared so cloning a
    /// kernel snapshot (the model checker does this per decision point) is
    /// a reference-count bump, not a code copy.
    program: Arc<Program>,
    /// The predecoded execution image the machine actually runs. Built
    /// once at boot; `Program::patch` only happens pre-boot.
    decoded: Arc<DecodedProgram>,
    threads: Vec<Tcb>,
    /// Intrusive ready FIFO threaded through `threads`; every
    /// enqueue/dequeue/targeted-removal path is O(1) and `len` is a
    /// maintained counter.
    ready: IntrusiveQueue,
    current: Option<ThreadId>,
    last_running: Option<ThreadId>,
    strategy: Strategy,
    check_time: CheckTime,
    policy: PreemptionPolicy,
    slice_deadline: u64,
    /// Futex-style wait buckets keyed by lock word; chains threaded
    /// through `threads`. Join chains hang off each target's TCB.
    waiters: WaitBuckets,
    /// Sleeping threads ordered by wake time (min-heap).
    sleepers: std::collections::BinaryHeap<std::cmp::Reverse<(u64, ThreadId)>>,
    stats: KernelStats,
    output: Vec<u32>,
    live: usize,
    data_end: u32,
    stack_bytes: u32,
    max_threads: usize,
    page_fifo: VecDeque<usize>,
    max_resident: usize,
    timeline: Option<Vec<TimedEvent>>,
    /// Structured observability recording ([`ras_obs`]). Boxed so the
    /// disabled case costs one pointer in the TCB-dense kernel struct and
    /// a snapshot clone (the model checker's per-decision copy) stays
    /// cheap. `None` means every emit site is a single branch.
    recording: Option<Box<Recording>>,
    /// Streaming lock/scheduler telemetry ([`ras_obs::Telemetry`]),
    /// standalone so enabling it does not drag the full [`Recording`]
    /// event fold along: a telemetry run pays for the boundary drains
    /// and the two scheduler events it consumes, nothing else.
    telemetry: Option<Box<Telemetry>>,
    /// A fault detected inside a kernel path (e.g. user stack overflow
    /// during a redirect), delivered at the top of the run loop.
    pending_fault: Option<(ThreadId, Fault)>,
    /// The translation cache when the kernel was booted with
    /// [`EngineKind::Translated`]; `None` runs the plain interpreter.
    /// Derived state: rebuilt from the program at boot, shared across
    /// threads, and deliberately absent from [`Checkpoint`] — rewinding
    /// guest state never invalidates compiled code, and heat counters
    /// are observational, like the timeline.
    translation: Option<TranslationCache>,
}

/// A lightweight kernel checkpoint: everything [`Kernel::restore`]
/// rewinds *by value* — thread control blocks, queues, scheduler and
/// strategy state, statistics — plus a machine checkpoint whose undo-log
/// mark rewinds guest memory in O(stores since the checkpoint).
///
/// The by-value part is tiny (the TCB slab and a few queue headers);
/// the guest memory image, which dominates a full [`Kernel::clone`],
/// is never copied. This is what lets the model checker's DFS rewind a
/// sibling branch for the cost of the writes the branch made. Since the
/// scheduler's chains (ready queue, wait buckets, join chains) are
/// threaded *through* the TCBs, cloning the slab captures them too:
/// the former per-node `HashMap` clones are now twelve-byte headers.
///
/// Append-only observational state (timeline, obs recording, the
/// machine's mix/trace/profile collectors) is not rewound: it describes
/// what was executed, and the explorer runs with it disabled.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    machine: ras_machine::MachineCheckpoint,
    threads: Vec<Tcb>,
    ready: IntrusiveQueue,
    current: Option<ThreadId>,
    last_running: Option<ThreadId>,
    /// The one piece of mutable strategy state: the Mach-style explicit
    /// registration (`SYS_RAS_REGISTER` replaces it). `None` also for
    /// strategies without a registration slot.
    registered_range: Option<(CodeAddr, u32)>,
    policy: PreemptionPolicy,
    slice_deadline: u64,
    waiters: WaitCheckpoint,
    sleepers: std::collections::BinaryHeap<std::cmp::Reverse<(u64, ThreadId)>>,
    stats: KernelStats,
    output_len: usize,
    live: usize,
    page_fifo: VecDeque<usize>,
    pending_fault: Option<(ThreadId, Fault)>,
}

impl Checkpoint {
    /// Approximate bytes this checkpoint copied by value — what the
    /// explorer's `snapshot_bytes` counter accumulates, for comparing
    /// checkpointing against full kernel clones.
    pub fn approx_bytes(&self) -> u64 {
        let tcbs = self.threads.len() * std::mem::size_of::<Tcb>();
        let queues = (self.sleepers.len() + self.page_fifo.len()) * std::mem::size_of::<ThreadId>()
            + self.waiters.approx_bytes();
        let fixed = std::mem::size_of::<Checkpoint>();
        (tcbs + queues + fixed) as u64
    }
}

impl Kernel {
    /// Boots a kernel: installs the data image, configures paging and the
    /// timer, and creates the main thread at the program's entry point.
    ///
    /// # Errors
    ///
    /// Returns [`BootError`] if the program is empty or the data image
    /// does not fit.
    pub fn boot(
        config: KernelConfig,
        program: Program,
        data: &DataImage,
    ) -> Result<Kernel, BootError> {
        if program.is_empty() {
            return Err(BootError::EmptyProgram);
        }
        let mut machine = Machine::new(config.profile.clone(), config.mem_bytes);
        if config.collect_mix {
            machine.enable_mix();
        }
        let stack_region = config.stack_bytes * config.max_threads as u32;
        let have = config.mem_bytes.saturating_sub(stack_region);
        if data.len_bytes() > have {
            return Err(BootError::DataTooLarge {
                need: data.len_bytes(),
                have,
            });
        }
        for &(addr, value) in data.initializers() {
            machine
                .mem_mut()
                .store_kernel(addr, value)
                .expect("initializer inside validated image");
        }
        let max_resident = config.paging.map_or(0, |p| p.max_resident);
        if let Some(paging) = config.paging {
            machine.mem_mut().enable_paging(paging);
        }
        let policy = PreemptionPolicy::new(config.quantum, config.jitter, config.seed);
        let decoded = Arc::new(DecodedProgram::new(&program));
        let translation = match config.engine {
            EngineKind::Interpreter => None,
            EngineKind::Translated => {
                // Rollback and abort targets become extra block leaders:
                // a thread restarted at a sequence head (or landing on an
                // rseq abort handler) resumes straight into compiled code
                // instead of interpreting its way to the next leader.
                let mut extra: Vec<CodeAddr> = Vec::new();
                for r in program.seq_ranges() {
                    extra.push(r.start);
                    extra.push(r.end());
                }
                for d in program.rseq_descs() {
                    extra.push(d.start_ip);
                    extra.extend(d.post_commit_ip());
                    extra.push(d.abort_ip);
                }
                Some(TranslationCache::new(&decoded, &config.profile, &extra))
            }
        };
        let mut kernel = Kernel {
            machine,
            program: Arc::new(program),
            decoded,
            // Pooled up front: spawning the 10k-client workload never
            // reallocates the TCB slab (which intrusive links thread
            // through) mid-run.
            threads: Vec::with_capacity(config.max_threads),
            ready: IntrusiveQueue::EMPTY,
            current: None,
            last_running: None,
            strategy: Strategy::from_kind(&config.strategy),
            check_time: config.check_time,
            policy,
            slice_deadline: 0,
            waiters: WaitBuckets::new(config.max_threads),
            sleepers: std::collections::BinaryHeap::new(),
            stats: KernelStats::new(),
            output: Vec::new(),
            live: 0,
            data_end: data.len_bytes(),
            stack_bytes: config.stack_bytes,
            max_threads: config.max_threads,
            page_fifo: VecDeque::new(),
            max_resident,
            timeline: None,
            recording: None,
            telemetry: None,
            pending_fault: None,
            translation,
        };
        let entry = kernel.program.entry();
        kernel
            .spawn_thread(entry, 0)
            .expect("main thread always fits");
        Ok(kernel)
    }

    // --- accessors ---------------------------------------------------------

    /// The machine (clock, memory, profile).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The loaded program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The execution engine this kernel was booted with.
    pub fn engine(&self) -> EngineKind {
        if self.translation.is_some() {
            EngineKind::Translated
        } else {
            EngineKind::Interpreter
        }
    }

    /// Translation-tier statistics, or `None` under the interpreter
    /// engine.
    pub fn translation_stats(&self) -> Option<TranslationStats> {
        self.translation.as_ref().map(|c| c.stats())
    }

    /// Values logged by guest `SYS_PRINT` calls.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Number of threads ever created.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// A thread's scheduling state.
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated.
    pub fn thread_state(&self, id: ThreadId) -> &ThreadState {
        &self.threads[id.0 as usize].state
    }

    /// User-mode cycles a thread has executed so far.
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated.
    pub fn thread_cycles(&self, id: ThreadId) -> u64 {
        self.threads[id.0 as usize].user_cycles
    }

    /// Reads a word of guest memory (kernel-privileged).
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-range addresses.
    pub fn read_word(&self, addr: DataAddr) -> Result<u32, ras_machine::MemError> {
        self.machine.mem().load_kernel(addr)
    }

    /// Writes a word of guest memory (kernel-privileged).
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-range addresses.
    pub fn write_word(&mut self, addr: DataAddr, value: u32) -> Result<(), ras_machine::MemError> {
        self.machine.mem_mut().store_kernel(addr, value)
    }

    /// Starts recording the event timeline. Every scheduling and recovery
    /// decision from this point on is appended (unbounded — enable only
    /// for runs you intend to inspect).
    pub fn enable_timeline(&mut self) {
        if self.timeline.is_none() {
            self.timeline = Some(Vec::new());
            // Threads spawned before this point (at minimum the main
            // thread, created during boot) produced no Spawn events; the
            // Boot marker tells consumers how many they missed.
            self.record(Event::Boot {
                threads: self.threads.len() as u32,
            });
        }
    }

    /// The recorded events (empty unless [`Kernel::enable_timeline`] was
    /// called).
    pub fn timeline(&self) -> &[TimedEvent] {
        self.timeline.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, event: Event) {
        if let Some(log) = &mut self.timeline {
            log.push(TimedEvent {
                clock: self.machine.clock(),
                event,
            });
        }
    }

    /// Starts structured observability recording (see [`ras_obs`]).
    /// Metrics are always aggregated; the full event stream (needed for
    /// Perfetto export) is kept only when `capture_events` is true.
    /// Idempotent: a second call never discards an active recording.
    pub fn enable_recording(&mut self, capture_events: bool) {
        if self.recording.is_none() {
            self.recording = Some(Box::new(Recording::new(capture_events)));
            self.emit(ObsEvent::Boot {
                threads: self.threads.len() as u32,
            });
        }
    }

    /// The active recording, if [`Kernel::enable_recording`] was called.
    pub fn recording(&self) -> Option<&Recording> {
        self.recording.as_deref()
    }

    /// Stops recording and returns everything captured so far.
    pub fn take_recording(&mut self) -> Option<Recording> {
        self.recording.take().map(|boxed| *boxed)
    }

    /// Starts streaming lock/scheduler telemetry over `lock_addrs` (see
    /// [`ras_obs::Telemetry`]). Turns on the machine's access log and
    /// attaches a standalone [`Telemetry`] aggregate — deliberately
    /// *not* a full [`Recording`]: telemetry consumes only the two
    /// scheduler events (dispatch, switch-out) and the boundary drains,
    /// so enabling it does not buy the whole per-event metrics fold.
    /// The kernel drains the access log at every scheduling boundary,
    /// so memory stays O(locks × histogram buckets) regardless of run
    /// length. Idempotent: a second call never discards an aggregate.
    ///
    /// With `capture_raw` true the aggregate additionally retains every
    /// watched access — O(events) memory, intended only for differential
    /// tests that compare streaming percentiles against exact ones.
    pub fn enable_telemetry(&mut self, lock_addrs: &[u32], capture_raw: bool) {
        self.machine.enable_access_log();
        // Filter at the source: only the watched lock words enter the
        // log, so its growth between boundary drains tracks lock
        // traffic, not total memory traffic.
        self.machine.set_access_watch(lock_addrs);
        if self.telemetry.is_none() {
            let mut telemetry = Telemetry::new(lock_addrs);
            telemetry.set_capture_raw(capture_raw);
            self.telemetry = Some(Box::new(telemetry));
        }
    }

    /// The attached telemetry aggregate, if [`Kernel::enable_telemetry`]
    /// was called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches and returns the telemetry aggregate (flushing nothing:
    /// call after the run loop has returned, when all boundaries have
    /// been drained).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take().map(|boxed| *boxed)
    }

    /// Drains the machine's access log into the telemetry aggregate,
    /// attributing every access to `tid` — called at scheduling
    /// boundaries while the thread that performed the accesses is still
    /// current, so attribution is exact. No-op without telemetry.
    fn drain_telemetry(&mut self, tid: ThreadId) {
        let Kernel {
            machine, telemetry, ..
        } = self;
        if let Some(tel) = telemetry.as_deref_mut() {
            machine.drain_accesses(|a| tel.observe(tid.0, a));
        }
    }

    /// Whether any structured-event consumer is attached — the emit
    /// sites that compute extra context (e.g. "inside a sequence?")
    /// before constructing a switch-out event gate on this.
    fn observing(&self) -> bool {
        self.recording.is_some() || self.telemetry.is_some()
    }

    /// Enables the machine's per-PC cycle histogram (see
    /// [`ras_machine::Machine::enable_pc_profile`]).
    pub fn enable_pc_profile(&mut self) {
        self.machine.enable_pc_profile();
    }

    /// Cycles retired per PC (empty unless
    /// [`Kernel::enable_pc_profile`] was called).
    pub fn pc_cycles(&self) -> &[u64] {
        self.machine.pc_cycles()
    }

    fn emit(&mut self, event: ObsEvent) {
        if let Some(rec) = &mut self.recording {
            rec.record(self.machine.clock(), &event);
        }
        if let Some(tel) = &mut self.telemetry {
            tel.on_event(self.machine.clock(), &event);
        }
    }

    /// Whether `tid`'s saved PC lies strictly inside an atomic sequence —
    /// i.e. a suspension right now would interrupt partially-executed
    /// atomic work. The first instruction of a sequence is excluded: a
    /// thread parked exactly at the start has done no atomic work yet.
    fn pc_inside_sequence(&self, tid: ThreadId) -> bool {
        if self.machine.atomic_restart_pc().is_some() {
            return true;
        }
        let pc = self.threads[tid.0 as usize].regs.pc();
        if let Some((start, len)) = self.registered_range() {
            return pc > start && pc < start + len;
        }
        self.program
            .seq_ranges()
            .iter()
            .any(|r| r.contains(pc) && pc != r.start)
    }

    /// Straight-line cycle estimate of the work a rollback discards: the
    /// cost of every instruction in `[to, from)`. Sequences are loop-free
    /// by construction (ras-analyze verifies this), so the straight-line
    /// sum is exact for the common case of forward-only bodies.
    fn reexec_cycles(&self, from: CodeAddr, to: CodeAddr) -> u64 {
        let cost = *self.machine.profile().cost();
        (to..from)
            .filter_map(|pc| self.decoded.fetch(pc))
            .map(|inst| cost.inst_cycles(&inst))
            .sum()
    }

    /// Records a sequence rollback on both channels: the kernel timeline
    /// and, when recording, an [`ObsEvent::Rollback`] with the wasted
    /// re-execution cycles attributed.
    fn record_restart(&mut self, tid: ThreadId, from: CodeAddr, to: CodeAddr) {
        self.record(Event::Restart {
            thread: tid,
            from,
            to,
        });
        if self.recording.is_some() {
            let wasted = self.reexec_cycles(from, to);
            self.emit(ObsEvent::Rollback {
                thread: tid.0,
                from,
                to,
                wasted_cycles: wasted,
            });
        }
    }

    /// The registered restartable-sequence range, if the strategy is
    /// explicit registration and a registration has been made.
    pub fn registered_range(&self) -> Option<(CodeAddr, u32)> {
        match &self.strategy {
            Strategy::Registered { range } => *range,
            _ => None,
        }
    }

    /// The currently running thread, if any.
    pub fn current_thread(&self) -> Option<ThreadId> {
        self.current
    }

    /// The ready queue, front (next to dispatch) first.
    pub fn ready_threads(&self) -> Vec<ThreadId> {
        self.ready.iter(&self.threads).collect()
    }

    /// The number of ready threads — a maintained counter, not a scan.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Iterates the ready queue in dispatch order without allocating.
    pub fn ready_iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.ready.iter(&self.threads)
    }

    /// Scheduler queue depths as maintained counters: `(ready, waiting)`
    /// where `waiting` counts threads parked on lock words. O(1) — the
    /// former implementation summed every waiter queue per call, which
    /// telemetry's runqueue sampling paid on every dispatch.
    pub fn queues(&self) -> (usize, usize) {
        (self.ready.len(), self.waiters.waiting())
    }

    /// A thread's saved register state (authoritative whenever the thread
    /// is not running; for the running thread this is also the live state,
    /// since the machine operates on the TCB's registers in place).
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated.
    pub fn thread_regs(&self, id: ThreadId) -> &RegFile {
        &self.threads[id.0 as usize].regs
    }

    /// One past the last byte of the static data image. Addresses below
    /// this are shared data; addresses at or above it are thread stacks.
    pub fn data_end(&self) -> u32 {
        self.data_end
    }

    /// The `[bottom, top)` byte range of a thread's stack.
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated.
    pub fn thread_stack_range(&self, id: ThreadId) -> (DataAddr, DataAddr) {
        let top = self.threads[id.0 as usize].stack_top;
        (top.saturating_sub(self.stack_bytes), top)
    }

    // --- thread management --------------------------------------------------

    fn spawn_thread(&mut self, entry: CodeAddr, arg: u32) -> Result<ThreadId, ()> {
        if self.threads.len() >= self.max_threads {
            return Err(());
        }
        let id = ThreadId(self.threads.len() as u32);
        let stack_top = self.machine.mem().len_bytes() - id.0 * self.stack_bytes;
        let stack_bottom = stack_top.saturating_sub(self.stack_bytes);
        if stack_bottom < self.data_end {
            return Err(());
        }
        let mut regs = RegFile::new(entry);
        regs.set(Reg::A0, arg);
        regs.set(Reg::SP, stack_top - 16);
        regs.set(Reg::GP, id.0);
        // A return from the top-level function lands at an invalid PC and
        // faults loudly instead of silently running off.
        regs.set(Reg::RA, u32::MAX);
        self.threads.push(Tcb::new(id, regs, stack_top));
        self.ready.push_back(&mut self.threads, id);
        self.live += 1;
        self.stats.threads_spawned += 1;
        self.record(Event::Spawn { thread: id });
        self.emit(ObsEvent::Spawn { thread: id.0 });
        Ok(id)
    }

    fn charge_kernel(&mut self, cycles: u64) {
        self.machine.charge(cycles);
        self.stats.kernel_cycles += cycles;
    }

    /// The PC check and rollback applied when a thread is suspended (or
    /// resumed, per [`CheckTime`]). Shared by every suspension site.
    fn apply_strategy_check(&mut self, tid: ThreadId) {
        // The i860 restart bit is hardware state, inspected on every
        // transfer out of the kernel regardless of strategy; it can only
        // be set under the HardwareBit strategy's guest code.
        if let Some(restart) = self.machine.atomic_restart_pc() {
            let from = self.threads[tid.0 as usize].regs.pc();
            self.threads[tid.0 as usize].regs.set_pc(restart);
            self.machine.clear_atomic_bit();
            self.stats.ras_restarts += 1;
            self.stats.ras_checks += 1;
            self.record_restart(tid, from, restart);
            return;
        }
        if matches!(self.strategy, Strategy::Rseq) {
            self.apply_rseq_check(tid);
            return;
        }
        let pc = self.threads[tid.0 as usize].regs.pc();
        let cost = *self.machine.profile().cost();
        let (rollback, cycles) = self
            .strategy
            .check(&self.program, pc, &cost, &mut self.stats);
        self.charge_kernel(cycles);
        if let Some(start) = rollback {
            self.threads[tid.0 as usize].regs.set_pc(start);
            self.record_restart(tid, pc, start);
        }
    }

    /// The rseq strategy's preemption-time fixup, mirroring Linux's
    /// `rseq_ip_fixup`: load the suspended thread's published descriptor
    /// and, if its PC lies inside the critical-section window, redirect it
    /// to the descriptor's abort handler. The window is half-open
    /// `[start_ip, start_ip + post_commit_offset)`: a thread suspended
    /// exactly at the post-commit PC has committed and is left alone.
    ///
    /// This lives on the kernel (not [`Strategy::check`]) because it needs
    /// the thread's TCB registration and guest memory.
    fn apply_rseq_check(&mut self, tid: ThreadId) {
        let Some(area) = self.threads[tid.0 as usize].rseq_area else {
            return;
        };
        self.stats.rseq_checks += 1;
        let cost = *self.machine.profile().cost();
        self.charge_kernel(u64::from(cost.rseq_check));
        let cs_addr = self.machine.mem().load_kernel(area).unwrap_or(0);
        if cs_addr == 0 {
            return;
        }
        // A descriptor word past the address space reads like any other
        // failed load.
        let word = |k: u32| {
            cs_addr
                .checked_add(4 * k)
                .and_then(|addr| self.machine.mem().load_kernel(addr).ok())
                .unwrap_or(0)
        };
        let desc = RseqCs {
            start_ip: word(0),
            post_commit_offset: word(1),
            abort_ip: word(2),
            flags: word(3),
            cs_addr,
        };
        let pc = self.threads[tid.0 as usize].regs.pc();
        if !desc.contains(pc) {
            // Outside the window with a descriptor still published: the
            // section committed (or was never entered). Clear the stale
            // pointer lazily, as Linux does, so it cannot abort a later
            // unrelated suspension at a reused address.
            let _ = self.machine.mem_mut().store_kernel(area, 0);
            return;
        }
        if desc.flags & RSEQ_CS_NO_RESTART_ON_PREEMPT != 0 {
            return;
        }
        self.threads[tid.0 as usize].regs.set_pc(desc.abort_ip);
        let _ = self.machine.mem_mut().store_kernel(area, 0);
        self.stats.rseq_aborts += 1;
        self.record(Event::RseqAbort {
            thread: tid,
            from: pc,
            abort_ip: desc.abort_ip,
        });
        if self.recording.is_some() {
            // The work thrown away is the executed window prefix
            // `[start_ip, pc)`; `record_restart`'s `(to..from)` framing
            // does not fit a forward jump to the handler.
            let wasted = self.reexec_cycles(pc, desc.start_ip);
            self.emit(ObsEvent::RseqAbort {
                thread: tid.0,
                from: pc,
                abort_ip: desc.abort_ip,
                wasted_cycles: wasted,
            });
        }
    }

    /// The suspended thread's registered rseq area address, if any — the
    /// model checker folds this into its state hash.
    pub fn thread_rseq_area(&self, id: ThreadId) -> Option<DataAddr> {
        self.threads[id.0 as usize].rseq_area
    }

    /// Bookkeeping common to every involuntary or voluntary suspension.
    fn suspend(&mut self, tid: ThreadId) {
        self.stats.suspensions += 1;
        if self.check_time == CheckTime::OnSuspend {
            self.apply_strategy_check(tid);
        } else {
            // Check deferred to resume; remember that one is owed. The
            // hardware bit still must be captured now, before another
            // thread runs.
            if let Some(restart) = self.machine.atomic_restart_pc() {
                let from = self.threads[tid.0 as usize].regs.pc();
                self.threads[tid.0 as usize].regs.set_pc(restart);
                self.machine.clear_atomic_bit();
                self.stats.ras_restarts += 1;
                self.stats.ras_checks += 1;
                self.record_restart(tid, from, restart);
            }
        }
        if matches!(self.strategy, Strategy::UserLevel { .. }) {
            self.threads[tid.0 as usize].needs_user_restart = true;
        }
    }

    fn dispatch(&mut self, tid: ThreadId) {
        if self.last_running != Some(tid) {
            self.stats.context_switches += 1;
            let cs = u64::from(self.machine.profile().cost().context_switch);
            self.charge_kernel(cs);
        }
        if self.check_time == CheckTime::OnResume {
            self.apply_strategy_check(tid);
        }
        if let Strategy::UserLevel {
            recovery_pc,
            recovery_len,
        } = self.strategy
        {
            if self.threads[tid.0 as usize].needs_user_restart {
                self.threads[tid.0 as usize].needs_user_restart = false;
                let pc = self.threads[tid.0 as usize].regs.pc();
                // Never redirect a thread that is already executing the
                // recovery routine: it resumes where it left off, with its
                // saved frame still on the stack. Without this check, a
                // quantum shorter than the routine cascades redirects and
                // overflows the user stack.
                if pc < recovery_pc || pc >= recovery_pc + recovery_len {
                    let dispatch_cost =
                        u64::from(self.machine.profile().cost().user_restart_dispatch);
                    self.charge_kernel(dispatch_cost);
                    self.stats.user_restart_redirects += 1;
                    self.record(Event::UserRedirect { thread: tid });
                    self.emit(ObsEvent::UserRedirect { thread: tid.0 });
                    let tcb = &mut self.threads[tid.0 as usize];
                    let sp = tcb.regs.get(Reg::SP).wrapping_sub(4);
                    tcb.regs.set(Reg::SP, sp);
                    tcb.regs.set_pc(recovery_pc);
                    if self.machine.mem_mut().store_kernel(sp, pc).is_err() {
                        // Guest stack overflow: surface it as a fault
                        // rather than corrupting state.
                        self.pending_fault = Some((tid, Fault::BadMemory { addr: sp, pc }));
                    }
                }
            }
        }
        self.threads[tid.0 as usize].state = ThreadState::Running;
        self.current = Some(tid);
        self.last_running = Some(tid);
        self.record(Event::Dispatch { thread: tid });
        self.emit(ObsEvent::Dispatch { thread: tid.0 });
        // Maintained counter — no queue materialisation per sample.
        let depth = self.queues().0 as u64;
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.sample_runqueue(depth);
        }
        // The timer slice starts when the thread reaches user level, so a
        // quantum buys actual user execution even when kernel overhead
        // (context switch, checks) exceeds it.
        self.slice_deadline = self.policy.next_tick(self.machine.clock());
    }

    fn timer_preempt(&mut self, tid: ThreadId) {
        self.stats.preemptions += 1;
        self.record(Event::Preempt { thread: tid });
        // Capture "inside a sequence?" before the suspension check rolls
        // the PC back — after it, the evidence is gone.
        if self.observing() {
            let inside = self.pc_inside_sequence(tid);
            self.emit(ObsEvent::SwitchOut {
                thread: tid.0,
                reason: SwitchReason::Quantum,
                inside_sequence: inside,
            });
        }
        self.suspend(tid);
        self.threads[tid.0 as usize].state = ThreadState::Ready;
        self.ready.push_back(&mut self.threads, tid);
        self.current = None;
    }

    fn handle_page_fault(&mut self, tid: ThreadId, addr: DataAddr) {
        self.stats.page_faults += 1;
        self.record(Event::PageFault { thread: tid, addr });
        self.emit(ObsEvent::PageFault {
            thread: tid.0,
            addr,
        });
        let service = u64::from(self.machine.profile().cost().page_fault_service);
        self.charge_kernel(service);
        let page = self.machine.mem_mut().make_resident(addr);
        self.page_fifo.push_back(page);
        if self.max_resident > 0 && self.page_fifo.len() > self.max_resident {
            let victim = self.page_fifo.pop_front().expect("nonempty");
            self.machine.mem_mut().evict_page(victim);
            self.stats.page_evictions += 1;
        }
        // The fault suspended the thread mid-instruction; the PC still
        // addresses the faulting instruction. If that lies inside a
        // restartable sequence the whole sequence re-executes — this is
        // the "page fault" row of the event ordering discussed in §4.2.
        if self.observing() {
            let inside = self.pc_inside_sequence(tid);
            self.emit(ObsEvent::SwitchOut {
                thread: tid.0,
                reason: SwitchReason::PageFault,
                inside_sequence: inside,
            });
        }
        self.suspend(tid);
        self.threads[tid.0 as usize].state = ThreadState::Ready;
        self.ready.push_back(&mut self.threads, tid);
        self.current = None;
    }

    // --- syscalls -----------------------------------------------------------

    fn handle_syscall(&mut self, tid: ThreadId) {
        self.stats.syscalls += 1;
        let trap = u64::from(self.machine.profile().cost().syscall_trap);
        self.charge_kernel(trap);
        let (num, a0, a1) = {
            let regs = &self.threads[tid.0 as usize].regs;
            (regs.get(Reg::V0), regs.get(Reg::A0), regs.get(Reg::A1))
        };
        self.emit(ObsEvent::Syscall { thread: tid.0, num });
        match num {
            abi::SYS_EXIT => {
                self.record(Event::Exit { thread: tid });
                self.emit(ObsEvent::SwitchOut {
                    thread: tid.0,
                    reason: SwitchReason::Exit,
                    inside_sequence: false,
                });
                self.threads[tid.0 as usize].state = ThreadState::Exited;
                self.live -= 1;
                self.current = None;
                // Wake joiners in arrival order, walking the intrusive
                // chain in place (capture each `next` before detaching).
                let mut cur = self.threads[tid.0 as usize].joiners_head;
                self.threads[tid.0 as usize].joiners_head = NIL;
                self.threads[tid.0 as usize].joiners_tail = NIL;
                while cur != NIL {
                    let j = ThreadId(cur);
                    let t = &mut self.threads[cur as usize];
                    cur = t.link_next;
                    t.link_next = NIL;
                    t.link_prev = NIL;
                    t.state = ThreadState::Ready;
                    self.ready.push_back(&mut self.threads, j);
                    self.stats.wakeups += 1;
                    self.record(Event::Wake { thread: j });
                    self.emit(ObsEvent::Wake { thread: j.0 });
                }
            }
            abi::SYS_YIELD => {
                self.stats.yields += 1;
                self.record(Event::Yield { thread: tid });
                if self.observing() {
                    let inside = self.pc_inside_sequence(tid);
                    self.emit(ObsEvent::SwitchOut {
                        thread: tid.0,
                        reason: SwitchReason::Yield,
                        inside_sequence: inside,
                    });
                }
                self.suspend(tid);
                self.threads[tid.0 as usize].state = ThreadState::Ready;
                self.ready.push_back(&mut self.threads, tid);
                self.current = None;
            }
            abi::SYS_SPAWN => {
                let result = match self.spawn_thread(a0, a1) {
                    Ok(id) => id.0,
                    Err(()) => abi::ERR_NOMEM,
                };
                self.threads[tid.0 as usize].regs.set(Reg::V0, result);
            }
            abi::SYS_TAS => {
                self.stats.emulation_traps += 1;
                self.record(Event::EmulatedTas {
                    thread: tid,
                    addr: a0,
                });
                let body = u64::from(self.machine.profile().cost().kernel_emul_body);
                self.charge_kernel(body);
                // Interrupts are disabled in the kernel, so the
                // read-modify-write below is atomic by construction (§2.3).
                let old = self.machine.mem().load_kernel(a0).unwrap_or(0);
                let _ = self.machine.mem_mut().store_kernel(a0, 1);
                // The trap site (the syscall instruction) is one behind
                // the saved PC.
                let trap_pc = self.threads[tid.0 as usize].regs.pc().wrapping_sub(1);
                self.machine.log_kernel_rmw(trap_pc, a0, old);
                self.emit(ObsEvent::LockAttempt {
                    thread: tid.0,
                    addr: a0,
                    acquired: old == 0,
                });
                self.threads[tid.0 as usize].regs.set(Reg::V0, old);
            }
            abi::SYS_RAS_REGISTER => {
                let result = match &mut self.strategy {
                    Strategy::Registered { range } => {
                        // One sequence per address space (§3.1); a new
                        // registration replaces the old.
                        *range = Some((a0, a1));
                        self.stats.registrations += 1;
                        0
                    }
                    _ => {
                        self.stats.registrations_refused += 1;
                        abi::ERR_UNSUPPORTED
                    }
                };
                if result == 0 {
                    self.emit(ObsEvent::SeqRegister {
                        thread: tid.0,
                        start: a0,
                        len: a1,
                    });
                }
                self.threads[tid.0 as usize].regs.set(Reg::V0, result);
            }
            abi::SYS_RSEQ => {
                let result = if !matches!(self.strategy, Strategy::Rseq) {
                    self.stats.registrations_refused += 1;
                    abi::ERR_UNSUPPORTED
                } else if a1 & abi::RSEQ_UNREGISTER != 0 {
                    match self.threads[tid.0 as usize].rseq_area.take() {
                        Some(_) => 0,
                        None => abi::ERR_BUSY,
                    }
                } else if self.threads[tid.0 as usize].rseq_area.is_some() {
                    // Linux returns EBUSY on a second registration; one
                    // area word per thread.
                    abi::ERR_BUSY
                } else {
                    self.threads[tid.0 as usize].rseq_area = Some(a0);
                    self.stats.rseq_registrations += 1;
                    self.emit(ObsEvent::RseqRegister {
                        thread: tid.0,
                        area: a0,
                    });
                    0
                };
                self.threads[tid.0 as usize].regs.set(Reg::V0, result);
            }
            abi::SYS_WAIT => {
                let val = self.machine.mem().load_kernel(a0).unwrap_or(!a1);
                if val == a1 {
                    self.stats.blocks += 1;
                    self.record(Event::Block { thread: tid });
                    if self.observing() {
                        let inside = self.pc_inside_sequence(tid);
                        self.emit(ObsEvent::SwitchOut {
                            thread: tid.0,
                            reason: SwitchReason::Block,
                            inside_sequence: inside,
                        });
                    }
                    self.threads[tid.0 as usize].regs.set(Reg::V0, 0);
                    self.suspend(tid);
                    self.threads[tid.0 as usize].state = ThreadState::Blocked { addr: a0 };
                    self.waiters.park(&mut self.threads, a0, tid);
                    self.current = None;
                } else {
                    self.threads[tid.0 as usize].regs.set(Reg::V0, 1);
                }
            }
            abi::SYS_WAKE => {
                // Wake in place, walking the address's bucket chain from
                // the front: entries blocked on a hash-colliding address
                // are skipped, so per-address FIFO order is exactly what
                // the per-address queues produced — with no scratch Vec
                // and no hash-map traffic.
                let mut woken = 0u32;
                let bucket = self.waiters.bucket_of(a0);
                let mut cur = self.waiters.head(bucket);
                while woken < a1 && cur != NIL {
                    let w = ThreadId(cur);
                    cur = self.threads[cur as usize].link_next;
                    if self.threads[w.0 as usize].state != (ThreadState::Blocked { addr: a0 }) {
                        continue;
                    }
                    self.waiters.unpark(bucket, &mut self.threads, w);
                    self.threads[w.0 as usize].state = ThreadState::Ready;
                    self.ready.push_back(&mut self.threads, w);
                    self.stats.wakeups += 1;
                    woken += 1;
                    self.record(Event::Wake { thread: w });
                    self.emit(ObsEvent::Wake { thread: w.0 });
                }
                self.threads[tid.0 as usize].regs.set(Reg::V0, woken);
            }
            abi::SYS_CLOCK => {
                let now = self.machine.clock() as u32;
                self.threads[tid.0 as usize].regs.set(Reg::V0, now);
            }
            abi::SYS_PRINT => {
                self.output.push(a0);
            }
            abi::SYS_SLEEP => {
                self.stats.sleeps += 1;
                let until = self.machine.clock().saturating_add(u64::from(a0));
                self.record(Event::Sleep { thread: tid, until });
                if self.observing() {
                    let inside = self.pc_inside_sequence(tid);
                    self.emit(ObsEvent::SwitchOut {
                        thread: tid.0,
                        reason: SwitchReason::Sleep,
                        inside_sequence: inside,
                    });
                }
                self.threads[tid.0 as usize].regs.set(Reg::V0, 0);
                self.suspend(tid);
                self.threads[tid.0 as usize].state = ThreadState::Sleeping { until };
                self.sleepers.push(std::cmp::Reverse((until, tid)));
                self.stats.blocks += 1;
                self.current = None;
            }
            abi::SYS_JOIN => {
                let target = ThreadId(a0);
                let result = match self.threads.get(a0 as usize) {
                    None => Some(abi::ERR_NO_THREAD),
                    Some(t) if t.is_exited() => Some(0),
                    Some(_) => None,
                };
                match result {
                    Some(v) => self.threads[tid.0 as usize].regs.set(Reg::V0, v),
                    None => {
                        self.stats.blocks += 1;
                        self.record(Event::Block { thread: tid });
                        if self.observing() {
                            let inside = self.pc_inside_sequence(tid);
                            self.emit(ObsEvent::SwitchOut {
                                thread: tid.0,
                                reason: SwitchReason::Block,
                                inside_sequence: inside,
                            });
                        }
                        self.threads[tid.0 as usize].regs.set(Reg::V0, 0);
                        self.suspend(tid);
                        self.threads[tid.0 as usize].state = ThreadState::Joining { target };
                        join_push(&mut self.threads, target, tid);
                        self.current = None;
                    }
                }
            }
            _ => {
                self.threads[tid.0 as usize]
                    .regs
                    .set(Reg::V0, abi::ERR_UNSUPPORTED);
            }
        }
        // A kernel-emulated Test-And-Set logged its RMW above; drain it
        // (and any user accesses from the slice) while `tid` is still the
        // thread that performed them — after a preemption the attribution
        // would be lost.
        self.drain_telemetry(tid);
        // Interrupts were disabled during the trap; a timer tick that
        // landed in the meantime is delivered on the way back to user
        // level. This is exactly the §5.3 effect: under kernel emulation a
        // preemption can land immediately after a Test-And-Set trap, while
        // the lock is held, inflating the critical section.
        if self.current == Some(tid) && self.machine.clock() >= self.slice_deadline {
            self.timer_preempt(tid);
        }
    }

    /// Enables the machine's shared-memory access log (see
    /// [`ras_machine::Machine::enable_access_log`]). The model checker's
    /// race sanitizer drains it after every step.
    pub fn enable_access_log(&mut self) {
        self.machine.enable_access_log();
    }

    /// Restricts the machine's access log to `addrs` (see
    /// [`ras_machine::Machine::set_access_watch`]).
    pub fn set_access_watch(&mut self, addrs: &[u32]) {
        self.machine.set_access_watch(addrs);
    }

    /// Drains the machine's access log.
    pub fn take_accesses(&mut self) -> Vec<ras_machine::MemAccess> {
        self.machine.take_accesses()
    }

    /// Visits and clears the machine's access log without reallocating
    /// (see [`ras_machine::Machine::drain_accesses`]).
    pub fn drain_accesses(&mut self, f: impl FnMut(&ras_machine::MemAccess)) {
        self.machine.drain_accesses(f);
    }

    // --- checkpoint/restore -------------------------------------------------

    /// Enables cheap checkpoint/restore: turns on the machine's dirty
    /// tracking (undo log + incremental fingerprint) over the shared data
    /// image (`[0, data_end)`). Stores above `data_end` (thread stacks)
    /// are still undone on restore; only the fingerprint is scoped to the
    /// shared data, matching what the model checker's state hash covers.
    ///
    /// Dirty tracking routes execution through the machine's instrumented
    /// loop; the fast loop stays untouched for kernels that never call
    /// this.
    pub fn enable_checkpoints(&mut self) {
        let limit = self.data_end;
        self.machine.mem_mut().enable_dirty(limit);
    }

    /// Whether [`Kernel::enable_checkpoints`] was called.
    pub fn checkpoints_enabled(&self) -> bool {
        self.machine.mem().dirty_enabled()
    }

    /// The running incremental fingerprint of the shared data image, if
    /// checkpoints are enabled. Identical, by construction, to
    /// `self.machine().mem().fingerprint_scan(self.data_end())`.
    pub fn memory_fingerprint(&self) -> Option<u64> {
        self.machine.mem().fingerprint()
    }

    /// Takes a checkpoint. O(threads + queue entries); guest memory is
    /// covered by the undo-log mark inside, not copied.
    ///
    /// # Panics
    ///
    /// Panics unless [`Kernel::enable_checkpoints`] was called.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut waiters = WaitCheckpoint::default();
        self.waiters.checkpoint_into(&mut waiters);
        Checkpoint {
            machine: self.machine.checkpoint(),
            threads: self.threads.clone(),
            ready: self.ready,
            current: self.current,
            last_running: self.last_running,
            registered_range: match &self.strategy {
                Strategy::Registered { range } => *range,
                _ => None,
            },
            policy: self.policy.clone(),
            slice_deadline: self.slice_deadline,
            waiters,
            sleepers: self.sleepers.clone(),
            stats: self.stats,
            output_len: self.output.len(),
            live: self.live,
            page_fifo: self.page_fifo.clone(),
            pending_fault: self.pending_fault,
        }
    }

    /// [`Kernel::checkpoint`] into an existing checkpoint, reusing its
    /// buffers (TCB vector, queues, waiter maps). Semantically identical
    /// to `*cp = self.checkpoint()`; callers taking a checkpoint per
    /// explored branch recycle a scratch per tree depth so the steady
    /// state allocates nothing.
    pub fn checkpoint_into(&self, cp: &mut Checkpoint) {
        cp.machine = self.machine.checkpoint();
        cp.threads.clone_from(&self.threads);
        cp.ready = self.ready;
        cp.current = self.current;
        cp.last_running = self.last_running;
        cp.registered_range = match &self.strategy {
            Strategy::Registered { range } => *range,
            _ => None,
        };
        cp.policy.clone_from(&self.policy);
        cp.slice_deadline = self.slice_deadline;
        self.waiters.checkpoint_into(&mut cp.waiters);
        cp.sleepers.clone_from(&self.sleepers);
        cp.stats = self.stats;
        cp.output_len = self.output.len();
        cp.live = self.live;
        cp.page_fifo.clone_from(&self.page_fifo);
        cp.pending_fault = self.pending_fault;
    }

    /// Rewinds to a checkpoint taken on this kernel: memory via the undo
    /// log, everything else by value. Returns the number of undo entries
    /// replayed. The checkpoint may be restored repeatedly, and
    /// checkpoints nest — restoring an outer checkpoint after an inner
    /// one is taken simply rewinds further.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken on a different kernel or this
    /// kernel has already been rewound past it.
    pub fn restore(&mut self, cp: &Checkpoint) -> u64 {
        let replayed = self.machine.restore(&cp.machine);
        self.threads.clone_from(&cp.threads);
        self.ready = cp.ready;
        self.current = cp.current;
        self.last_running = cp.last_running;
        if let Strategy::Registered { range } = &mut self.strategy {
            *range = cp.registered_range;
        }
        self.policy.clone_from(&cp.policy);
        self.slice_deadline = cp.slice_deadline;
        self.waiters.restore(&cp.waiters);
        self.sleepers.clone_from(&cp.sleepers);
        self.stats = cp.stats;
        self.output.truncate(cp.output_len);
        self.live = cp.live;
        self.page_fifo.clone_from(&cp.page_fifo);
        self.pending_fault = cp.pending_fault;
        replayed
    }

    // --- oracle-mode stepping ----------------------------------------------

    /// Advances the system by exactly one scheduling event: a dispatch
    /// (no instruction executes) or one retired instruction (a syscall is
    /// handled to completion as part of its instruction).
    ///
    /// The preemption timer is neutralized — in oracle mode the caller is
    /// the only source of preemptions, via [`Kernel::preempt_current`].
    /// All other kernel behavior (strategy checks, rollbacks, syscalls,
    /// paging) is identical to [`Kernel::run`].
    ///
    /// Oracle stepping always runs the exact interpreter regardless of
    /// the configured engine: observing the machine between individual
    /// instructions is precisely the deopt contract's "observable
    /// semantics" case, so instruction-granular stepping is a standing
    /// deoptimization point. Since the engines are architecturally
    /// indistinguishable, every result derived here (model-checking
    /// verdicts included) is engine-independent by construction.
    pub fn step_once(&mut self) -> StepOutcome {
        self.slice_deadline = u64::MAX;
        if let Some((thread, fault)) = self.pending_fault.take() {
            return StepOutcome::Fault { thread, fault };
        }
        // Deliver due wake-ups from the sleep queue.
        while let Some(&std::cmp::Reverse((until, tid))) = self.sleepers.peek() {
            if until > self.machine.clock() {
                break;
            }
            self.sleepers.pop();
            if matches!(
                self.threads[tid.0 as usize].state,
                ThreadState::Sleeping { .. }
            ) {
                self.threads[tid.0 as usize].state = ThreadState::Ready;
                self.ready.push_back(&mut self.threads, tid);
                self.stats.wakeups += 1;
                self.record(Event::Wake { thread: tid });
                self.emit(ObsEvent::Wake { thread: tid.0 });
            }
        }
        let Some(tid) = self.current else {
            let Some(next) = self.ready.pop_front(&mut self.threads) else {
                if self.live == 0 {
                    return StepOutcome::Completed;
                }
                if let Some(&std::cmp::Reverse((until, _))) = self.sleepers.peek() {
                    let now = self.machine.clock();
                    if until > now {
                        self.machine.charge(until - now);
                        self.stats.idle_cycles += until - now;
                        self.emit(ObsEvent::Idle {
                            cycles: until - now,
                        });
                    }
                    return StepOutcome::Idled;
                }
                let blocked = self
                    .threads
                    .iter()
                    .filter(|t| {
                        matches!(
                            t.state,
                            ThreadState::Blocked { .. } | ThreadState::Joining { .. }
                        )
                    })
                    .map(|t| t.id)
                    .collect();
                return StepOutcome::Deadlock { blocked };
            };
            self.dispatch(next);
            // dispatch() re-arms the timer; keep it disarmed.
            self.slice_deadline = u64::MAX;
            return StepOutcome::Ran { thread: next };
        };
        // Execute exactly one instruction of the current thread.
        self.machine.poll_atomic_expiry();
        let before = self.machine.clock();
        let exit = {
            let Kernel {
                machine,
                decoded,
                threads,
                ..
            } = self;
            machine.step(decoded, &mut threads[tid.0 as usize].regs)
        };
        self.threads[tid.0 as usize].user_cycles += self.machine.clock() - before;
        self.drain_telemetry(tid);
        match exit {
            // A retired instruction, or (unreachably) a budget stop —
            // `Machine::step` has no deadline to exhaust.
            None | Some(Exit::Budget) => StepOutcome::Ran { thread: tid },
            Some(Exit::Syscall) => {
                // slice_deadline is u64::MAX, so the end-of-syscall timer
                // check in handle_syscall never fires here.
                self.handle_syscall(tid);
                StepOutcome::Ran { thread: tid }
            }
            Some(Exit::Halt) => StepOutcome::Halted { thread: tid },
            Some(Exit::Fault(Fault::PageFault { addr, .. })) => {
                self.handle_page_fault(tid, addr);
                StepOutcome::Ran { thread: tid }
            }
            Some(Exit::Fault(fault)) => StepOutcome::Fault { thread: tid, fault },
        }
    }

    /// Preempts the currently running thread exactly as a timer tick
    /// would: the strategy check runs (rolling back or redirecting a
    /// thread caught inside an atomic sequence) and the thread goes to
    /// the back of the ready queue. Returns `false` if nothing is
    /// running.
    pub fn preempt_current(&mut self) -> bool {
        let Some(tid) = self.current else {
            return false;
        };
        self.timer_preempt(tid);
        true
    }

    /// Moves a ready thread to the front of the ready queue so the next
    /// dispatch picks it. Returns `false` if a thread is currently
    /// running or `tid` is not on the ready queue.
    ///
    /// O(1): a thread is on the ready queue exactly when its state is
    /// [`ThreadState::Ready`], and the intrusive links make the targeted
    /// removal a pointer splice — the explorer calls this once per
    /// scheduling decision, so the former O(ready) scan was a per-node
    /// cost.
    pub fn schedule_next(&mut self, tid: ThreadId) -> bool {
        if self.current.is_some() {
            return false;
        }
        if !self.threads.get(tid.0 as usize).is_some_and(Tcb::is_ready) {
            return false;
        }
        self.ready.unlink(&mut self.threads, tid);
        self.ready.push_front(&mut self.threads, tid);
        true
    }

    // --- main loop -----------------------------------------------------------

    /// Runs the system for at most `fuel` cycles.
    ///
    /// Returns [`Outcome::OutOfFuel`] if the budget runs out; the kernel is
    /// left in a consistent state and `run` may be called again.
    pub fn run(&mut self, fuel: u64) -> Outcome {
        let limit = self.machine.clock().saturating_add(fuel);
        loop {
            if let Some((thread, fault)) = self.pending_fault.take() {
                return Outcome::Fault { thread, fault };
            }
            // Deliver due wake-ups from the sleep queue.
            while let Some(&std::cmp::Reverse((until, tid))) = self.sleepers.peek() {
                if until > self.machine.clock() {
                    break;
                }
                self.sleepers.pop();
                if matches!(
                    self.threads[tid.0 as usize].state,
                    ThreadState::Sleeping { .. }
                ) {
                    self.threads[tid.0 as usize].state = ThreadState::Ready;
                    self.ready.push_back(&mut self.threads, tid);
                    self.stats.wakeups += 1;
                    self.record(Event::Wake { thread: tid });
                }
            }
            let tid = match self.current {
                Some(t) => t,
                None => {
                    let Some(next) = self.ready.pop_front(&mut self.threads) else {
                        if self.live == 0 {
                            return Outcome::Completed;
                        }
                        // Nothing runnable: if threads are sleeping, the
                        // processor idles until the earliest wake-up.
                        if let Some(&std::cmp::Reverse((until, _))) = self.sleepers.peek() {
                            let now = self.machine.clock();
                            if until > now {
                                self.machine.charge(until - now);
                                self.stats.idle_cycles += until - now;
                                self.emit(ObsEvent::Idle {
                                    cycles: until - now,
                                });
                            }
                            continue;
                        }
                        let blocked = self
                            .threads
                            .iter()
                            .filter(|t| {
                                matches!(
                                    t.state,
                                    ThreadState::Blocked { .. } | ThreadState::Joining { .. }
                                )
                            })
                            .map(|t| t.id)
                            .collect();
                        return Outcome::Deadlock { blocked };
                    };
                    self.dispatch(next);
                    next
                }
            };
            if self.machine.clock() >= limit {
                return Outcome::OutOfFuel;
            }
            let deadline = self.slice_deadline.min(limit);
            let exit = {
                let Kernel {
                    machine,
                    decoded,
                    threads,
                    translation,
                    ..
                } = self;
                let before = machine.clock();
                let regs = &mut threads[tid.0 as usize].regs;
                let exit = match translation {
                    Some(cache) => machine.run_translated(decoded, cache, regs, deadline),
                    None => machine.run(decoded, regs, deadline),
                };
                threads[tid.0 as usize].user_cycles += machine.clock() - before;
                exit
            };
            // Scheduling boundary: fold the slice's watched accesses into
            // the telemetry aggregate before the exit can switch threads.
            self.drain_telemetry(tid);
            match exit {
                Exit::Budget => {
                    if self.machine.clock() >= limit && limit < self.slice_deadline {
                        return Outcome::OutOfFuel;
                    }
                    self.timer_preempt(tid);
                }
                Exit::Syscall => self.handle_syscall(tid),
                Exit::Halt => return Outcome::Halted,
                Exit::Fault(Fault::PageFault { addr, .. }) => self.handle_page_fault(tid, addr),
                Exit::Fault(fault) => {
                    return Outcome::Fault { thread: tid, fault };
                }
            }
        }
    }
}
