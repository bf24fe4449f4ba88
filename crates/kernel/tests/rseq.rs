//! rseq strategy behavior: descriptor registration lifecycle, abort
//! dispatch boundaries (the half-open window), the `NO_RESTART` flag, and
//! handler re-entry. Oracle-mode stepping pins the preemption to an exact
//! PC, so the commit-boundary cases are deterministic rather than
//! quantum-lottery.

use proptest::prelude::*;
use ras_isa::{abi, AluOp, Asm, DataAddr, DataLayout, Program, Reg, RSEQ_CS_NO_RESTART_ON_PREEMPT};
use ras_kernel::{Kernel, KernelConfig, Outcome, StrategyKind, ThreadId};
use ras_machine::CpuProfile;

fn cfg(strategy: StrategyKind) -> KernelConfig {
    let mut c = KernelConfig::new(CpuProfile::r3000(), strategy);
    c.quantum = 1_000_000;
    c.jitter = 0;
    c.seed = 1;
    c.mem_bytes = 1 << 20;
    c.stack_bytes = 4096;
    c
}

fn exit(asm: &mut Asm) {
    asm.li(Reg::V0, abi::SYS_EXIT as i32);
    asm.syscall();
}

fn print_v0(asm: &mut Asm) {
    asm.alui(AluOp::Or, Reg::A0, Reg::V0, 0);
    asm.li(Reg::V0, abi::SYS_PRINT as i32);
    asm.syscall();
}

struct RseqProg {
    program: Program,
    data: ras_isa::DataImage,
    area: DataAddr,
    start: u32,
    abort: u32,
}

impl RseqProg {
    fn post_commit(&self) -> u32 {
        self.start + 3
    }
}

/// A single thread that registers its rseq area, then runs one published
/// critical section taking `lock` (the `__rseq_tas` shape: publish, then
/// the 3-instruction `lw; li; sw` window, then clear and exit). The abort
/// handler retries through the publish store.
fn rseq_program(flags: u32) -> RseqProg {
    let mut data = DataLayout::new();
    let area = data.word("area", 0);
    let cs = data.array("cs", 4, 0);
    let lock = data.word("lock", 0);
    let mut asm = Asm::new();
    asm.set_entry_here();
    asm.li(Reg::V0, abi::SYS_RSEQ as i32);
    asm.li(Reg::A0, area as i32);
    asm.li(Reg::A1, 0);
    asm.syscall();
    asm.li(Reg::A0, lock as i32);
    let retry = asm.bind_new();
    asm.li(Reg::T0, area as i32);
    asm.li(Reg::V0, cs as i32);
    asm.sw(Reg::V0, Reg::T0, 0);
    let start = asm.here();
    asm.lw(Reg::V0, Reg::A0, 0);
    asm.li(Reg::T2, 1);
    asm.sw(Reg::T2, Reg::A0, 0);
    asm.sw(Reg::ZERO, Reg::T0, 0);
    exit(&mut asm);
    let abort = asm.here();
    asm.j(retry);
    data.set_word(cs, start);
    data.set_word(cs + 4, 3);
    data.set_word(cs + 8, abort);
    data.set_word(cs + 12, flags);
    RseqProg {
        program: asm.finish().unwrap(),
        data: data.finish(),
        area,
        start,
        abort,
    }
}

/// Oracle-steps until thread 0 is dispatched with its PC at `pc`.
fn step_to(k: &mut Kernel, pc: u32) {
    for _ in 0..10_000 {
        if k.current_thread().is_some() && k.thread_regs(ThreadId(0)).pc() == pc {
            return;
        }
        k.step_once();
    }
    panic!("thread never reached pc {pc}");
}

fn lock_value(k: &Kernel, p: &RseqProg) -> u32 {
    k.read_word(p.data.symbol("lock").unwrap()).unwrap()
}

#[test]
fn preemption_exactly_at_post_commit_commits_rather_than_aborts() {
    // The window is half-open: pc == start + post_commit_offset is the
    // first instruction *past* the committing store, so a quantum expiring
    // there must not reach the abort handler — the store already happened.
    let p = rseq_program(0);
    let mut k = Kernel::boot(cfg(StrategyKind::Rseq), p.program.clone(), &p.data).unwrap();
    step_to(&mut k, p.post_commit());
    assert!(k.preempt_current());
    assert_eq!(k.stats().rseq_checks, 1);
    assert_eq!(k.stats().rseq_aborts, 0, "commit boundary must not abort");
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.post_commit());
    // Outside the window the kernel lazily clears the stale descriptor.
    assert_eq!(k.read_word(p.area).unwrap(), 0);
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(lock_value(&k, &p), 1, "the committed store survives");
}

#[test]
fn preemption_at_window_start_aborts() {
    // The other end of the half-open window: pc == start_ip is inside.
    let p = rseq_program(0);
    let mut k = Kernel::boot(cfg(StrategyKind::Rseq), p.program.clone(), &p.data).unwrap();
    step_to(&mut k, p.start);
    assert!(k.preempt_current());
    assert_eq!(k.stats().rseq_aborts, 1);
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.abort);
    assert_eq!(
        k.read_word(p.area).unwrap(),
        0,
        "abort consumes the descriptor"
    );
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(lock_value(&k, &p), 1, "the handler retried to completion");
}

#[test]
fn preemption_mid_window_redirects_to_the_abort_handler() {
    let p = rseq_program(0);
    let mut k = Kernel::boot(cfg(StrategyKind::Rseq), p.program.clone(), &p.data).unwrap();
    step_to(&mut k, p.start + 1);
    assert!(k.preempt_current());
    assert_eq!(k.stats().rseq_aborts, 1);
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.abort);
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(lock_value(&k, &p), 1);
}

#[test]
fn preempting_the_abort_handler_does_not_abort_again() {
    // An abort consumed the published descriptor, so a second preemption
    // landing in the handler (before it republishes) finds no window and
    // must leave the PC alone — this is what makes handler re-entry safe.
    let p = rseq_program(0);
    let mut k = Kernel::boot(cfg(StrategyKind::Rseq), p.program.clone(), &p.data).unwrap();
    step_to(&mut k, p.start + 1);
    assert!(k.preempt_current());
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.abort);
    step_to(&mut k, p.abort);
    assert!(k.preempt_current());
    assert_eq!(k.stats().rseq_aborts, 1, "no cascading abort");
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.abort);
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(lock_value(&k, &p), 1);
}

#[test]
fn no_restart_flag_suppresses_the_abort() {
    let p = rseq_program(RSEQ_CS_NO_RESTART_ON_PREEMPT);
    let mut k = Kernel::boot(cfg(StrategyKind::Rseq), p.program.clone(), &p.data).unwrap();
    step_to(&mut k, p.start + 1);
    assert!(k.preempt_current());
    assert!(k.stats().rseq_checks >= 1);
    assert_eq!(k.stats().rseq_aborts, 0);
    assert_eq!(k.thread_regs(ThreadId(0)).pc(), p.start + 1);
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(lock_value(&k, &p), 1);
}

#[test]
fn register_unregister_round_trip_reports_busy_correctly() {
    // rseq(2) semantics: double registration and spurious unregistration
    // both fail with EBUSY; a full unregister/re-register cycle succeeds.
    let mut data = DataLayout::new();
    let area = data.word("area", 0);
    let mut asm = Asm::new();
    asm.set_entry_here();
    for unregister in [0, 0, 1, 1, 0] {
        asm.li(Reg::V0, abi::SYS_RSEQ as i32);
        asm.li(Reg::A0, area as i32);
        asm.li(Reg::A1, unregister);
        asm.syscall();
        print_v0(&mut asm);
    }
    exit(&mut asm);
    let mut k = Kernel::boot(
        cfg(StrategyKind::Rseq),
        asm.finish().unwrap(),
        &data.finish(),
    )
    .unwrap();
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(
        k.output(),
        &[0, abi::ERR_BUSY, 0, abi::ERR_BUSY, 0],
        "register, busy, unregister, busy, register"
    );
    assert_eq!(k.stats().rseq_registrations, 2);
    assert_eq!(k.thread_rseq_area(ThreadId(0)), Some(area));
}

#[test]
fn registration_is_refused_without_the_rseq_strategy() {
    let mut data = DataLayout::new();
    let area = data.word("area", 0);
    let mut asm = Asm::new();
    asm.set_entry_here();
    asm.li(Reg::V0, abi::SYS_RSEQ as i32);
    asm.li(Reg::A0, area as i32);
    asm.li(Reg::A1, 0);
    asm.syscall();
    print_v0(&mut asm);
    exit(&mut asm);
    let mut k = Kernel::boot(
        cfg(StrategyKind::Designated),
        asm.finish().unwrap(),
        &data.finish(),
    )
    .unwrap();
    assert_eq!(k.run(1_000_000), Outcome::Completed);
    assert_eq!(k.output(), &[abi::ERR_UNSUPPORTED]);
    assert_eq!(k.stats().registrations_refused, 1);
    assert_eq!(k.thread_rseq_area(ThreadId(0)), None);
}

#[test]
fn descriptors_past_the_address_space_read_as_no_section() {
    // The descriptor pointer and words are guest data, so they can hold
    // anything. A `cs_addr` whose later words lie past the 32-bit address
    // space, and a window whose end overflows, must both read as "no
    // section" — the same in debug builds (no overflow panic) as in
    // release builds (no wrapped address).
    let mut data = DataLayout::new();
    let area = data.word("area", 0);
    let cs = data.array("cs", 4, 0);
    let mut asm = Asm::new();
    asm.set_entry_here();
    asm.li(Reg::V0, abi::SYS_RSEQ as i32);
    asm.li(Reg::A0, area as i32);
    asm.li(Reg::A1, 0);
    asm.syscall();
    asm.li(Reg::T0, area as i32);
    asm.li(Reg::V0, 0xFFFF_FFFC_u32 as i32);
    asm.sw(Reg::V0, Reg::T0, 0);
    let first = asm.here();
    asm.li(Reg::V0, cs as i32);
    asm.sw(Reg::V0, Reg::T0, 0);
    let second = asm.here();
    exit(&mut asm);
    data.set_word(cs, u32::MAX - 2);
    data.set_word(cs + 4, 8);
    data.set_word(cs + 8, 0);
    data.set_word(cs + 12, 0);
    let mut k = Kernel::boot(
        cfg(StrategyKind::Rseq),
        asm.finish().unwrap(),
        &data.finish(),
    )
    .unwrap();
    for (checks, pc) in [(1, first), (2, second)] {
        step_to(&mut k, pc);
        assert_ne!(k.read_word(area).unwrap(), 0, "descriptor published");
        assert!(k.preempt_current());
        assert_eq!(k.stats().rseq_checks, checks);
        assert_eq!(k.stats().rseq_aborts, 0);
        assert_eq!(k.thread_regs(ThreadId(0)).pc(), pc, "no redirect");
        assert_eq!(k.read_word(area).unwrap(), 0, "stale pointer cleared");
    }
    assert_eq!(k.run(1_000_000), Outcome::Completed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of register/unregister calls leaves the kernel's
    /// per-thread area slot in exactly the state a two-state reference
    /// model predicts, returning EBUSY precisely on the redundant calls.
    #[test]
    fn register_unregister_sequences_match_the_reference_model(
        ops in prop::collection::vec(any::<bool>(), 1..12),
    ) {
        let mut data = DataLayout::new();
        let area = data.word("area", 0);
        let mut asm = Asm::new();
        asm.set_entry_here();
        for &register in &ops {
            asm.li(Reg::V0, abi::SYS_RSEQ as i32);
            asm.li(Reg::A0, area as i32);
            asm.li(Reg::A1, if register { 0 } else { abi::RSEQ_UNREGISTER as i32 });
            asm.syscall();
            print_v0(&mut asm);
        }
        exit(&mut asm);
        let mut k = Kernel::boot(
            cfg(StrategyKind::Rseq),
            asm.finish().unwrap(),
            &data.finish(),
        )
        .unwrap();
        prop_assert_eq!(k.run(10_000_000), Outcome::Completed);

        let mut registered = false;
        let mut expected = Vec::new();
        let mut successes = 0u64;
        for &register in &ops {
            let ok = register != registered;
            expected.push(if ok { 0 } else { abi::ERR_BUSY });
            if ok && register {
                successes += 1;
            }
            if ok {
                registered = register;
            }
        }
        prop_assert_eq!(k.output(), expected.as_slice());
        prop_assert_eq!(k.stats().rseq_registrations, successes);
        let final_area = k.thread_rseq_area(ThreadId(0));
        prop_assert_eq!(final_area, registered.then_some(area));
    }
}
