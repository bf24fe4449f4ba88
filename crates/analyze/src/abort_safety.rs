//! The rseq abort-handler safety verifier.
//!
//! The kernel's side of the rseq contract is small: preempt a thread whose
//! PC sits inside a published window and it resumes at `abort_ip`. For
//! that dispatch to be *safe* the descriptor must uphold properties the
//! kernel never checks — exactly the situation of the paper's §3.1
//! restartable sequences, so this pass is their static verifier's sibling:
//!
//! * **Window shape** (syntactic, per descriptor): the window lies inside
//!   the code image and is non-empty; its last instruction — the commit
//!   point — is a plain store, and it is the *only* store; no syscall,
//!   call, or indirect jump sits inside; every branch exits forward past
//!   the commit point; no two windows overlap; `abort_ip` lies strictly
//!   outside the window and is reachable only via kernel abort dispatch
//!   (no fallthrough into it, no jump to it).
//! * **Handler behavior** (dataflow, over the [`crate::absint`] worklist
//!   engine): walking forward from every `abort_ip` with a
//!   constant-propagation lattice, the handler must re-establish the
//!   invariants the abort tore down. It must not perform visible side
//!   effects (stores other than republishing a descriptor, calls,
//!   interlocked ops), must not touch words the lockset analysis proved
//!   lock-protected (the abort path runs without the lock), may only make
//!   `rseq` or thread-exit syscalls, and must not re-enter a window
//!   without first republishing its descriptor — a stale retry would make
//!   the second preemption invisible.
//!
//! The pass is self-contained: it re-checks window shape even when the
//! window is also declared as an ordinary [`ras_isa::SeqRange`] (the
//! guest emitters declare both so the restartability verifier and the
//! differential tests see the window too), because a descriptor need not
//! be dual-declared to be dispatched by the kernel.

use std::collections::{BTreeMap, BTreeSet};

use ras_isa::{abi, CodeAddr, Inst, Program, Reg, RseqCs};

use crate::absint::{forward, AbsDomain, Edge, JoinSemiLattice};
use crate::cfg::Cfg;
use crate::diag::{DiagKind, Diagnostic};
use crate::lockset::{LocksetAnalysis, WordVerdict};

/// What the handler walk knows at one program point: registers with
/// statically-known constant values, and the set of descriptors
/// (identified by `cs_addr`) provably republished on every path since the
/// abort.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct HandlerFact {
    consts: BTreeMap<Reg, u32>,
    published: BTreeSet<u32>,
}

impl HandlerFact {
    fn get(&self, r: Reg) -> Option<u32> {
        if r.is_zero() {
            return Some(0);
        }
        self.consts.get(&r).copied()
    }

    fn set(&mut self, r: Reg, v: Option<u32>) {
        if r.is_zero() {
            return;
        }
        match v {
            Some(v) => {
                self.consts.insert(r, v);
            }
            None => {
                self.consts.remove(&r);
            }
        }
    }
}

impl JoinSemiLattice for HandlerFact {
    fn join_from(&mut self, other: &Self) -> bool {
        let before = (self.consts.len(), self.published.len());
        self.consts.retain(|r, v| other.consts.get(r) == Some(v));
        self.published.retain(|cs| other.published.contains(cs));
        before != (self.consts.len(), self.published.len())
    }
}

/// The abort-handler domain: flat constant propagation, plus the
/// republication predicate. Pure — diagnostics are collected during
/// replay, never here.
struct HandlerDomain<'a> {
    descs: &'a [RseqCs],
}

impl HandlerDomain<'_> {
    fn in_window(&self, pc: CodeAddr) -> bool {
        self.descs.iter().any(|d| d.contains(pc))
    }
}

impl AbsDomain for HandlerDomain<'_> {
    type Fact = HandlerFact;

    fn transfer(&self, pc: CodeAddr, inst: &Inst, fact: &mut HandlerFact) -> bool {
        // Window interiors are checked syntactically; the walk stops at
        // the boundary (the replay still sees the entry instruction, which
        // is where the stale-retry check fires).
        if self.in_window(pc) {
            return false;
        }
        match *inst {
            Inst::Li { rd, imm } => fact.set(rd, Some(imm as u32)),
            Inst::AluI { op, rd, rs, imm } => {
                let v = fact.get(rs).map(|v| op.apply(v, imm as u32));
                fact.set(rd, v);
            }
            Inst::Alu { op, rd, rs, rt } => {
                let v = match (fact.get(rs), fact.get(rt)) {
                    (Some(a), Some(b)) => Some(op.apply(a, b)),
                    _ => None,
                };
                fact.set(rd, v);
            }
            Inst::Sw { rs, .. } => {
                // Storing a descriptor's address — anywhere — is how the
                // guest republishes; the per-thread area slot itself is
                // computed and rarely constant, so the *value* is the
                // recognizable half of the store.
                if let Some(v) = fact.get(rs) {
                    if self.descs.iter().any(|d| d.cs_addr == v) {
                        fact.published.insert(v);
                    }
                }
            }
            Inst::Syscall => {
                let exits = fact.get(Reg::V0) == Some(abi::SYS_EXIT);
                fact.set(Reg::V0, None);
                if exits {
                    return false; // a clean thread exit ends the path
                }
            }
            Inst::Halt => return false,
            // A register return leaves the handler's function entirely;
            // the caller sees an ordinary (failed) call and retries or
            // gives up by its own logic.
            Inst::Jr { .. } => return false,
            _ => {
                if let Some(d) = inst.def() {
                    fact.set(d, None);
                }
            }
        }
        true
    }

    fn refine(&self, _pc: CodeAddr, _inst: &Inst, edge: Edge, fact: &mut HandlerFact) {
        if matches!(edge, Edge::Return { .. }) {
            // An unknown callee clobbers everything it could write; calls
            // are flagged as handler side effects anyway, so precision
            // past this point is moot.
            fact.consts.clear();
        }
    }

    fn follows_edge(&self, edge: Edge) -> bool {
        edge != Edge::Call
    }
}

/// Verifies every rseq descriptor of `program`: window shape
/// syntactically, handler behavior via a forward dataflow walk from each
/// `abort_ip`. `lockset` supplies the per-word protection verdicts the
/// handler checks consult.
pub fn abort_safety(program: &Program, cfg: &Cfg, lockset: &LocksetAnalysis) -> Vec<Diagnostic> {
    let descs = program.rseq_descs();
    if descs.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let len = program.len() as CodeAddr;

    for (i, d) in descs.iter().enumerate() {
        window_diags(program, len, d, &mut diags);
        for other in &descs[i + 1..] {
            let (a, b) = (d.window(), other.window());
            if a.start < b.start + b.len && b.start < a.start + a.len {
                diags.push(Diagnostic::new(
                    DiagKind::RseqOverlappingWindows,
                    b.start.max(a.start),
                    format!(
                        "rseq windows [@{}..@{}) and [@{}..@{}) overlap: a preemption \
                         in the overlap has two candidate abort handlers",
                        a.start,
                        a.start + a.len,
                        b.start,
                        b.start + b.len
                    ),
                ));
            }
        }
    }

    // The handler walk: one fixpoint rooted at every in-bounds abort_ip
    // that starts its own block. (A handler that does *not* start a block
    // is fallthrough-reachable, which the syntactic checks already flag;
    // walking the surrounding block from its start would only manufacture
    // noise on instructions the abort never executes.)
    let domain = HandlerDomain { descs };
    let roots: Vec<(CodeAddr, HandlerFact)> = descs
        .iter()
        .map(|d| d.abort_ip)
        .filter(|&ip| ip < len && cfg.block_of(ip).is_some_and(|b| b.start == ip))
        .map(|ip| (ip, HandlerFact::default()))
        .collect();
    if roots.is_empty() {
        return diags;
    }
    let sol = forward(program, cfg, &domain, &roots);

    let resolve = |fact: &HandlerFact, base: Reg, off: i32| {
        fact.get(base)
            .and_then(|b| ras_isa::DataAddr::try_from(b.wrapping_add(off as u32)).ok())
    };
    let protected = |addr: Option<ras_isa::DataAddr>| {
        addr.is_some_and(|a| matches!(lockset.verdicts.get(&a), Some(WordVerdict::Protected(_))))
    };

    sol.replay(
        program,
        cfg,
        &domain,
        |pc, inst, fact| {
            if let Some(d) = descs.iter().find(|d| d.contains(pc)) {
                if !fact.published.contains(&d.cs_addr) {
                    diags.push(Diagnostic::new(
                        DiagKind::RseqStaleRetry,
                        pc,
                        format!(
                            "abort path re-enters the window [@{}..@{}) without first \
                             republishing the descriptor at data {}: a second preemption \
                             here would not be detected",
                            d.start_ip,
                            window_end(d),
                            d.cs_addr
                        ),
                    ));
                }
                return; // the walk cuts here; the window is checked above
            }
            match *inst {
                Inst::Sw { rs, base, off } => {
                    let republishes = fact
                        .get(rs)
                        .is_some_and(|v| descs.iter().any(|d| d.cs_addr == v));
                    if republishes {
                        return;
                    }
                    let addr = resolve(fact, base, off);
                    if protected(addr) {
                        diags.push(Diagnostic::new(
                            DiagKind::RseqHandlerTouchesProtected,
                            pc,
                            format!(
                                "abort handler stores to lock-protected word {} without \
                                 holding the lock",
                                addr.unwrap()
                            ),
                        ));
                    } else {
                        diags.push(Diagnostic::new(
                            DiagKind::RseqHandlerSideEffect,
                            pc,
                            "abort handler performs a store that is not a descriptor \
                             republication: the side effect survives even though the \
                             aborted section did not"
                                .to_string(),
                        ));
                    }
                }
                Inst::Lw { base, off, .. } => {
                    let addr = resolve(fact, base, off);
                    if protected(addr) {
                        diags.push(Diagnostic::new(
                            DiagKind::RseqHandlerTouchesProtected,
                            pc,
                            format!(
                                "abort handler reads lock-protected word {} without \
                                 holding the lock",
                                addr.unwrap()
                            ),
                        ));
                    }
                }
                Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Tas { .. } => {
                    diags.push(Diagnostic::new(
                        DiagKind::RseqHandlerSideEffect,
                        pc,
                        format!(
                            "abort handler executes `{inst}`: calls and interlocked \
                             ops are side effects the abort protocol cannot undo"
                        ),
                    ));
                }
                Inst::Syscall => {
                    let num = fact.get(Reg::V0);
                    if num != Some(abi::SYS_RSEQ) && num != Some(abi::SYS_EXIT) {
                        diags.push(Diagnostic::new(
                            DiagKind::RseqHandlerSyscall,
                            pc,
                            "abort handler makes a syscall that is neither rseq \
                             re-registration nor a clean thread exit"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            }
        },
        |_, _, _, _, _| {},
    );

    diags
}

/// The window's end for messages, exact even where it lies past the
/// code address space.
fn window_end(d: &RseqCs) -> u64 {
    u64::from(d.start_ip) + u64::from(d.post_commit_offset)
}

/// The syntactic per-descriptor checks: bounds, commit shape, window
/// purity, and abort placement/reachability.
fn window_diags(program: &Program, len: CodeAddr, d: &RseqCs, diags: &mut Vec<Diagnostic>) {
    if d.post_commit_offset == 0 {
        diags.push(Diagnostic::new(
            DiagKind::RseqEmptyWindow,
            d.start_ip.min(len.saturating_sub(1)),
            format!(
                "rseq descriptor at data {} has post_commit_offset 0: the window \
                 contains no instructions and protects nothing",
                d.cs_addr
            ),
        ));
        return;
    }
    let Some(end) = d
        .post_commit_ip()
        .filter(|&end| d.start_ip < len && end <= len)
    else {
        diags.push(Diagnostic::new(
            DiagKind::RseqWindowOutOfBounds,
            d.start_ip.min(len.saturating_sub(1)),
            format!(
                "rseq window [@{}..@{}) extends past the end of the code image \
                 (length {len})",
                d.start_ip,
                window_end(d)
            ),
        ));
        return;
    };
    if d.abort_ip >= len {
        diags.push(Diagnostic::new(
            DiagKind::RseqWindowOutOfBounds,
            d.start_ip,
            format!(
                "abort_ip @{} lies past the end of the code image (length {len})",
                d.abort_ip
            ),
        ));
    } else if d.contains(d.abort_ip) {
        diags.push(Diagnostic::new(
            DiagKind::RseqAbortInsideWindow,
            d.abort_ip,
            format!(
                "abort_ip @{} lies inside its own window [@{}..@{}): the abort \
                 dispatch would land back in the aborted region",
                d.abort_ip, d.start_ip, end
            ),
        ));
    }

    let commit_pc = end - 1;
    match program.fetch(commit_pc) {
        Some(Inst::Sw { .. }) => {}
        Some(inst) => diags.push(Diagnostic::new(
            DiagKind::RseqCommitNotStore,
            commit_pc,
            format!(
                "the last instruction of the rseq window is `{inst}`, not a plain \
                 store: there is no single commit point for the abort to cut before"
            ),
        )),
        None => {}
    }

    for pc in d.start_ip..commit_pc {
        let Some(inst) = program.fetch(pc) else { break };
        match inst {
            Inst::Sw { .. } | Inst::Tas { .. } | Inst::BeginAtomic | Inst::Halt => {
                diags.push(Diagnostic::new(
                    DiagKind::RseqSideEffectBeforeCommit,
                    pc,
                    format!(
                        "`{inst}` before the commit point: an abort after it leaves \
                         the side effect behind with no rollback"
                    ),
                ));
            }
            Inst::Syscall => diags.push(Diagnostic::new(
                DiagKind::RseqSyscallInWindow,
                pc,
                "syscall inside an rseq window: the kernel boundary is itself a \
                 preemption point and its effects cannot be aborted"
                    .to_string(),
            )),
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Jr { .. } => {
                diags.push(Diagnostic::new(
                    DiagKind::RseqCallInWindow,
                    pc,
                    format!(
                        "`{inst}` inside an rseq window: the callee runs outside \
                         the descriptor's declared bounds"
                    ),
                ));
            }
            Inst::Branch { target, .. } | Inst::J { target } if target < end => {
                diags.push(Diagnostic::new(
                    DiagKind::RseqBranchInWindow,
                    pc,
                    format!(
                        "branch to @{target} stays inside (or jumps backward \
                         into) the window [@{}..@{}): every early exit must \
                         jump forward past the commit point",
                        d.start_ip, end
                    ),
                ));
            }
            _ => {}
        }
    }

    // Abort reachability by normal control flow. The handler must be an
    // island: entered only by kernel dispatch.
    if d.abort_ip < len && !d.contains(d.abort_ip) {
        if d.abort_ip > 0 {
            if let Some(prev) = program.fetch(d.abort_ip - 1) {
                if prev.falls_through() {
                    diags.push(Diagnostic::new(
                        DiagKind::RseqAbortReachable,
                        d.abort_ip,
                        format!(
                            "`{prev}` at @{} falls through into the abort handler: \
                             normal execution would run the abort path",
                            d.abort_ip - 1
                        ),
                    ));
                }
            }
        }
        for (pc, inst) in program.code().iter().enumerate() {
            if inst.branch_target() == Some(d.abort_ip) {
                diags.push(Diagnostic::new(
                    DiagKind::RseqAbortReachable,
                    pc as CodeAddr,
                    format!(
                        "`{inst}` targets the abort handler at @{}: the handler \
                         must be reachable only via kernel abort dispatch",
                        d.abort_ip
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_guest::rseq::{emit_rseq_tas, emit_rseq_tas_broken};
    use ras_isa::{Asm, DataLayout, Label};
    use ras_kernel::DesignatedSet;

    fn analyze_with_lockset(program: &Program) -> Vec<Diagnostic> {
        let cfg = Cfg::build(program);
        let config = crate::lockset::LocksetConfig::standard(program, &DesignatedSet::standard());
        let ls = crate::lockset::lockset(program, &cfg, &config);
        abort_safety(program, &cfg, &ls)
    }

    /// A hand-built single-descriptor program: publish, a 3-instruction
    /// window committing through `sw`, a `jr` return, then the handler.
    /// `patch` gets to deface the descriptor before `finish`.
    fn toy(patch: impl FnOnce(&mut RseqCs), body: impl FnOnce(&mut Asm, Label)) -> Program {
        let mut data = DataLayout::new();
        let cs = data.array("cs", 4, 0);
        let lock = data.word("lock", 0);
        let mut asm = Asm::new();
        asm.set_entry_here();
        asm.li(Reg::A0, lock as i32);
        let retry = asm.bind_new();
        asm.li(Reg::T0, 64);
        asm.li(Reg::V0, cs as i32);
        asm.sw(Reg::V0, Reg::T0, 0); // publish
        let start_ip = asm.here();
        asm.lw(Reg::V0, Reg::A0, 0);
        asm.li(Reg::T2, 1);
        asm.sw(Reg::T2, Reg::A0, 0); // commit
        asm.jr(Reg::RA);
        let abort_ip = asm.here();
        body(&mut asm, retry);
        let mut d = RseqCs {
            start_ip,
            post_commit_offset: 3,
            abort_ip,
            flags: 0,
            cs_addr: cs,
        };
        patch(&mut d);
        asm.declare_rseq(d);
        asm.finish().unwrap()
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn the_bundled_emitter_is_abort_safe() {
        let mut data = DataLayout::new();
        let lock = data.word("lock", 0);
        let mut asm = Asm::new();
        let t = emit_rseq_tas(&mut asm, &mut data, 4);
        asm.set_entry_here();
        asm.li(Reg::A0, lock as i32);
        asm.jal_to(t.entry);
        asm.halt();
        let p = asm.finish().unwrap();
        let diags = analyze_with_lockset(&p);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn the_broken_emitter_is_flagged_for_its_pre_republication_store() {
        let mut data = DataLayout::new();
        let lock = data.word("lock", 0);
        let scratch = data.word("scratch", 0);
        let mut asm = Asm::new();
        let t = emit_rseq_tas_broken(&mut asm, &mut data, 4, scratch);
        asm.set_entry_here();
        asm.li(Reg::A0, lock as i32);
        asm.jal_to(t.entry);
        asm.halt();
        let p = asm.finish().unwrap();
        let diags = analyze_with_lockset(&p);
        assert!(
            kinds(&diags).contains(&DiagKind::RseqHandlerSideEffect),
            "{diags:#?}"
        );
    }

    #[test]
    fn a_clean_toy_descriptor_passes() {
        let p = toy(
            |_| {},
            |asm, retry| {
                asm.j(retry);
            },
        );
        let diags = analyze_with_lockset(&p);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn retry_without_republication_is_stale() {
        // The handler jumps straight back to the window start, skipping
        // the publish store.
        let p = toy(
            |_| {},
            |asm, _| {
                asm.j_to(4); // start_ip of the toy layout
            },
        );
        let diags = analyze_with_lockset(&p);
        assert!(
            kinds(&diags).contains(&DiagKind::RseqStaleRetry),
            "{diags:#?}"
        );
    }

    #[test]
    fn handler_syscalls_other_than_rseq_and_exit_are_flagged() {
        let p = toy(
            |_| {},
            |asm, retry| {
                asm.li(Reg::V0, abi::SYS_PRINT as i32);
                asm.syscall();
                asm.j(retry);
            },
        );
        let diags = analyze_with_lockset(&p);
        assert!(
            kinds(&diags).contains(&DiagKind::RseqHandlerSyscall),
            "{diags:#?}"
        );
    }

    #[test]
    fn handler_calls_are_side_effects() {
        let p = toy(
            |_| {},
            |asm, retry| {
                asm.jal_to(0);
                asm.j(retry);
            },
        );
        let diags = analyze_with_lockset(&p);
        assert!(
            kinds(&diags).contains(&DiagKind::RseqHandlerSideEffect),
            "{diags:#?}"
        );
    }

    #[test]
    fn window_shape_violations_are_reported() {
        // Empty window.
        let p = toy(
            |d| d.post_commit_offset = 0,
            |asm, r| {
                asm.j(r);
            },
        );
        assert!(kinds(&analyze_with_lockset(&p)).contains(&DiagKind::RseqEmptyWindow));

        // Out-of-bounds window.
        let p = toy(
            |d| d.post_commit_offset = 1000,
            |asm, r| {
                asm.j(r);
            },
        );
        assert!(kinds(&analyze_with_lockset(&p)).contains(&DiagKind::RseqWindowOutOfBounds));

        // Window ending one early: the "commit" is the li, not the sw.
        let p = toy(
            |d| d.post_commit_offset = 2,
            |asm, r| {
                asm.j(r);
            },
        );
        assert!(kinds(&analyze_with_lockset(&p)).contains(&DiagKind::RseqCommitNotStore));

        // Abort inside the window.
        let p = toy(
            |d| d.abort_ip = d.start_ip + 1,
            |asm, r| {
                asm.j(r);
            },
        );
        assert!(kinds(&analyze_with_lockset(&p)).contains(&DiagKind::RseqAbortInsideWindow));

        // Window stretched over the publish store *and* the jr: a store
        // before the commit point and a call-class op inside.
        let p = toy(
            |d| {
                d.start_ip -= 1;
                d.post_commit_offset += 3;
            },
            |asm, r| {
                asm.j(r);
            },
        );
        let ks = kinds(&analyze_with_lockset(&p));
        assert!(ks.contains(&DiagKind::RseqSideEffectBeforeCommit), "{ks:?}");
        assert!(ks.contains(&DiagKind::RseqCommitNotStore), "{ks:?}");
        assert!(ks.contains(&DiagKind::RseqCallInWindow), "{ks:?}");
    }

    #[test]
    fn overlapping_windows_are_reported_once_per_pair() {
        let mut data = DataLayout::new();
        let cs = data.array("cs", 8, 0);
        let lock = data.word("lock", 0);
        let mut asm = Asm::new();
        asm.set_entry_here();
        asm.li(Reg::A0, lock as i32);
        asm.lw(Reg::V0, Reg::A0, 0);
        asm.li(Reg::T2, 1);
        asm.sw(Reg::T2, Reg::A0, 0);
        asm.jr(Reg::RA);
        let abort = asm.here();
        asm.j_to(1);
        let d1 = RseqCs {
            start_ip: 1,
            post_commit_offset: 3,
            abort_ip: abort,
            flags: 0,
            cs_addr: cs,
        };
        let d2 = RseqCs {
            start_ip: 2,
            post_commit_offset: 2,
            abort_ip: abort,
            flags: 0,
            cs_addr: cs + 16,
        };
        asm.declare_rseq(d1);
        asm.declare_rseq(d2);
        let p = asm.finish().unwrap();
        let ks = kinds(&analyze_with_lockset(&p));
        assert_eq!(
            ks.iter()
                .filter(|k| **k == DiagKind::RseqOverlappingWindows)
                .count(),
            1,
            "{ks:?}"
        );
    }

    #[test]
    fn fallthrough_and_jumps_into_the_handler_are_flagged() {
        // Fallthrough: the instruction before the handler is a plain li.
        let mut data = DataLayout::new();
        let cs = data.array("cs", 4, 0);
        let lock = data.word("lock", 0);
        let mut asm = Asm::new();
        asm.set_entry_here();
        asm.li(Reg::A0, lock as i32);
        let start = asm.here();
        asm.lw(Reg::V0, Reg::A0, 0);
        asm.li(Reg::T2, 1);
        asm.sw(Reg::T2, Reg::A0, 0);
        asm.li(Reg::T3, 0); // falls through into the handler
        let abort = asm.here();
        asm.halt();
        asm.declare_rseq(RseqCs {
            start_ip: start,
            post_commit_offset: 3,
            abort_ip: abort,
            flags: 0,
            cs_addr: cs,
        });
        let p = asm.finish().unwrap();
        assert!(
            kinds(&analyze_with_lockset(&p)).contains(&DiagKind::RseqAbortReachable),
            "fallthrough"
        );
    }
}
