//! rseq-style critical-section code generators — the modern Linux
//! descendant of the paper's restartable atomic sequences, with abort
//! handlers instead of restart-from-top.
//!
//! The generated `__rseq_tas` follows the production `rseq` shape:
//!
//! 1. **Lazy registration** — the first call on each thread registers a
//!    per-thread area word with the kernel (`SYS_RSEQ`) and marks a guard
//!    word so later calls skip the syscall (glibc registers at thread
//!    start; this runtime has no TLS init hook, so the fast path carries
//!    a two-instruction guard check instead).
//! 2. **Publish** — store the descriptor address into the area word.
//! 3. **Window** — the three-instruction Test-And-Set
//!    (`lw; li; sw`). A preemption anywhere in the window redirects the
//!    thread to the abort handler.
//! 4. **Commit + clear** — past the committing store the kernel lazily
//!    clears the stale descriptor pointer; the function clears it eagerly
//!    on the common path.
//! 5. **Abort handler** — placed after the `jr ra`, reachable only via
//!    kernel abort dispatch; it simply retries from the publish store
//!    (re-publication re-arms the descriptor).
//!
//! The descriptor's code addresses are only known after emission, so the
//! four descriptor words are allocated zeroed up front and patched via
//! [`DataLayout::set_word`].

use ras_isa::{abi, Asm, CodeAddr, DataLayout, Reg, RseqCs, RSEQ_CS_WORDS};

/// An emitted rseq Test-And-Set: its entry point and the descriptor its
/// window publishes.
#[derive(Debug, Clone, Copy)]
pub struct RseqTas {
    /// Entry address of the `__rseq_tas` function.
    pub entry: CodeAddr,
    /// The critical-section descriptor (also declared on the program for
    /// the static abort-safety pass).
    pub desc: RseqCs,
}

/// Emits the `__rseq_tas` function (`$a0` = lock word, old value in
/// `$v0`; preserves `$a0`, clobbers `$v0`, `$t0..$t4`, and — on each
/// thread's first call — traps into the kernel to register). Allocates
/// the per-thread area and guard arrays plus the descriptor words in
/// `data`, sized for `max_threads` threads.
pub fn emit_rseq_tas(asm: &mut Asm, data: &mut DataLayout, max_threads: usize) -> RseqTas {
    emit_rseq_tas_named(
        asm,
        data,
        max_threads,
        "__rseq_tas",
        "__rseq_area",
        "__rseq_registered",
        "__rseq_cs_tas",
        None,
    )
}

/// Emits a deliberately **broken** variant of [`emit_rseq_tas`] whose
/// abort handler performs a visible store (to `scratch`) before
/// re-publishing the descriptor — the classic abort-path bug the static
/// abort-safety pass exists to catch. Used by lint tests; never by real
/// workloads.
pub fn emit_rseq_tas_broken(
    asm: &mut Asm,
    data: &mut DataLayout,
    max_threads: usize,
    scratch: u32,
) -> RseqTas {
    emit_rseq_tas_named(
        asm,
        data,
        max_threads,
        "__rseq_tas_broken",
        "__rseq_area_broken",
        "__rseq_registered_broken",
        "__rseq_cs_tas_broken",
        Some(scratch),
    )
}

#[allow(clippy::too_many_arguments)]
fn emit_rseq_tas_named(
    asm: &mut Asm,
    data: &mut DataLayout,
    max_threads: usize,
    fn_name: &str,
    area_name: &str,
    guard_name: &str,
    cs_name: &str,
    broken_scratch: Option<u32>,
) -> RseqTas {
    let area = data.array(area_name, max_threads, 0);
    let guard = data.array(guard_name, max_threads, 0);
    let cs_addr = data.array(cs_name, RSEQ_CS_WORDS, 0);

    let entry = asm.bind_symbol(fn_name);
    let registered = asm.label();
    // $t1 = 4 * thread id; $gp carries the id (ABI, written at spawn).
    asm.slli(Reg::T1, Reg::GP, 2);
    asm.li(Reg::T3, guard as i32);
    asm.add(Reg::T3, Reg::T3, Reg::T1);
    asm.lw(Reg::T2, Reg::T3, 0);
    asm.bnez(Reg::T2, registered);
    // First call on this thread: register our area slot. The kernel
    // writes only $v0 back, but $a0/$a1/$v0 are trap arguments, so the
    // lock address is stashed in $t4 across the syscall.
    asm.mv(Reg::T4, Reg::A0);
    asm.li(Reg::T0, area as i32);
    asm.add(Reg::A0, Reg::T0, Reg::T1);
    asm.li(Reg::A1, 0);
    asm.li(Reg::V0, abi::SYS_RSEQ as i32);
    asm.syscall();
    asm.mv(Reg::A0, Reg::T4);
    asm.li(Reg::T2, 1);
    asm.sw(Reg::T2, Reg::T3, 0);
    asm.bind(registered);
    // $t0 = this thread's area word.
    asm.li(Reg::T0, area as i32);
    asm.add(Reg::T0, Reg::T0, Reg::T1);
    // Publish the descriptor, then run the window. The window starts at
    // the instruction after the publish store, so there is no gap in
    // which the kernel could see a published descriptor with the PC
    // still outside it (and lazily clear it mid-entry).
    let retry = asm.bind_new();
    asm.li(Reg::V0, cs_addr as i32);
    asm.sw(Reg::V0, Reg::T0, 0);
    let start_ip = asm.here();
    asm.lw(Reg::V0, Reg::A0, 0);
    asm.li(Reg::T2, 1);
    asm.sw(Reg::T2, Reg::A0, 0); // committing store
    asm.sw(Reg::ZERO, Reg::T0, 0); // eager clear on the common path
    asm.jr(Reg::RA);
    // Abort handler: after the return, reachable only via kernel abort
    // dispatch. The kernel cleared the area word, so retrying through the
    // publish store re-arms the descriptor.
    let abort_ip = asm.here();
    if let Some(scratch) = broken_scratch {
        // BROKEN: a visible side effect before the retry republishes —
        // if this handler itself is preempted, the store has escaped an
        // aborted (never-committed) critical section.
        asm.li(Reg::T5, scratch as i32);
        asm.sw(Reg::T2, Reg::T5, 0);
    }
    asm.j(retry);

    let desc = RseqCs {
        start_ip,
        post_commit_offset: 3,
        abort_ip,
        flags: 0,
        cs_addr,
    };
    // Dual declaration: the ordinary seq-range makes the window visible
    // to every existing range-aware consumer (observability booleans,
    // protected-range reconciliation); the rseq descriptor drives the
    // kernel ABI and the abort-safety pass.
    asm.declare_seq(desc.window());
    asm.declare_rseq(desc);
    for (i, w) in desc.to_words().iter().enumerate() {
        data.set_word(cs_addr + 4 * i as u32, *w);
    }
    RseqTas { entry, desc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_isa::Opcode;

    #[test]
    fn descriptor_words_are_patched_into_the_data_image() {
        let mut asm = Asm::new();
        let mut data = DataLayout::new();
        let t = emit_rseq_tas(&mut asm, &mut data, 4);
        let p = asm.finish().unwrap();
        let img = data.finish();
        let cs = img.symbol("__rseq_cs_tas").unwrap();
        assert_eq!(cs, t.desc.cs_addr);
        let init: std::collections::BTreeMap<u32, u32> =
            img.initializers().iter().copied().collect();
        assert_eq!(init.get(&cs).copied().unwrap_or(0), t.desc.start_ip);
        assert_eq!(init.get(&(cs + 4)).copied().unwrap_or(0), 3);
        assert_eq!(init.get(&(cs + 8)).copied().unwrap_or(0), t.desc.abort_ip);
        assert_eq!(init.get(&(cs + 12)).copied().unwrap_or(0), 0);
        assert_eq!(p.rseq_descs(), &[t.desc]);
        assert_eq!(p.seq_ranges(), &[t.desc.window()]);
    }

    #[test]
    fn window_is_publish_adjacent_and_handler_follows_the_return() {
        let mut asm = Asm::new();
        let mut data = DataLayout::new();
        let t = emit_rseq_tas(&mut asm, &mut data, 2);
        let p = asm.finish().unwrap();
        // Publish store immediately precedes the window.
        assert_eq!(
            p.fetch(t.desc.start_ip - 1).unwrap().opcode(),
            Opcode::Sw,
            "publish store"
        );
        let end = t.desc.post_commit_ip().unwrap();
        let ops: Vec<Opcode> = (t.desc.start_ip..end)
            .map(|pc| p.fetch(pc).unwrap().opcode())
            .collect();
        assert_eq!(ops, vec![Opcode::Lw, Opcode::Li, Opcode::Sw]);
        // The clear and return sit between commit and abort handler.
        assert_eq!(p.fetch(end).unwrap().opcode(), Opcode::Sw);
        assert_eq!(
            p.fetch(t.desc.abort_ip - 1).unwrap().opcode(),
            Opcode::Jr,
            "handler is unreachable by fallthrough"
        );
        assert_eq!(p.fetch(t.desc.abort_ip).unwrap().opcode(), Opcode::J);
    }

    #[test]
    fn broken_variant_stores_before_republishing() {
        let mut asm = Asm::new();
        let mut data = DataLayout::new();
        let scratch = data.word("scratch", 0);
        let t = emit_rseq_tas_broken(&mut asm, &mut data, 2, scratch);
        let p = asm.finish().unwrap();
        assert_eq!(p.fetch(t.desc.abort_ip).unwrap().opcode(), Opcode::Li);
        assert_eq!(p.fetch(t.desc.abort_ip + 1).unwrap().opcode(), Opcode::Sw);
    }
}
