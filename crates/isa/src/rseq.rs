use crate::{CodeAddr, DataAddr, SeqRange};

/// Descriptor flag: do not abort the critical section on preemption.
///
/// The modern `rseq` ABI carries per-descriptor flags that suppress the
/// abort on selected kernel events; this simulator models the preemption
/// bit. A window carrying this flag is *not* atomic under preemption —
/// the static abort-safety pass treats it like undeclared code — but the
/// flag is part of the ABI so experiments can measure exactly what the
/// abort machinery buys.
pub const RSEQ_CS_NO_RESTART_ON_PREEMPT: u32 = 1 << 0;

/// Number of data words a descriptor occupies in guest memory.
pub const RSEQ_CS_WORDS: usize = 4;

/// An rseq-style critical-section descriptor: the window a preemption
/// aborts out of, and where the abort lands.
///
/// This is the simulator's rendition of Linux's `struct rseq_cs`. The
/// in-memory form is [`RSEQ_CS_WORDS`] consecutive words at
/// [`RseqCs::cs_addr`] — `{start_ip, post_commit_offset, abort_ip,
/// flags}` — which the guest *publishes* by storing `cs_addr` into its
/// registered per-thread rseq area word. The kernel consults the
/// published descriptor when it preempts the thread: a PC inside
/// `[start_ip, start_ip + post_commit_offset)` is redirected to
/// `abort_ip` instead of being restarted from the top as the paper's
/// restartable atomic sequences are.
///
/// Like [`SeqRange`] declarations, the struct itself is in-memory
/// analysis metadata (see [`crate::Program::rseq_descs`]); the kernel
/// only ever reads the four data words.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RseqCs {
    /// First instruction of the critical-section window.
    pub start_ip: CodeAddr,
    /// Window length in instructions: the committing store is the last
    /// instruction inside, at `start_ip + post_commit_offset - 1`, and a
    /// PC of `start_ip + post_commit_offset` has already committed.
    pub post_commit_offset: u32,
    /// Where an aborted thread resumes. Must lie strictly outside the
    /// window and be reachable only via abort.
    pub abort_ip: CodeAddr,
    /// Descriptor flags ([`RSEQ_CS_NO_RESTART_ON_PREEMPT`]).
    pub flags: u32,
    /// Byte address of the descriptor's four words in guest data memory —
    /// also the value the guest stores to publish the descriptor, which
    /// is how the static pass recognizes re-registration stores.
    pub cs_addr: DataAddr,
}

impl RseqCs {
    /// The critical-section window as a code range.
    pub fn window(self) -> SeqRange {
        SeqRange {
            start: self.start_ip,
            len: self.post_commit_offset,
        }
    }

    /// First PC past the window: a thread suspended here has committed.
    /// `None` if the window's end lies past the code address space — the
    /// descriptor words are guest data, so any values can turn up here.
    pub fn post_commit_ip(self) -> Option<CodeAddr> {
        self.start_ip.checked_add(self.post_commit_offset)
    }

    /// Whether a preemption at `pc` aborts this descriptor's section.
    /// Half-open: the first instruction aborts (the abort handler simply
    /// retries), the post-commit PC commits. A window whose end overflows
    /// contains no pc.
    pub fn contains(self, pc: CodeAddr) -> bool {
        self.post_commit_ip()
            .is_some_and(|end| pc >= self.start_ip && pc < end)
    }

    /// The four words the guest stores at [`RseqCs::cs_addr`], in memory
    /// order.
    pub fn to_words(self) -> [u32; RSEQ_CS_WORDS] {
        [
            self.start_ip,
            self.post_commit_offset,
            self.abort_ip,
            self.flags,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> RseqCs {
        RseqCs {
            start_ip: 10,
            post_commit_offset: 3,
            abort_ip: 20,
            flags: 0,
            cs_addr: 64,
        }
    }

    #[test]
    fn window_is_half_open() {
        let d = desc();
        assert_eq!(d.window(), SeqRange { start: 10, len: 3 });
        assert_eq!(d.post_commit_ip(), Some(13));
        assert!(d.contains(10), "first instruction aborts");
        assert!(d.contains(12), "the committing store aborts");
        assert!(!d.contains(13), "post-commit PC has committed");
        assert!(!d.contains(9));
    }

    #[test]
    fn window_ending_past_the_address_space_contains_nothing() {
        let d = RseqCs {
            start_ip: u32::MAX - 1,
            post_commit_offset: 4,
            ..desc()
        };
        assert_eq!(d.post_commit_ip(), None);
        assert!(!d.contains(u32::MAX - 1));
        assert!(!d.contains(u32::MAX));
        let last = RseqCs {
            start_ip: u32::MAX - 1,
            post_commit_offset: 1,
            ..desc()
        };
        assert_eq!(last.post_commit_ip(), Some(u32::MAX));
        assert!(last.contains(u32::MAX - 1));
    }

    #[test]
    fn words_round_trip_the_fields() {
        let d = desc();
        assert_eq!(d.to_words(), [10, 3, 20, 0]);
        assert_eq!(d.to_words().len(), RSEQ_CS_WORDS);
    }
}
