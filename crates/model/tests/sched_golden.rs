//! Golden fingerprints for the explorer over every bundled model
//! target, pinned before the kernel's O(1) scheduler refactor. The
//! intrusive ready queue and futex-style wait buckets must reproduce
//! the exact dispatch and wake order the VecDeque/HashMap structures
//! produced, so every counter of every exploration — schedules,
//! pruning, dedup, snapshot bytes, violations with their minimized
//! schedules — must match these strings byte for byte.
//!
//! Regenerate (only when the *search itself* legitimately changes, e.g.
//! a new model target) with:
//!
//! ```sh
//! cargo test -p ras-model --test sched_golden -- --nocapture print_fingerprints
//! ```
//!
//! A second table pins the benchmark's matrix: every target at
//! preemption bound 3 with no subtree splitting. It is the only pin at
//! that depth, so a state hash that fused or split states there (and
//! only there) cannot pass. The matrix takes about a second in release
//! and about twenty in debug builds, so the check runs in release
//! builds only.
//! Regenerate with:
//!
//! ```sh
//! cargo test --release -p ras-model --test sched_golden -- --nocapture --ignored print_bound3_fingerprints
//! ```

use ras_model::{check_target, CheckConfig, ModelTarget, TargetReport};

/// The benchmark's explorer configuration: bound 3, no subtree
/// splitting, the default (interpreter) engine.
fn bound3() -> CheckConfig {
    CheckConfig {
        preemption_bound: 3,
        split_depth: 0,
        ..CheckConfig::default()
    }
}

/// Everything dispatch-order-sensitive about an exploration. The one
/// field deliberately absent is `snapshot_bytes`: the checkpoint
/// footprint is an honest size report, and shrinking it is the point
/// of the flat-slab checkpoint refactor, so it is asserted separately
/// (smaller-or-equal) rather than pinned.
fn fingerprint(r: &TargetReport) -> String {
    let mut out = format!(
        "schedules={} pruned={} cycles={} livelock={} cap={} \
         checkpoints={} undo={} deduped={} rseq={}",
        r.schedules,
        r.pruned,
        r.cycles,
        r.livelock_suspects,
        r.hit_schedule_cap,
        r.checkpoints,
        r.undo_replayed,
        r.states_deduped,
        r.rseq_aborts
    );
    for v in &r.violations {
        out.push_str(&format!(
            " {}@{}:{:?}",
            v.diag.kind.code(),
            v.found_after,
            v.schedule.decisions
        ));
    }
    for race in &r.races {
        out.push_str(&format!(" {race}"));
    }
    out
}

/// Prints the current fingerprints in GOLDEN-table form; ignored in
/// normal runs, used only to regenerate the table below.
#[test]
#[ignore = "generator for the GOLDEN table"]
fn print_fingerprints() {
    for target in ModelTarget::all() {
        let r = check_target(target, &CheckConfig::default());
        println!("    (\"{target}\", \"{}\"),", fingerprint(&r));
    }
}

/// Prints the bound-3 fingerprints (with snapshot bytes) in
/// GOLDEN_BOUND3-table form.
#[test]
#[ignore = "generator for the GOLDEN_BOUND3 table"]
fn print_bound3_fingerprints() {
    for target in ModelTarget::all() {
        let r = check_target(target, &bound3());
        println!(
            "    (\"{target}\", \"{} snapshot={}\"),",
            fingerprint(&r),
            r.snapshot_bytes
        );
    }
}

#[test]
fn explorer_results_match_pre_refactor_golden() {
    const GOLDEN: &[(&str, &str)] = &[
        ("ras-registered+tas", "schedules=806 pruned=104 cycles=198 livelock=0 cap=false checkpoints=909 undo=3247 deduped=198 rseq=0"),
        ("ras-inline+tas", "schedules=803 pruned=94 cycles=198 livelock=0 cap=false checkpoints=896 undo=3230 deduped=198 rseq=0"),
        ("ras-inline+cas", "schedules=803 pruned=94 cycles=198 livelock=0 cap=false checkpoints=896 undo=3230 deduped=198 rseq=0"),
        ("ras-inline+xchg", "schedules=806 pruned=104 cycles=198 livelock=0 cap=false checkpoints=909 undo=3247 deduped=198 rseq=0"),
        ("ras-inline+faa", "schedules=181 pruned=24 cycles=0 livelock=0 cap=false checkpoints=204 undo=229 deduped=0 rseq=0"),
        ("kernel-emulation+tas", "schedules=864 pruned=30 cycles=216 livelock=0 cap=false checkpoints=893 undo=3499 deduped=216 rseq=0"),
        ("interlocked+tas", "schedules=709 pruned=86 cycles=186 livelock=0 cap=false checkpoints=794 undo=2718 deduped=186 rseq=0"),
        ("lamport-a+tas", "schedules=1422 pruned=330 cycles=346 livelock=0 cap=false checkpoints=1751 undo=8377 deduped=346 rseq=0"),
        ("lamport-b+tas", "schedules=1994 pruned=402 cycles=469 livelock=0 cap=false checkpoints=2395 undo=16337 deduped=469 rseq=0"),
        ("user-level+tas", "schedules=1364 pruned=104 cycles=258 livelock=0 cap=false checkpoints=1467 undo=9384 deduped=258 rseq=0"),
        ("hardware-bit+tas", "schedules=806 pruned=104 cycles=198 livelock=0 cap=false checkpoints=909 undo=3247 deduped=198 rseq=0"),
        ("rseq+tas", "schedules=1743 pruned=78 cycles=336 livelock=0 cap=false checkpoints=1820 undo=12749 deduped=336 rseq=132"),
        ("ras-inline+tas+none", "schedules=785 pruned=98 cycles=186 livelock=0 cap=false checkpoints=882 undo=3139 deduped=188 rseq=0 mutex-violation@192:[(8, Preempt(ThreadId(2))), (14, Preempt(ThreadId(1)))] lost-update@194:[(8, Preempt(ThreadId(2))), (13, Preempt(ThreadId(1)))] error[data-race] @119: unordered read of shared word 0x4 (conflicting access at pc 139) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 139) error[data-race] @128: unordered write of shared word 0xc (conflicting access at pc 137) error[data-race] @129: unordered read of shared word 0x8 (conflicting access at pc 131) error[data-race] @131: unordered write of shared word 0x8 (conflicting access at pc 131) error[data-race] @132: unordered read of shared word 0xc (conflicting access at pc 128) error[data-race] @137: unordered write of shared word 0xc (conflicting access at pc 128) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 123) error[data-race] @119: unordered read of shared word 0x4 (conflicting access at pc 123) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 119) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 119) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 123) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 139) error[data-race] @128: unordered write of shared word 0xc (conflicting access at pc 128) error[data-race] @137: unordered write of shared word 0xc (conflicting access at pc 137) error[data-race] @132: unordered read of shared word 0xc (conflicting access at pc 137) error[data-race] @131: unordered write of shared word 0x8 (conflicting access at pc 129)"),
    ];
    // Pre-refactor snapshot footprint per target: the flat-slab
    // checkpoints must never be larger than the HashMap clones were.
    const SNAPSHOT_CEILING: &[u64] = &[
        1036296, 1021424, 1021424, 1036296, 231672, 1018668, 905152, 1997124, 2733404, 1675392,
        1036296, 2076904, 1005364,
    ];
    let targets = ModelTarget::all();
    assert_eq!(targets.len(), GOLDEN.len(), "target set changed");
    for (i, (target, (name, expected))) in targets.into_iter().zip(GOLDEN).enumerate() {
        assert_eq!(&target.to_string(), name, "target order changed");
        let r = check_target(target, &CheckConfig::default());
        assert_eq!(
            &fingerprint(&r),
            expected,
            "exploration of {target} diverged from the pre-refactor golden"
        );
        assert!(
            r.snapshot_bytes <= SNAPSHOT_CEILING[i],
            "checkpoint footprint of {target} grew: {} > {}",
            r.snapshot_bytes,
            SNAPSHOT_CEILING[i]
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the bound-3 matrix takes ~20 s in debug builds"
)]
fn bound3_matrix_matches_golden() {
    const GOLDEN_BOUND3: &[(&str, &str)] = &[
        ("ras-registered+tas", "schedules=7726 pruned=909 cycles=2029 livelock=0 cap=false checkpoints=8530 undo=27703 deduped=2029 rseq=0 snapshot=9343312"),
        ("ras-inline+tas", "schedules=7532 pruned=805 cycles=2005 livelock=0 cap=false checkpoints=8242 undo=26657 deduped=2005 rseq=0 snapshot=9027664"),
        ("ras-inline+cas", "schedules=7532 pruned=804 cycles=2009 livelock=0 cap=false checkpoints=8241 undo=26637 deduped=2009 rseq=0 snapshot=9026568"),
        ("ras-inline+xchg", "schedules=7726 pruned=908 cycles=2033 livelock=0 cap=false checkpoints=8529 undo=27683 deduped=2033 rseq=0 snapshot=9342216"),
        ("ras-inline+faa", "schedules=818 pruned=132 cycles=84 livelock=0 cap=false checkpoints=925 undo=773 deduped=84 rseq=0 snapshot=1011688"),
        ("kernel-emulation+tas", "schedules=8593 pruned=289 cycles=2214 livelock=0 cap=false checkpoints=8851 undo=29929 deduped=2214 rseq=0 snapshot=9693016"),
        ("interlocked+tas", "schedules=6313 pruned=687 cycles=1725 livelock=0 cap=false checkpoints=6913 undo=21654 deduped=1725 rseq=0 snapshot=7571656"),
        ("lamport-a+tas", "schedules=17182 pruned=3179 cycles=4530 livelock=0 cap=false checkpoints=20030 undo=87816 deduped=4530 rseq=0 snapshot=21943856"),
        ("lamport-b+tas", "schedules=30276 pruned=5079 cycles=7170 livelock=0 cap=false checkpoints=34952 undo=226033 deduped=7170 rseq=0 snapshot=38297216"),
        ("user-level+tas", "schedules=16669 pruned=1363 cycles=3179 livelock=0 cap=false checkpoints=17927 undo=108271 deduped=3179 rseq=0 snapshot=19642424"),
        ("hardware-bit+tas", "schedules=7726 pruned=909 cycles=2029 livelock=0 cap=false checkpoints=8530 undo=27703 deduped=2029 rseq=0 snapshot=9343312"),
        ("rseq+tas", "schedules=25208 pruned=1785 cycles=5390 livelock=0 cap=false checkpoints=26914 undo=158685 deduped=5390 rseq=2044 snapshot=29484688"),
        ("ras-inline+tas+none", "schedules=7189 pruned=834 cycles=1785 livelock=0 cap=false checkpoints=7924 undo=25135 deduped=1788 rseq=0 mutex-violation@629:[(8, Preempt(ThreadId(2))), (15, Preempt(ThreadId(1))), (20, Preempt(ThreadId(2)))] lost-update@647:[(8, Preempt(ThreadId(2))), (13, Preempt(ThreadId(1)))] error[data-race] @119: unordered read of shared word 0x4 (conflicting access at pc 139) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 139) error[data-race] @128: unordered write of shared word 0xc (conflicting access at pc 137) error[data-race] @129: unordered read of shared word 0x8 (conflicting access at pc 131) error[data-race] @131: unordered write of shared word 0x8 (conflicting access at pc 131) error[data-race] @132: unordered read of shared word 0xc (conflicting access at pc 128) error[data-race] @137: unordered write of shared word 0xc (conflicting access at pc 128) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 123) error[data-race] @119: unordered read of shared word 0x4 (conflicting access at pc 123) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 119) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 119) error[data-race] @123: unordered write of shared word 0x4 (conflicting access at pc 123) error[data-race] @139: unordered write of shared word 0x4 (conflicting access at pc 139) error[data-race] @128: unordered write of shared word 0xc (conflicting access at pc 128) error[data-race] @137: unordered write of shared word 0xc (conflicting access at pc 137) error[data-race] @132: unordered read of shared word 0xc (conflicting access at pc 137) error[data-race] @131: unordered write of shared word 0x8 (conflicting access at pc 129) snapshot=8679136"),
    ];
    let targets = ModelTarget::all();
    assert_eq!(targets.len(), GOLDEN_BOUND3.len(), "target set changed");
    for (target, (name, expected)) in targets.into_iter().zip(GOLDEN_BOUND3) {
        assert_eq!(&target.to_string(), name, "target order changed");
        let r = check_target(target, &bound3());
        assert_eq!(
            &format!("{} snapshot={}", fingerprint(&r), r.snapshot_bytes),
            expected,
            "bound-3 exploration of {target} diverged from the golden"
        );
    }
}
