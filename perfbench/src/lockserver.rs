//! The lock-server workloads: closed-loop clients on the simulated
//! uniprocessor, driven through `lock_server` + `boot` +
//! `enable_telemetry` + `Kernel::run`, the path `ras-stat` takes.

use std::time::Instant;

use ras_guest::workloads::{lock_addresses, lock_server, Arrival, LockServerSpec};
use ras_guest::{BuiltGuest, Mechanism};
use ras_kernel::{Kernel, KernelStats, Outcome as RunOutcome};
use ras_machine::{CpuProfile, EngineKind, TranslationStats};
use ras_obs::{validate_stat_snapshot, Log2Histogram, SnapshotMeta, StatSnapshot};

use crate::clock::Stamp;
use crate::report::{best_per_call_s, best_s, ratio, Layers, Metric, SETUPS_PER_REP};
use crate::trace::{trace_ratios, Tracer};
use crate::{Outcome, Plan};

/// Lock operations per client on the 64-client server: 128k ops, 0.11 to
/// 0.13 s on-CPU per repetition on a 2-vCPU virtual machine.
pub const ZIPF_OPS_PER_CLIENT: u32 = 2_000;
/// Lock operations per client on the 10,000-client server: 200k ops.
pub const CLIENTS_10K_OPS_PER_CLIENT: u32 = 20;
/// `Kernel::run` calls a timed run is cut into, each given an equal share
/// of the simulated cycles: a 2-6 ms call catches a quiet moment of the
/// host far more often than a whole 0.15 s run.
const RUN_SLICES: u64 = 64;

/// One lock-server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Guest synchronization mechanism.
    pub mechanism: Mechanism,
    /// Clients, locks, arrival pattern and schedule seed.
    pub spec: LockServerSpec,
    /// Streaming telemetry on the lock words (the `ras-stat` path).
    pub telemetry: bool,
    /// Per-thread stack bytes.
    pub stack_bytes: u32,
    /// Kernel jitter seed (inert: the jitter stays 0, as in the `ras-stat`
    /// bench configuration).
    pub seed: u64,
}

/// The schedule seed for benchmark seed `seed`. The guest's generator
/// sets the low bit of its seed, so raw seeds 2k and 2k+1 would share a
/// schedule; mixing first gives every seed its own.
fn schedule_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `lockserver-zipf`: the Mach range check, 64 clients on 8 locks,
/// telemetry on.
pub fn zipf(seed: u64) -> Config {
    Config {
        mechanism: Mechanism::RasRegistered,
        spec: LockServerSpec {
            clients: 64,
            locks: 8,
            ops_per_client: ZIPF_OPS_PER_CLIENT,
            arrival: Arrival::Zipfian,
            think: 200,
            seed: schedule_seed(seed),
            ..LockServerSpec::default()
        },
        telemetry: true,
        stack_bytes: 16 * 1024,
        seed,
    }
}

/// `lockserver-10k`: Taos designated sequences, 10,000 clients on 64
/// locks, 512-byte stacks, telemetry off.
pub fn clients_10k(seed: u64) -> Config {
    Config {
        mechanism: Mechanism::RasInline,
        spec: LockServerSpec {
            clients: 10_000,
            locks: 64,
            ops_per_client: CLIENTS_10K_OPS_PER_CLIENT,
            arrival: Arrival::Uniform,
            think: 200,
            seed: schedule_seed(seed),
            ..LockServerSpec::default()
        },
        telemetry: false,
        stack_bytes: 512,
        seed,
    }
}

/// Metrics the untraced run reports, per workload.
pub const ZIPF_REPORT: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("wall_ops_per_s", "1/s"),
    ("sim_cycles_per_op", "cycles"),
    ("wait_p50_cycles", "cycles"),
    ("wait_p99_cycles", "cycles"),
    ("wait_samples", "count"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];
/// As [`ZIPF_REPORT`], without telemetry.
pub const CLIENTS_10K_REPORT: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("wall_ops_per_s", "1/s"),
    ("sim_cycles_per_op", "cycles"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// The simulated results one repetition must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Exact {
    cycles: u64,
    instructions: u64,
    stats: KernelStats,
    /// Merged lock-wait p50, p99 and the acquisition count, when
    /// telemetry was on.
    wait: Option<(u64, u64, u64)>,
}

/// One arm: which engine and whether telemetry is on.
#[derive(Debug, Clone, Copy)]
struct Arm {
    name: &'static str,
    engine: EngineKind,
    telemetry: bool,
}

struct Rep {
    run: u32,
    total_ns: u64,
    setup_ns: u64,
    /// On-CPU ns of each `Kernel::run` call.
    run_ns: Vec<u64>,
    run_wall_ns: u64,
    lost: u64,
    code_words: u64,
    exact: Exact,
    translation: Option<TranslationStats>,
}

/// Lock ops a run lost: all of them unless it completed, else the gap
/// between the per-lock `ops_done` counters (and the telemetry's
/// acquisition count, when on) and the ops issued.
pub fn lost_ops(outcome: &RunOutcome, ops_done: u64, acquisitions: Option<u64>, total: u64) -> u64 {
    if !matches!(outcome, RunOutcome::Completed) {
        return total;
    }
    let gap = |n: u64| n.abs_diff(total);
    gap(ops_done).max(acquisitions.map_or(0, gap)).min(total)
}

fn rep(cfg: &Config, arm: Arm, fuel: u64, tracer: &mut Tracer) -> Rep {
    let run = tracer.next_run(arm.name);
    let total = Stamp::now();
    let mut rep = tracer.span("rep", |t| one_rep(cfg, arm, fuel, t));
    rep.run = run;
    rep.total_ns = total.cpu_elapsed();
    rep
}

/// The public build and boot calls before a run: `lock_server`, `boot`
/// and, with telemetry on, `enable_telemetry`.
fn set_up(cfg: &Config, arm: Arm, t: &mut Tracer) -> (BuiltGuest, Kernel) {
    let spec = &cfg.spec;
    let built: BuiltGuest = t.span("guest.build", |_| lock_server(cfg.mechanism, spec));
    let mut kernel = t.span("kernel.boot", |_| {
        let mut config = built.kernel_config(CpuProfile::r3000());
        config.quantum = 5_000;
        config.seed = cfg.seed;
        config.max_threads = spec.clients + 2;
        config.stack_bytes = cfg.stack_bytes;
        config.engine = arm.engine;
        built
            .boot(config)
            .expect("the lock server fits its data image")
    });
    if arm.telemetry {
        t.span("obs.enable_telemetry", |_| {
            kernel.enable_telemetry(&lock_addresses(&built, spec), false)
        });
    }
    (built, kernel)
}

/// On-CPU ns of `n` more set-ups of the main arm, each dropped unrun (see
/// [`SETUPS_PER_REP`]).
fn extra_setups(cfg: &Config, arm: Arm, n: usize) -> impl Iterator<Item = u64> + '_ {
    (0..n).map(move |_| {
        let s = Stamp::now();
        let guest = set_up(cfg, arm, &mut Tracer::new(false));
        let ns = s.cpu_elapsed();
        drop(guest);
        ns
    })
}

/// One set-up and run, the run made of `Kernel::run(fuel)` calls.
fn one_rep(cfg: &Config, arm: Arm, fuel: u64, t: &mut Tracer) -> Rep {
    let spec = &cfg.spec;
    let setup = Stamp::now();
    let (built, mut kernel) = set_up(cfg, arm, t);
    let setup_ns = setup.cpu_elapsed();

    let work = Stamp::now();
    let mut run_ns = Vec::new();
    let outcome = t.span("kernel.run", |_| loop {
        let call = Stamp::now();
        let outcome = kernel.run(fuel);
        run_ns.push(call.cpu_elapsed());
        if outcome != RunOutcome::OutOfFuel {
            break outcome;
        }
    });
    let run_wall_ns = work.wall_elapsed();

    let counters = built.data.symbol("ops_done").expect("ops_done exists");
    let ops_done: u64 = (0..spec.locks as u32)
        .map(|i| u64::from(kernel.read_word(counters + 4 * i).unwrap_or(0)))
        .sum();
    let cycles = kernel.machine().clock();
    let mut wait = None;
    let mut snapshot_ok = true;
    if let Some(tel) = kernel.take_telemetry() {
        let mut hist = Log2Histogram::new();
        for lock in tel.locks() {
            hist.merge(&lock.wait);
        }
        let acquisitions: u64 = tel.locks().iter().map(|l| l.acquisitions).sum();
        wait = Some((
            hist.percentile_permille(500),
            hist.percentile_permille(990),
            acquisitions,
        ));
        snapshot_ok = t.span("obs.snapshot", |_| {
            let snapshot = StatSnapshot {
                meta: SnapshotMeta {
                    mechanism: cfg.mechanism.id().to_owned(),
                    workload: "lock-server".to_owned(),
                    clients: spec.clients as u64,
                    locks: spec.locks as u64,
                    ops_per_client: u64::from(spec.ops_per_client),
                    arrival: spec.arrival.id().to_owned(),
                    total_cycles: cycles,
                    total_ops: ops_done,
                },
                telemetry: &tel,
            };
            validate_stat_snapshot(&snapshot.to_json())
                .is_ok_and(|s| s.acquisitions == spec.total_ops())
        });
    }
    let mut lost = lost_ops(&outcome, ops_done, wait.map(|w| w.2), spec.total_ops());
    if !snapshot_ok {
        lost = spec.total_ops();
    }
    Rep {
        run: 0,
        total_ns: 0,
        setup_ns,
        run_ns,
        run_wall_ns,
        lost,
        code_words: built.program.len() as u64,
        exact: Exact {
            cycles,
            instructions: kernel.machine().instructions_retired(),
            stats: *kernel.stats(),
            wait,
        },
        translation: kernel.translation_stats(),
    }
}

/// Runs one lock-server workload for the plan's duration.
pub fn run(cfg: &Config, plan: &Plan) -> Result<Outcome, String> {
    let translated = EngineKind::Translated;
    let main = Arm {
        name: "main",
        engine: translated,
        telemetry: cfg.telemetry,
    };
    // Traced runs add two paired arms: the interpreter on the same seed
    // (engine speedup) and the telemetry switch flipped (its overhead).
    let paired = [
        Arm {
            name: "interpreter",
            engine: EngineKind::Interpreter,
            telemetry: cfg.telemetry,
        },
        Arm {
            name: "telemetry-flip",
            engine: translated,
            telemetry: !cfg.telemetry,
        },
    ];
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    // One uncut run, as `ras-stat` makes it: the simulation every
    // repetition must reproduce, and the length of their slices.
    let uncut = rep(cfg, main, u64::MAX, &mut quiet);
    let fuel = uncut.exact.cycles.div_ceil(RUN_SLICES);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(usize, Rep)> = Vec::new();
    let mut setup_ns: Vec<u64> = vec![uncut.setup_ns];
    let start = Instant::now();
    while plan.more(start, untraced.len()) {
        setup_ns.extend(extra_setups(cfg, main, SETUPS_PER_REP - 1));
        let r = rep(cfg, main, fuel, &mut quiet);
        setup_ns.push(r.setup_ns);
        untraced.push(r);
        if plan.trace {
            traced.push((0, rep(cfg, main, fuel, &mut tracer)));
            for (i, &arm) in paired.iter().enumerate() {
                traced.push((i + 1, rep(cfg, arm, fuel, &mut tracer)));
            }
        }
    }

    // Every repetition of every arm, cut into slices or not, must
    // simulate the same run; the wait percentiles must match wherever
    // telemetry was on.
    let all_reps = || {
        std::iter::once(&uncut)
            .chain(&untraced)
            .chain(traced.iter().map(|(_, r)| r))
    };
    let reference = uncut.exact.clone();
    let first_wait = all_reps().find_map(|r| r.exact.wait);
    for r in all_reps() {
        let e = &r.exact;
        let same = (e.cycles, e.instructions, e.stats)
            == (reference.cycles, reference.instructions, reference.stats)
            && (e.wait.is_none() || e.wait == first_wait);
        if !same {
            return Err(format!(
                "exactness guard: seed {} simulated {reference:?}, then {e:?}",
                plan.seed
            ));
        }
    }

    let total_ops = cfg.spec.total_ops();
    let attempted = total_ops * all_reps().count() as u64;
    let failed = all_reps().map(|r| r.lost).sum();
    let slices: Vec<&[u64]> = untraced.iter().map(|r| r.run_ns.as_slice()).collect();
    let work_s = best_per_call_s(&slices)?;
    let wall_ns: Vec<u64> = untraced.iter().map(|r| r.run_wall_ns).collect();
    let per_op = |x: u64| x as f64 / total_ops as f64;
    let sim_cycles_per_op = per_op(reference.cycles);

    let mut report = vec![
        Metric::new("setup_s", "s", best_s(&setup_ns)),
        Metric::new("ops_per_s", "1/s", ratio(total_ops as f64, work_s)),
        Metric::new(
            "wall_ops_per_s",
            "1/s",
            ratio(total_ops as f64, best_s(&wall_ns)),
        ),
        Metric::new("sim_cycles_per_op", "cycles", sim_cycles_per_op),
    ];
    if let Some((p50, p99, samples)) = reference.wait {
        report.push(Metric::new("wait_p50_cycles", "cycles", p50 as f64));
        report.push(Metric::new("wait_p99_cycles", "cycles", p99 as f64));
        report.push(Metric::new("wait_samples", "count", samples as f64));
    }

    let mut layers = Layers::default();
    if plan.trace {
        let arm = |i: usize| -> Vec<&Rep> {
            traced
                .iter()
                .filter(|(a, _)| *a == i)
                .map(|(_, r)| r)
                .collect()
        };
        let (main_reps, interp_reps, flip_reps) = (arm(0), arm(1), arm(2));
        let span_s = |reps: &[&Rep], name: &str| {
            let ns: Vec<u64> = reps.iter().map(|r| tracer.run_total(r.run, name)).collect();
            best_s(&ns)
        };
        let run_s = span_s(&main_reps, "kernel.run");
        let stats = reference.stats;
        layers.set("guest.build_s", span_s(&main_reps, "guest.build"));
        layers.set("guest.code_words", main_reps[0].code_words as f64);
        layers.set("kernel.boot_s", span_s(&main_reps, "kernel.boot"));
        layers.set("kernel.run_s", run_s);
        layers.set("kernel.context_switches", stats.context_switches as f64);
        layers.set("kernel.syscalls", stats.syscalls as f64);
        layers.set("kernel.wakeups", stats.wakeups as f64);
        layers.set("kernel.ras_checks", stats.ras_checks as f64);
        layers.set("kernel.kernel_cycles_per_op", per_op(stats.kernel_cycles));
        layers.set(
            "kernel.run_ns_per_switch",
            ratio(run_s * 1e9, stats.context_switches as f64),
        );
        layers.set("machine.instructions", reference.instructions as f64);
        layers.set(
            "machine.sim_mips",
            ratio(reference.instructions as f64, run_s * 1e6),
        );
        layers.set(
            "machine.engine_speedup",
            ratio(span_s(&interp_reps, "kernel.run"), run_s),
        );
        if let Some(ts) = main_reps[0].translation {
            layers.set("machine.blocks_discovered", ts.blocks_discovered as f64);
            layers.set("machine.blocks_compiled", ts.blocks_compiled as f64);
            layers.set("machine.block_entries", ts.block_entries as f64);
            layers.set("machine.deopts", ts.deopts() as f64);
            layers.set(
                "machine.deopt_rate",
                ratio(ts.deopts() as f64, ts.block_entries as f64),
            );
        }
        let (on, off) = if cfg.telemetry {
            (&main_reps, &flip_reps)
        } else {
            (&flip_reps, &main_reps)
        };
        layers.set(
            "obs.overhead_ratio",
            ratio(span_s(on, "kernel.run"), span_s(off, "kernel.run")),
        );
        layers.set("obs.snapshot_s", span_s(on, "obs.snapshot"));
        if let Some((p50, p99, acquisitions)) = on[0].exact.wait {
            layers.set("obs.acquisitions", acquisitions as f64);
            layers.set("wait_p50_cycles", p50 as f64);
            layers.set("wait_p99_cycles", p99 as f64);
        }
        layers.set("sim_cycles_per_op", sim_cycles_per_op);
        let untraced_ns: Vec<u64> = untraced.iter().map(|r| r.total_ns).collect();
        let main_runs: Vec<u32> = main_reps.iter().map(|r| r.run).collect();
        trace_ratios(&mut layers, &tracer, &main_runs, &untraced_ns);
    }
    Ok(Outcome {
        attempted,
        failed,
        reps: untraced.len(),
        work_s,
        report,
        layers,
        tracer,
        exact: format!("{reference:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_guest::workloads::schedule;

    #[test]
    fn lost_ops_counts_synthetic_failures() {
        let done = RunOutcome::Completed;
        assert_eq!(lost_ops(&done, 100, Some(100), 100), 0);
        assert_eq!(lost_ops(&done, 99, Some(100), 100), 1);
        assert_eq!(lost_ops(&done, 100, Some(97), 100), 3);
        assert_eq!(lost_ops(&done, 100, None, 100), 0);
        assert_eq!(lost_ops(&RunOutcome::OutOfFuel, 100, Some(100), 100), 100);
        assert_eq!(lost_ops(&RunOutcome::Halted, 0, None, 100), 100);
    }

    #[test]
    fn seed_changes_the_schedule() {
        let (a, b) = (zipf(1), zipf(2));
        assert_ne!(schedule(&a.spec), schedule(&b.spec));
        assert_ne!(
            schedule(&clients_10k(1).spec),
            schedule(&clients_10k(2).spec)
        );
        assert_eq!(schedule(&a.spec), schedule(&zipf(1).spec));
        assert_ne!(schedule(&zipf(2).spec), schedule(&zipf(3).spec));
    }

    #[test]
    fn small_run_is_exact_and_reports_its_declared_metrics() {
        let mut cfg = zipf(7);
        cfg.spec.ops_per_client = 40;
        let plan = Plan {
            seed: 7,
            seconds: 0.0,
            trace: true,
            min_reps: 2,
        };
        let out = run(&cfg, &plan).expect("exact across reps and arms");
        assert_eq!(out.failed, 0);
        // The uncut run, two cut repetitions and three traced arms each.
        assert_eq!(out.attempted, 9 * cfg.spec.total_ops());
        crate::full_report(&out, ZIPF_REPORT).expect("declared metrics");
        assert!(out.layers.get("machine.engine_speedup") > 0.0);
        assert!(out.layers.get("obs.acquisitions") == cfg.spec.total_ops() as f64);
    }
}
