//! The `verify` workload: `verify_reproduction(&VerifyScale::default())`,
//! all of `tables --verify`'s claims, on one worker.
//!
//! The call itself is the timed work. Spans cannot reach inside it, so a
//! traced run follows each call with a pass that makes the same public
//! calls `verify_reproduction` makes, in the same order, one span each,
//! without evaluating the claims; only the per-layer metrics come from
//! that pass. `trace.overhead` compares it with the whole call, so a drift
//! between the two call lists shows up there.

use std::hint::black_box;
use std::time::Instant;

use ras_analyze::{
    analyze, bundled_workloads, check_template_ambiguity, infer_sequences, lockset, Cfg,
    LocksetConfig,
};
use ras_core::experiments::{
    table1, table2, table3, table4, verify_reproduction, Verification, VerifyScale,
};
use ras_guest::workloads::{counter_loop, model_counter, CounterBody, CounterSpec, ModelSpec};
use ras_guest::Mechanism;
use ras_kernel::{DesignatedSet, KernelStats, Outcome as RunOutcome, StrategyKind};
use ras_machine::CpuProfile;
use ras_model::{check_target, race_report, CheckConfig, ModelTarget, TargetReport};

use crate::clock::Stamp;
use crate::explore::unexpected_verdicts;
use crate::report::{best_s, ratio, Layers, Metric, SETUPS_PER_REP};
use crate::trace::{trace_ratios, Tracer};
use crate::{Outcome, Plan};

/// Metrics the untraced run reports.
pub const REPORT: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("wall_verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// Claims that did not hold.
pub fn failed_claims(v: &Verification) -> u64 {
    v.failures().len() as u64
}

/// The rollback claim's run: registered sequences amid realistic work.
const ROLLBACK_SPEC: CounterSpec = CounterSpec {
    iterations: 6_000,
    workers: 2,
    body: CounterBody::LockCounterAndWork { spin: 400 },
};

/// The simulated counts every pass must reproduce.
fn counts(p: &Pass) -> (Vec<[u64; 4]>, KernelStats, u64, u64) {
    let model = p
        .reports
        .iter()
        .map(|r| [r.schedules, r.checkpoints, r.pruned, r.states_deduped])
        .collect();
    (model, p.stats, p.cycles, p.instructions)
}

/// What one traced pass measured.
struct Pass {
    reports: Vec<TargetReport>,
    rollback_ok: bool,
    stats: KernelStats,
    cycles: u64,
    instructions: u64,
    code_words: u64,
    sweep_targets: u64,
}

/// The calls of `verify_reproduction`, one span each.
fn traced_pass(scale: &VerifyScale, t: &mut Tracer) -> Pass {
    let mut code_words = 0u64;
    let set = t.span("kernel.designated_set", |_| DesignatedSet::standard());
    black_box(t.span("analyze.template_ambiguity", |_| {
        check_template_ambiguity(&set)
    }));
    let spec = CounterSpec {
        iterations: 10,
        workers: 2,
        body: CounterBody::LockAndCounter,
    };
    for m in Mechanism::all() {
        let built = t.span("guest.build", |_| counter_loop(m, &spec));
        code_words += built.program.len() as u64;
        black_box(t.span("analyze.verify", |_| {
            analyze(&built.program, &set).has_errors()
        }));
    }

    let sweep = t.span("guest.build", |_| bundled_workloads());
    code_words += sweep.iter().map(|w| w.program.len() as u64).sum::<u64>();
    t.span("analyze.sweep", |_| {
        for w in &sweep {
            black_box(analyze(&w.program, &set).has_errors());
            black_box(infer_sequences(&w.program));
        }
    });

    let bound3 = CheckConfig {
        preemption_bound: 3,
        ..CheckConfig::default()
    };
    let ablated = *ModelTarget::all()
        .iter()
        .find(|t| t.ablated)
        .expect("the matrix includes an ablated target");
    black_box(t.span("model.race_report", |_| race_report(ablated, &bound3)));
    let model_spec = ModelSpec {
        iterations: bound3.iterations,
        workers: bound3.workers,
    };
    let mut built = t.span("guest.build", |_| {
        model_counter(ablated.mechanism, ablated.flavor, &model_spec)
    });
    built.strategy = StrategyKind::None;
    code_words += built.program.len() as u64;
    black_box(t.span("analyze.lockset", |_| {
        let cfg = Cfg::build(&built.program);
        lockset(&built.program, &cfg, &LocksetConfig::for_guest(&built)).racy_words()
    }));

    // `model_check` on one worker is this serial map.
    let config = CheckConfig::default();
    let reports = t.span("core.model_check", |t| {
        ModelTarget::all()
            .into_iter()
            .map(|target| {
                t.span(&format!("model.target.{target}"), |_| {
                    check_target(target, &config)
                })
            })
            .collect::<Vec<_>>()
    });

    let built = t.span("guest.build", |_| {
        counter_loop(Mechanism::RasRegistered, &ROLLBACK_SPEC)
    });
    code_words += built.program.len() as u64;
    let mut kernel = t.span("kernel.boot", |_| {
        let mut kc = built.kernel_config(CpuProfile::r3000());
        kc.quantum = 25_000;
        kc.stack_bytes = 16 * 1024;
        built.boot(kc).expect("the rollback guest boots")
    });
    kernel.enable_recording(false);
    let outcome = t.span("kernel.run", |_| kernel.run(u64::MAX));
    let counter = built.data.symbol("counter").expect("counter symbol");
    let rollback_ok = outcome == RunOutcome::Completed
        && kernel.read_word(counter).ok() == Some(ROLLBACK_SPEC.iterations * 2);

    black_box(t.span("core.table1", |_| table1(scale.t1)));
    black_box(t.span("core.table2", |_| table2(&scale.t2)));
    black_box(t.span("core.table3", |_| table3(&scale.t3)));
    black_box(t.span("core.table4", |_| table4(scale.t4)));
    Pass {
        reports,
        rollback_ok,
        stats: *kernel.stats(),
        cycles: kernel.machine().clock(),
        instructions: kernel.machine().instructions_retired(),
        code_words,
        sweep_targets: sweep.len() as u64,
    }
}

/// Runs `verify_reproduction` for the plan's duration.
///
/// Each repetition times one `bundled_workloads` set-up and one checked
/// `verify_reproduction` call; `verify_s` (= `work_s`) is the fastest
/// call's on-CPU time, and `wall_verify_s` the fastest wall time. A
/// traced run follows each call with the traced pass, which only
/// attributes the time to layers.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let scale = VerifyScale::default();
    let mut tracer = Tracer::new(plan.trace);
    let (mut setup_ns, mut cpu_ns, mut wall_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rendered: Option<String> = None;
    let mut passes: Vec<(u32, Pass)> = Vec::new();
    let start = Instant::now();
    while plan.more(start, cpu_ns.len()) {
        for _ in 0..SETUPS_PER_REP {
            let s = Stamp::now();
            black_box(bundled_workloads());
            setup_ns.push(s.cpu_elapsed());
        }
        let w = Stamp::now();
        let verification = verify_reproduction(&scale);
        cpu_ns.push(w.cpu_elapsed());
        wall_ns.push(w.wall_elapsed());
        attempted += verification.claims.len() as u64;
        failed += failed_claims(&verification);
        let text = verification.to_string();
        match &rendered {
            Some(first) if *first != text => {
                return Err(format!(
                    "exactness guard: verification changed\n{first}\n{text}"
                ))
            }
            Some(_) => {}
            None => rendered = Some(text),
        }

        if plan.trace {
            let run = tracer.next_run("main");
            let pass = tracer.span("rep", |t| traced_pass(&scale, t));
            attempted += pass.reports.len() as u64 + 1;
            failed += unexpected_verdicts(&pass.reports) + u64::from(!pass.rollback_ok);
            passes.push((run, pass));
        }
    }

    let work_s = best_s(&cpu_ns);
    let report = vec![
        Metric::new("setup_s", "s", best_s(&setup_ns)),
        Metric::new("verify_s", "s", work_s),
        Metric::new("wall_verify_s", "s", best_s(&wall_ns)),
    ];
    let mut layers = Layers::default();
    if let Some((_, first)) = passes.first() {
        if let Some((_, p)) = passes.iter().find(|(_, p)| counts(p) != counts(first)) {
            return Err(format!(
                "exactness guard: the pass counted {:?} then {:?}",
                counts(first),
                counts(p)
            ));
        }
        let spans = |names: &[&str]| -> f64 {
            let ns: Vec<u64> = passes
                .iter()
                .map(|(run, _)| names.iter().map(|n| tracer.run_total(*run, n)).sum())
                .collect();
            best_s(&ns)
        };
        let ops = f64::from(ROLLBACK_SPEC.iterations * ROLLBACK_SPEC.workers as u32);
        let run_s = spans(&["kernel.run"]);
        let st = first.stats;
        layers.set("guest.build_s", spans(&["guest.build"]));
        layers.set("guest.code_words", first.code_words as f64);
        layers.set("kernel.boot_s", spans(&["kernel.boot"]));
        layers.set("kernel.run_s", run_s);
        layers.set("kernel.context_switches", st.context_switches as f64);
        layers.set("kernel.syscalls", st.syscalls as f64);
        layers.set("kernel.wakeups", st.wakeups as f64);
        layers.set("kernel.ras_checks", st.ras_checks as f64);
        layers.set("kernel.kernel_cycles_per_op", st.kernel_cycles as f64 / ops);
        layers.set(
            "kernel.run_ns_per_switch",
            ratio(run_s * 1e9, st.context_switches as f64),
        );
        layers.set("machine.instructions", first.instructions as f64);
        layers.set(
            "machine.sim_mips",
            ratio(first.instructions as f64, run_s * 1e6),
        );
        layers.set("sim_cycles_per_op", first.cycles as f64 / ops);

        let target_s: Vec<f64> = ModelTarget::all()
            .iter()
            .map(|t| spans(&[format!("model.target.{t}").as_str()]))
            .collect();
        let sum = |f: fn(&TargetReport) -> u64| first.reports.iter().map(f).sum::<u64>() as f64;
        let (schedules, pruned) = (sum(|r| r.schedules), sum(|r| r.pruned));
        layers.set(
            "model.target_s",
            target_s.iter().copied().fold(0.0, f64::max),
        );
        layers.set("model.schedules", schedules);
        layers.set(
            "model.schedules_per_s",
            ratio(schedules, target_s.iter().sum()),
        );
        layers.set("model.pruned", pruned);
        layers.set("model.prune_ratio", ratio(pruned, pruned + schedules));
        layers.set("model.checkpoints", sum(|r| r.checkpoints));
        layers.set("model.undo_replayed", sum(|r| r.undo_replayed));
        layers.set("model.snapshot_bytes", sum(|r| r.snapshot_bytes));
        layers.set("model.states_deduped", sum(|r| r.states_deduped));
        layers.set("analyze.sweep_s", spans(&["analyze.sweep"]));
        layers.set("analyze.targets", first.sweep_targets as f64);
        layers.set(
            "core.tables_s",
            spans(&["core.table1", "core.table2", "core.table3", "core.table4"]),
        );
        layers.set("core.model_check_s", spans(&["core.model_check"]));
        let runs: Vec<u32> = passes.iter().map(|(run, _)| *run).collect();
        trace_ratios(&mut layers, &tracer, &runs, &cpu_ns);
    }
    Ok(Outcome {
        attempted,
        failed,
        reps: cpu_ns.len(),
        work_s,
        report,
        layers,
        tracer,
        exact: rendered.unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_core::experiments::Claim;

    #[test]
    fn claim_accounting_counts_a_synthetic_failure() {
        let claim = |holds| Claim {
            table: 0,
            statement: "synthetic".to_owned(),
            holds,
            evidence: String::new(),
        };
        let v = Verification {
            claims: vec![claim(true), claim(false), claim(true)],
        };
        assert_eq!(failed_claims(&v), 1);
    }
}
