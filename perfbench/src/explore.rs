//! The `explore` workload: every `ModelTarget::all()` target at
//! preemption bound 3, as serial `check_target` calls on one worker.

use std::time::Instant;

use ras_guest::workloads::{model_counter, ModelSpec};
use ras_kernel::{Kernel, StrategyKind};
use ras_machine::EngineKind;
use ras_model::{check_target, CheckConfig, ModelTarget, TargetReport};

use crate::clock::Stamp;
use crate::report::{best_per_call_s, best_s, ratio, Layers, Metric};
use crate::trace::{trace_ratios, Tracer};
use crate::{Outcome, Plan};

/// Metrics the untraced run reports.
pub const REPORT: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("check_s", "s"),
    ("wall_check_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// Set-ups per check: one set-up of all targets takes ~0.1 ms, so many
/// are timed.
const SETUPS_PER_CHECK: usize = 20;

/// The explorer configuration: bound 3, no subtree splitting. The seed
/// does not enter it; the explorer is exhaustive.
pub fn config(engine: EngineKind) -> CheckConfig {
    CheckConfig {
        preemption_bound: 3,
        split_depth: 0,
        engine,
        ..CheckConfig::default()
    }
}

/// Targets whose verdict is not the expected one (an incomplete search
/// is not a verdict).
pub fn unexpected_verdicts(reports: &[TargetReport]) -> u64 {
    reports
        .iter()
        .filter(|r| !r.ok() || r.hit_schedule_cap)
        .count() as u64
}

/// The counts one check must reproduce bit for bit, per target.
fn exact(reports: &[TargetReport]) -> Vec<[u64; 6]> {
    reports
        .iter()
        .map(|r| {
            [
                r.schedules,
                r.checkpoints,
                r.pruned,
                r.undo_replayed,
                r.snapshot_bytes,
                r.states_deduped,
            ]
        })
        .collect()
}

/// Builds and boots each target's model guest the way the explorer does;
/// also returns the guests' summed code words.
fn setup(cfg: &CheckConfig, t: &mut Tracer) -> (Vec<Kernel>, u64) {
    let spec = ModelSpec {
        iterations: cfg.iterations,
        workers: cfg.workers,
    };
    let mut code_words = 0;
    let kernels = ModelTarget::all()
        .into_iter()
        .map(|target| {
            let mut built = t.span("guest.build", |_| {
                model_counter(target.mechanism, target.flavor, &spec)
            });
            if target.ablated {
                built.strategy = StrategyKind::None;
            }
            let kernel = t.span("kernel.boot", |_| {
                let mut kc = built.kernel_config(target.profile());
                kc.mem_bytes = 32 * 1024;
                kc.stack_bytes = 4096;
                kc.max_threads = cfg.workers + 2;
                kc.engine = cfg.engine;
                built.boot(kc).expect("model workload boots")
            });
            code_words += built.program.len() as u64;
            kernel
        })
        .collect();
    (kernels, code_words)
}

struct Rep {
    run: u32,
    total_ns: u64,
    setup_ns: Vec<u64>,
    /// On-CPU ns of each target's `check_target`.
    cpu_ns: Vec<u64>,
    /// Wall ns of the same calls.
    wall_ns: Vec<u64>,
    reports: Vec<TargetReport>,
}

fn rep(cfg: &CheckConfig, arm: &'static str, tracer: &mut Tracer) -> Rep {
    let run = tracer.next_run(arm);
    let total = Stamp::now();
    let (mut cpu_ns, mut wall_ns) = (Vec::new(), Vec::new());
    let (setup_ns, reports) = tracer.span("rep", |t| {
        let setup_ns: Vec<u64> = (0..SETUPS_PER_CHECK)
            .map(|_| {
                let s = Stamp::now();
                drop(setup(cfg, t));
                s.cpu_elapsed()
            })
            .collect();
        let reports = ModelTarget::all()
            .into_iter()
            .map(|target| {
                let s = Stamp::now();
                let report = t.span(&format!("model.target.{target}"), |_| {
                    check_target(target, cfg)
                });
                cpu_ns.push(s.cpu_elapsed());
                wall_ns.push(s.wall_elapsed());
                report
            })
            .collect();
        (setup_ns, reports)
    });
    Rep {
        run,
        total_ns: total.cpu_elapsed(),
        setup_ns,
        cpu_ns,
        wall_ns,
        reports,
    }
}

/// The matrix's on-CPU and wall seconds: each target's fastest check
/// over `reps`, summed. A target takes 10-250 ms, so its fastest run
/// dodges host interference far more reliably than a whole ~1 s matrix.
fn check_s(reps: &[Rep]) -> Result<(f64, f64), String> {
    let cpu: Vec<&[u64]> = reps.iter().map(|r| r.cpu_ns.as_slice()).collect();
    let wall: Vec<&[u64]> = reps.iter().map(|r| r.wall_ns.as_slice()).collect();
    Ok((best_per_call_s(&cpu)?, best_per_call_s(&wall)?))
}

/// Runs the matrix for the plan's duration.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let main = config(EngineKind::Interpreter);
    // Paired arm: the translated engine, which oracle stepping bypasses.
    let translated = config(EngineKind::Translated);
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut traced_translated: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while plan.more(start, untraced.len()) {
        untraced.push(rep(&main, "untraced", &mut quiet));
        if plan.trace {
            traced.push(rep(&main, "main", &mut tracer));
            traced_translated.push(rep(&translated, "translated", &mut tracer));
        }
    }

    let reference = exact(&untraced[0].reports);
    let all = || untraced.iter().chain(&traced).chain(&traced_translated);
    if let Some(r) = all().find(|r| exact(&r.reports) != reference) {
        return Err(format!(
            "exactness guard: explorer counts {:?} then {:?}",
            reference,
            exact(&r.reports)
        ));
    }
    let attempted = all().map(|r| r.reports.len() as u64).sum();
    let failed = all().map(|r| unexpected_verdicts(&r.reports)).sum();
    let setup_ns: Vec<u64> = untraced.iter().flat_map(|r| r.setup_ns.clone()).collect();
    let (work_s, wall_s) = check_s(&untraced)?;
    let report = vec![
        Metric::new("setup_s", "s", best_s(&setup_ns)),
        Metric::new("check_s", "s", work_s),
        Metric::new("wall_check_s", "s", wall_s),
    ];

    let mut layers = Layers::default();
    if plan.trace {
        let spans = |reps: &[Rep], name: &str| -> f64 {
            let ns: Vec<u64> = reps.iter().map(|r| tracer.run_total(r.run, name)).collect();
            best_s(&ns)
        };
        let per_setup = SETUPS_PER_CHECK as f64;
        layers.set("guest.build_s", spans(&traced, "guest.build") / per_setup);
        layers.set("kernel.boot_s", spans(&traced, "kernel.boot") / per_setup);
        layers.set(
            "machine.engine_speedup",
            ratio(check_s(&traced)?.0, check_s(&traced_translated)?.0),
        );
        let target_s: Vec<f64> = ModelTarget::all()
            .iter()
            .map(|t| spans(&traced, &format!("model.target.{t}")))
            .collect();
        let reports = &untraced[0].reports;
        let sum = |f: fn(&TargetReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
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
        layers.set(
            "guest.code_words",
            setup(&main, &mut Tracer::new(false)).1 as f64,
        );
        let untraced_ns: Vec<u64> = untraced.iter().map(|r| r.total_ns).collect();
        let main_runs: Vec<u32> = traced.iter().map(|r| r.run).collect();
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

    #[test]
    fn verdict_accounting_counts_a_synthetic_failure() {
        // Bound 2 is the least that refutes the ablation.
        let cfg = CheckConfig {
            preemption_bound: 2,
            ..config(EngineKind::Interpreter)
        };
        let targets = ModelTarget::all();
        let safe = *targets.iter().find(|t| !t.ablated).expect("a safe target");
        let ablated = *targets.iter().find(|t| t.ablated).expect("the ablation");
        let mut reports = vec![check_target(safe, &cfg), check_target(ablated, &cfg)];
        assert_eq!(unexpected_verdicts(&reports), 0);
        // A refuted ablation that found nothing, and a capped search.
        reports[1].violations.clear();
        assert_eq!(unexpected_verdicts(&reports), 1);
        reports[0].hit_schedule_cap = true;
        assert_eq!(unexpected_verdicts(&reports), 2);
    }

    #[test]
    fn seed_does_not_enter_the_inputs() {
        // The configuration is a function of the engine alone.
        assert_eq!(
            config(EngineKind::Interpreter),
            config(EngineKind::Interpreter)
        );
        assert_eq!(config(EngineKind::Interpreter).split_depth, 0);
        assert_eq!(config(EngineKind::Interpreter).preemption_bound, 3);
    }
}
