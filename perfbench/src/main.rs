//! `perfbench` — end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `lockserver-zipf`, `lockserver-10k`, `explore`, `verify`.
//! Everything runs on this one thread (`RAS_THREADS=1`), timed with the
//! thread's on-CPU clock. Untraced (`--trace 0`) runs print the
//! workload's own metrics and then a result line with the end-to-end
//! metrics; traced runs also time each public call into a layer and
//! print the per-layer metrics instead. The last stdout line is always
//! the JSON result: `{"correct", "attempted", "failed", "metrics"}`.
//! Exit codes: 0 measured, 1 a check failed loudly, 2 usage.

mod clock;
mod explore;
mod lockserver;
mod report;
mod trace;
mod verify;

use std::process::ExitCode;
use std::time::Instant;

use report::{check_declared, ratio, result_line, Layers, Metric, END_TO_END};
use trace::Tracer;

/// How long to measure and what to record.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Measure until this much wall time has passed...
    pub seconds: f64,
    /// ...and at least this many repetitions ran.
    pub min_reps: usize,
    /// Record spans and run the paired arms.
    pub trace: bool,
}

impl Plan {
    /// Whether to start another repetition.
    pub fn more(&self, start: Instant, reps: usize) -> bool {
        reps < self.min_reps || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a workload measured and checked.
pub struct Outcome {
    /// Checked outputs: lock ops, target verdicts or claims.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Untraced repetitions made.
    pub reps: usize,
    /// `work_s`: on-CPU seconds of the workload's unit of work.
    pub work_s: f64,
    /// The workload's own metrics, without `peak_rss_mb`/`failed_frac`.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// The spans (traced runs).
    pub tracer: Tracer,
    /// The simulated results every repetition reproduced (the tests
    /// compare them across seeds).
    pub exact: String,
}

/// A workload: its name, the metrics its untraced report declares, and
/// how to run it.
struct Workload {
    name: &'static str,
    report: &'static [(&'static str, &'static str)],
    run: fn(&Plan) -> Result<Outcome, String>,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lockserver-zipf",
        report: lockserver::ZIPF_REPORT,
        run: |plan| lockserver::run(&lockserver::zipf(plan.seed), plan),
    },
    Workload {
        name: "lockserver-10k",
        report: lockserver::CLIENTS_10K_REPORT,
        run: |plan| lockserver::run(&lockserver::clients_10k(plan.seed), plan),
    },
    Workload {
        name: "explore",
        report: explore::REPORT,
        run: explore::run,
    },
    Workload {
        name: "verify",
        report: verify::REPORT,
        run: verify::run,
    },
];

/// Repetitions every run makes, whatever `--seconds` says.
const MIN_REPS: usize = 5;

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

/// The workload's report with the common metrics appended, checked
/// against what it declares.
fn full_report(out: &Outcome, declared: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    let rss = clock::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let mut metrics = out.report.clone();
    metrics.push(Metric::new("peak_rss_mb", "MB", rss));
    metrics.push(Metric::new(
        "failed_frac",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    ));
    check_declared(&metrics, declared)?;
    Ok(metrics)
}

/// The end-to-end metrics of an untraced run, from its report.
fn end_to_end(out: &Outcome, report: &[Metric]) -> Result<Vec<Metric>, String> {
    let find = |name| report.iter().find(|m| m.name == name).cloned();
    let work = Metric::new("work_s", "s", out.work_s);
    let metrics: Vec<Metric> = [find("setup_s"), Some(work), find("peak_rss_mb")]
        .into_iter()
        .flatten()
        .collect();
    check_declared(&metrics, END_TO_END)?;
    Ok(metrics)
}

/// Prints per-layer self time of the main arm and the gap to the
/// end-to-end time, and writes the spans as a Chrome trace.
fn print_trace(name: &str, plan: &Plan, out: &Outcome) -> Result<(), String> {
    let (layers, roots) = out.tracer.layer_self_ns("main");
    let covered: u64 = layers
        .iter()
        .filter(|(l, _)| l.as_str() != "harness")
        .map(|(_, ns)| ns)
        .sum();
    for (layer, ns) in &layers {
        println!(
            "self {layer:<8} {:>12.6} s  {:>6.2}%",
            *ns as f64 / 1e9,
            100.0 * ratio(*ns as f64, roots as f64)
        );
    }
    println!(
        "trace: layer self time {:.6} s of {:.6} s end-to-end (gap {:.6} s), coverage {:.4}, overhead {:.4}",
        covered as f64 / 1e9,
        roots as f64 / 1e9,
        (roots - covered) as f64 / 1e9,
        out.layers.get("trace.coverage"),
        out.layers.get("trace.overhead"),
    );
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned()),
    )
    .join("perfbench-trace");
    let path = dir.join(format!("{name}-seed{}.json", plan.seed));
    let json = out.tracer.chrome_trace(&format!("perfbench {name}"));
    let summary = ras_obs::validate_chrome_trace(&json)?;
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let runs: std::collections::BTreeSet<u32> = out.tracer.spans().iter().map(|s| s.run).collect();
    println!(
        "trace: {} spans of {} traced repetitions in {}",
        summary.slices,
        runs.len(),
        path.display()
    );
    Ok(())
}

fn measure(w: &Workload, plan: &Plan) -> Result<String, String> {
    let name = w.name;
    let out = (w.run)(plan)?;
    let report = full_report(&out, w.report)?;
    println!(
        "workload {name} seed {}: {} repetitions; setup_s is the fastest set-up, work times \
         sum each timed call's fastest repetition",
        plan.seed, out.reps,
    );
    for m in &report {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let metrics = if plan.trace {
        print_trace(name, plan, &out)?;
        let metrics = out.layers.metrics();
        for m in &metrics {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        metrics
    } else {
        end_to_end(&out, &report)?
    };
    Ok(result_line(
        out.failed == 0,
        out.attempted,
        out.failed,
        &metrics,
    ))
}

fn parse_args(args: &[String]) -> Result<(&'static Workload, Plan), String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = Some(value.as_str()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let plan = Plan {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        min_reps: MIN_REPS,
        trace: trace.unwrap_or(false),
    };
    Ok((workload(name.ok_or("--workload is required")?)?, plan))
}

fn main() -> ExitCode {
    // One worker everywhere: the experiment fan-out and the model
    // checker read this before spawning, and the on-CPU clock is this
    // thread's alone.
    std::env::set_var("RAS_THREADS", "1");
    clock::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (w, plan) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match measure(w, &plan) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool, seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 0.0,
            min_reps: 1,
            trace,
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let (w, plan) =
            parse_args(&args("--workload explore --seed 4 --seconds 10 --trace 1")).expect("ok");
        assert_eq!((w.name, plan.seed, plan.trace), ("explore", 4, true));
        assert!(parse_args(&args("--workload explore --seed x --seconds 1")).is_err());
        assert!(parse_args(&args("--workload explore --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
    }

    /// Full-size workloads: run with `cargo test --release`.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn seed_moves_the_lock_server_only_and_every_workload_prints_what_it_declares() {
        for w in WORKLOADS {
            let name = w.name;
            let a = (w.run)(&quick(false, 11)).expect("runs");
            let b = (w.run)(&quick(false, 12)).expect("runs");
            assert_eq!(a.failed, 0, "{name}");
            let report = full_report(&a, w.report).expect("declared report");
            end_to_end(&a, &report).expect("end to end");
            if name.starts_with("lockserver") {
                assert_ne!(a.exact, b.exact, "{name}: the seed must move the schedule");
            } else {
                assert_eq!(a.exact, b.exact, "{name}: the seed must not matter");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn traced_runs_fill_the_layers_they_measure() {
        for (name, layer) in [
            ("lockserver-zipf", "obs.snapshot_s"),
            ("lockserver-10k", "machine.engine_speedup"),
            ("explore", "model.schedules"),
            ("verify", "analyze.sweep_s"),
        ] {
            let out = (workload(name).expect("known").run)(&quick(true, 3)).expect("runs");
            assert_eq!(out.failed, 0, "{name}");
            assert!(out.layers.get(layer) > 0.0, "{name}: {layer}");
            let coverage = out.layers.get("trace.coverage");
            assert!(
                coverage > 0.5 && coverage <= 1.0,
                "{name}: coverage {coverage}"
            );
            ras_obs::validate_chrome_trace(&out.tracer.chrome_trace(name)).expect("valid trace");
        }
    }
}
