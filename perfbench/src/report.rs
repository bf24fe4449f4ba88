//! Metric names, estimators and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every untraced run prints exactly these in its
/// result line (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("work_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every traced run prints exactly these in its result
/// line (`BENCHMARK.json` `per_layer`). A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("guest.build_s", "s"),
    ("guest.code_words", "words"),
    ("kernel.boot_s", "s"),
    ("kernel.run_s", "s"),
    ("kernel.context_switches", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.wakeups", "count"),
    ("kernel.ras_checks", "count"),
    ("kernel.kernel_cycles_per_op", "cycles"),
    ("kernel.run_ns_per_switch", "ns"),
    ("machine.instructions", "count"),
    ("machine.sim_mips", "MIPS"),
    ("machine.engine_speedup", "ratio"),
    ("machine.blocks_discovered", "count"),
    ("machine.blocks_compiled", "count"),
    ("machine.block_entries", "count"),
    ("machine.deopts", "count"),
    ("machine.deopt_rate", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.acquisitions", "count"),
    ("obs.snapshot_s", "s"),
    ("model.target_s", "s"),
    ("model.schedules", "count"),
    ("model.schedules_per_s", "1/s"),
    ("model.pruned", "count"),
    ("model.prune_ratio", "ratio"),
    ("model.checkpoints", "count"),
    ("model.undo_replayed", "count"),
    ("model.snapshot_bytes", "bytes"),
    ("model.states_deduped", "count"),
    ("analyze.sweep_s", "s"),
    ("analyze.targets", "count"),
    ("core.tables_s", "s"),
    ("core.model_check_s", "s"),
    ("sim_cycles_per_op", "cycles"),
    ("wait_p50_cycles", "cycles"),
    ("wait_p99_cycles", "cycles"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups timed per repetition of a lock server or `verify`. `setup_s` is
/// the fastest; one set-up per repetition gives too few samples to find it
/// reliably.
pub const SETUPS_PER_REP: usize = 10;

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`, in `unit`.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The fastest of `ns`, in seconds (0 when empty). Interference from
/// other tenants of the host only ever slows a repetition down, so the
/// fastest one is the steadiest estimate of a deterministic
/// computation's own cost.
pub fn best_s(ns: &[u64]) -> f64 {
    ns.iter().min().map_or(0.0, |&n| n as f64 / 1e9)
}

/// Seconds of a repeated sequence of calls: each call's fastest
/// repetition, summed. Every repetition must make the same calls.
pub fn best_per_call_s(reps: &[&[u64]]) -> Result<f64, String> {
    let calls = reps.first().map_or(0, |r| r.len());
    if reps.iter().any(|r| r.len() != calls) {
        return Err("repetitions made different numbers of calls".to_owned());
    }
    Ok((0..calls)
        .map(|k| best_s(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum())
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Checks that `metrics` names exactly `declared`, in order, with the
/// declared units and finite values.
pub fn check_declared(metrics: &[Metric], declared: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != declared {
        return Err(format!(
            "metrics {got:?} differ from the declared {declared:?}"
        ));
    }
    match metrics
        .iter()
        .find(|m| !valid_name(m.name) || !m.value.is_finite())
    {
        Some(m) => Err(format!("metric {} = {} is not reportable", m.name, m.value)),
        None => Ok(()),
    }
}

/// Per-layer values keyed by [`PER_LAYER`] name; unset names read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every [`PER_LAYER`] metric, in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.get(name),
            })
            .collect()
    }
}

/// The final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(!valid_name("model.target_s[ras-inline+tas]"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_harness_metrics() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let doc = ras_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(END_TO_END));
        assert_eq!(names("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.001_234_567_891_2,
        }];
        let line = result_line(true, 3, 0, &m);
        let doc = ras_obs::parse_json(&line).expect("valid JSON");
        let v = doc
            .get("metrics")
            .and_then(|x| x.get("setup_s"))
            .and_then(|x| x.get("value"))
            .and_then(|x| x.as_f64());
        assert_eq!(v, Some(0.001_234_567_891_2));
        assert!(line.contains("\"attempted\": 3"));
    }

    #[test]
    fn check_declared_rejects_missing_extra_and_nonfinite() {
        let decl = [("a", "s"), ("b", "count")];
        let m = |name, value| Metric {
            name,
            unit: if name == "a" { "s" } else { "count" },
            value,
        };
        assert!(check_declared(&[m("a", 1.0), m("b", 2.0)], &decl).is_ok());
        assert!(check_declared(&[m("a", 1.0)], &decl).is_err());
        assert!(check_declared(&[m("a", 1.0), m("b", 2.0), m("c", 3.0)], &decl).is_err());
        assert!(check_declared(&[m("a", f64::NAN), m("b", 2.0)], &decl).is_err());
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best_s(&[3_000_000_000, 2_000_000_000, 4_000_000_000]), 2.0);
        assert_eq!(best_s(&[]), 0.0);
        let reps: [&[u64]; 2] = [
            &[3_000_000_000, 1_000_000_000],
            &[2_000_000_000, 4_000_000_000],
        ];
        assert_eq!(best_per_call_s(&reps), Ok(3.0));
        assert!(best_per_call_s(&[&[1], &[1, 2]]).is_err());
    }
}
