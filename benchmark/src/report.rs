//! What a run prints: every metric by name with its unit, the correctness
//! verdict, and the contract's one-line JSON result.

use crate::spec;
use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    /// Human-readable failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Validity limits the run exceeded: its outputs are correct, its timings
    /// were taken under conditions the benchmark does not vouch for.
    pub warnings: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric (the last value set for a name wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records an exceeded validity limit.
    pub fn warn(&mut self, exceeded: bool, what: impl FnOnce() -> String) {
        if exceeded {
            self.warnings.push(what());
        }
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// One `name value unit` line per metric, in the order they were set.
    pub fn print_metrics(&self) {
        for (name, value) in &self.metrics {
            println!("{name:<36} {value:>16.4} {}", unit_of(name));
        }
        for warning in &self.warnings {
            println!("VALIDITY WARNING: {warning}");
        }
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
        }
    }

    /// The contract's result line: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one. A listed metric that was never
    /// set is a bug in the benchmark and makes the run incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let contract = spec::contract();
        let listed = if traced {
            &contract.per_layer
        } else {
            &contract.end_to_end
        };
        let mut body = String::new();
        for (i, spec::Metric { name, unit }) in listed.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite());
            if value.is_none() {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
            let _ = write!(
                body,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                value.unwrap_or(0.0),
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    let contract = spec::contract();
    contract
        .end_to_end
        .iter()
        .chain(&contract.per_layer)
        .find(|metric| metric.name == name)
        .map_or("", |metric| &metric.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_run_kinds_metrics_and_flags_missing_ones() {
        let mut report = Report::default();
        for metric in &spec::contract().end_to_end {
            report.set(&metric.name, 1.5);
        }
        report.set("setup_s", 0.8127);
        report.count(1000, 0);
        let line = report.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(!line.contains("proto."));
        // The traced line wants the per-layer set, none of which was measured.
        let traced = report.result_line(true);
        assert!(traced.starts_with("{\"correct\": false"));
        assert!(traced.contains("\"harness.script_fnv\": {\"value\": 0, \"unit\": \"fnv32\"}"));
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        assert!(report.correct());
        report.count(10, 1);
        assert!(!report.correct());
        let mut report = Report::default();
        report.check(1 + 1 == 3, || "arithmetic".to_string());
        assert!(!report.correct());
        assert_eq!(report.problems, vec!["arithmetic".to_string()]);
    }
}
