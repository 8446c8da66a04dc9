//! Operation accounting, output checks and the result line.

use std::collections::BTreeMap;

/// Operations attempted and failed, by kind, plus the output checks.
#[derive(Default)]
pub struct Outcome {
    pub attempted: BTreeMap<&'static str, usize>,
    pub failed: BTreeMap<String, usize>,
    /// Failed output checks: message → occurrences.
    pub check_failures: BTreeMap<String, usize>,
    pub checks: usize,
}

impl Outcome {
    pub fn attempt(&mut self, kind: &'static str, n: usize) {
        *self.attempted.entry(kind).or_insert(0) += n;
    }

    pub fn fail(&mut self, kind: impl Into<String>, n: usize) {
        if n > 0 {
            *self.failed.entry(kind.into()).or_insert(0) += n;
        }
    }

    /// Records one output check; a failure makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            *self.check_failures.entry(what.to_string()).or_insert(0) += 1;
        }
    }

    pub fn attempted_total(&self) -> usize {
        self.attempted.values().sum()
    }

    pub fn failed_total(&self) -> usize {
        self.failed.values().sum()
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// One phase of the traced run: wall time untraced and traced over the same
/// inputs, and the layer self time the trace attributes.
pub struct Phase {
    pub name: &'static str,
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Sum of layer self times in the traced pass (glue excluded).
    pub layers_s: f64,
    /// The untraced time the layer sum must reconcile with.
    pub reference_s: f64,
    /// Per item of work (an operation, a spec, a round): its layer self
    /// time over its reference time.
    pub item_ratios: Vec<f64>,
}

impl Phase {
    /// Signed tracing overhead in percent; never clamped.
    pub fn overhead_pct(&self) -> f64 {
        (self.traced_s / self.untraced_s - 1.0) * 100.0
    }

    /// Layer self time as a share of the untraced reference time: the
    /// median over items, so one slow disk sync or preemption in either
    /// run does not decide it.
    pub fn coverage(&self) -> f64 {
        crate::stats::median(&self.item_ratios)
    }
}

/// A metric value with its unit, in output order.
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with the counts as JSON integers and every value at full precision.
pub fn result_line(out: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { f64::MAX };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted_total(),
        out.failed_total(),
        body.join(",")
    )
}
