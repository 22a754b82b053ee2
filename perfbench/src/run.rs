//! What one workload run produces, and the timed loop every client runs.

use crate::common::Exact;
use crate::trace::{Recorder, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Host samples of one timed loop.
#[derive(Debug, Default)]
pub struct Loop {
    /// Host seconds of the loop (replay time excluded).
    pub secs: f64,
    /// Operations completed.
    pub ops: u64,
    /// Operations failed (wrong output, unexpected error or verdict).
    pub failed: u64,
    /// Latency per pricing call, µs.
    pub price_us: Vec<f64>,
    /// Latency per execution call, ms.
    pub submit_ms: Vec<f64>,
    /// Σ simulated instructions of the loop's executions.
    pub sim_instr: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
}

impl Loop {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Folds another client's loop in (same wall-clock window).
    pub fn merge(&mut self, o: Loop) {
        self.secs = self.secs.max(o.secs);
        self.ops += o.ops;
        self.failed += o.failed;
        self.price_us.extend(o.price_us);
        self.submit_ms.extend(o.submit_ms);
        self.sim_instr += o.sim_instr;
        for f in o.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// A per-layer metric value with its sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerValue {
    /// The value.
    pub value: f64,
    /// Samples behind it (0 = not measured on this workload).
    pub samples: u64,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Run {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The untraced timed loop (end-to-end metrics).
    pub untraced: Loop,
    /// The traced timed loop, in traced mode.
    pub traced: Option<Loop>,
    /// Spans per client of the traced loop.
    pub spans: Vec<Vec<Span>>,
    /// Exact simulated counts of one set-up's warm-up pass.
    pub exact: Exact,
    /// Exact-count mismatches between set-ups that are failures.
    pub mismatches: Vec<String>,
    /// Exact-count mismatches that are known and reported only.
    pub known_mismatches: Vec<String>,
    /// |analytic − simulated| / simulated per trusted distinct program.
    pub model_err: Vec<f64>,
    /// |ΔT − ΔE| per distinct program, with its kind.
    pub transfer_gap: Vec<(String, f64)>,
    /// Operations checked outside the timed loops (warm-up passes).
    pub setup_checks: u64,
    /// Failures found outside the timed loops.
    pub setup_failures: Vec<String>,
    /// Per-layer metrics by name.
    pub layer: BTreeMap<&'static str, LayerValue>,
    /// Notes printed under the layer table.
    pub notes: Vec<String>,
}

impl Run {
    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.layer.insert(name, LayerValue { value, samples });
    }

    /// Sets a per-layer metric to the median of `xs`.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        if !xs.is_empty() {
            self.set(name, crate::stats::median(xs), xs.len() as u64);
        }
    }
}

/// Runs `op` back to back until `seconds` of host time have passed.
/// `op` gets the operation index and returns the host µs it spent in
/// replays, which count against the deadline (so a traced run takes as
/// long as an untraced one) but are excluded from the loop's time.
pub fn timed_loop(
    seconds: f64,
    rec: &mut Recorder,
    mut op: impl FnMut(u64, &mut Recorder, &mut Loop) -> f64,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let mut replay_us = 0.0;
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        replay_us += op(i, rec, &mut out);
        out.ops += 1;
        i += 1;
    }
    out.secs = start.elapsed().as_secs_f64() - replay_us * 1e-6;
    out
}

/// Runs `setup` `n` times, timing each, and keeps the last result.
pub fn repeated_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), times)
}

/// Times `n` more set-ups, dropping each result after its timing.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let s = std::hint::black_box(setup());
            let secs = t.elapsed().as_secs_f64();
            drop(s);
            secs
        })
        .collect()
}
