//! The repository benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_single|cluster_peer|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table of every metric with unit, clock and sample count,
//! then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any correctness check failed, 2 on bad arguments.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod cluster;
mod common;
mod paper;
mod replay;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;

use run::Run;
use stats::Ratio;
use std::time::Instant;

/// Set-ups per run before the timed loop (the last one is used).
pub const SETUPS: usize = 5;
/// Set-ups timed after the untraced loop; `setup_s` is the median of
/// all `SETUPS + SETUPS_AFTER`.  The host's speed changes in phases, and
/// spreading the set-ups over the run keeps one phase from deciding it.
pub const SETUPS_AFTER: usize = 6;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's programs on one device.
    PaperSingle,
    /// Sharded, planned and faulted programs on clusters.
    ClusterPeer,
    /// Two tenants on one `CostServer`.
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "paper_single" => Some(Self::PaperSingle),
            "cluster_peer" => Some(Self::ClusterPeer),
            "serve_mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperSingle => "paper_single",
            Self::ClusterPeer => "cluster_peer",
            Self::ServeMixed => "serve_mixed",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input and request sequence.
    pub seed: u64,
    /// Host seconds the timed loops run in total.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Host seconds of each timed loop.  A traced run times two loops
    /// (the untraced comparison, then the traced one), so each gets half,
    /// and both modes take about `--seconds`.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Mismatches between set-ups' exact counts (all set-ups of one seed
/// must agree).
pub fn compare_exacts(exacts: &[common::Exact]) -> Vec<String> {
    exacts
        .iter()
        .enumerate()
        .skip(1)
        .flat_map(|(i, e)| {
            exacts[0].diff(e).into_iter().map(move |d| format!("set-up 0 vs {i}: {d}"))
        })
        .collect()
}

/// Publishes the exact simulated counts as per-layer metrics.
pub fn set_exact(r: &mut Run) {
    let e = r.exact;
    r.set("sim.instr", e.instr as f64, 1);
    r.set("sim.global_txns", e.global_txns as f64, 1);
    r.set("sim.total_ms", e.total_ms, 1);
    r.set("sim.cache.hits", e.cache_hits as f64, 1);
    r.set("sim.cache.misses", e.cache_misses as f64, 1);
    r.set("sim.fault.retries", e.retries as f64, 1);
    r.set("sim.fault.recoveries", e.recoveries as f64, 1);
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    value: f64,
    samples: u64,
    note: String,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(args: &Args, r: &Run) -> Vec<Metric> {
    let l = &r.untraced;
    let p50 = |xs: &[f64]| stats::at_percentile(xs, 50.0);
    let iqr_note = |xs: &[f64]| {
        stats::quartiles(xs)
            .map(|[q1, _, q3]| format!("quartiles {q1:.4} .. {q3:.4}"))
            .unwrap_or_default()
    };
    let p99 = |xs: &[f64]| stats::at_percentile(xs, 99.0);
    let tail_note = |xs: &[f64]| {
        let t = p99(xs);
        let rule = stats::tail(xs)
            .map(|t| format!("tail rule: p{} = {:.4}", t.pct, t.value))
            .unwrap_or_else(|| "too few samples for a tail".into());
        let warn = if t.beyond < stats::MIN_BEYOND { " (WARN: <10 beyond p99)" } else { "" };
        format!("{} beyond; {rule}{warn}", t.beyond)
    };
    let mean_pct = |xs: &[f64]| 100.0 * xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let gaps: Vec<f64> = r.transfer_gap.iter().map(|g| g.1).collect();
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            clock: "host",
            value: stats::median(&r.setup_s),
            samples: r.setup_s.len() as u64,
            note: format!(
                "median of {} set-ups: {}",
                r.setup_s.len(),
                r.setup_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
            ),
        },
        Metric {
            name: "sim_instr_per_s",
            unit: "instr/s",
            clock: "sim/host",
            value: l.sim_instr as f64 / l.secs,
            samples: l.submit_ms.len() as u64,
            note: format!("{} simulated instructions in {:.3} host s", l.sim_instr, l.secs),
        },
        Metric {
            name: "model_err_pct",
            unit: "%",
            clock: "sim",
            value: mean_pct(&r.model_err),
            samples: r.model_err.len() as u64,
            note: "trusted programs, each once; deterministic per seed".into(),
        },
        Metric {
            name: "transfer_gap_pct",
            unit: "%",
            clock: "sim",
            value: mean_pct(&gaps),
            samples: gaps.len() as u64,
            note: "mean |dT - dE| over the programs, each once".into(),
        },
        Metric {
            name: "req_per_s",
            unit: "1/s",
            clock: "host",
            value: l.ops as f64 / l.secs,
            samples: l.ops,
            note: format!("{} operations in {:.3} s", l.ops, l.secs),
        },
        Metric {
            name: "price_p50_us",
            unit: "us",
            clock: "host",
            value: p50(&l.price_us).value,
            samples: l.price_us.len() as u64,
            note: iqr_note(&l.price_us),
        },
        Metric {
            name: "price_p99_us",
            unit: "us",
            clock: "host",
            value: p99(&l.price_us).value,
            samples: l.price_us.len() as u64,
            note: tail_note(&l.price_us),
        },
        Metric {
            name: "submit_p50_ms",
            unit: "ms",
            clock: "host",
            value: p50(&l.submit_ms).value,
            samples: l.submit_ms.len() as u64,
            note: iqr_note(&l.submit_ms),
        },
        Metric {
            name: "submit_p99_ms",
            unit: "ms",
            clock: "host",
            value: p99(&l.submit_ms).value,
            samples: l.submit_ms.len() as u64,
            note: tail_note(&l.submit_ms),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            clock: "host",
            value: common::peak_rss_mb(),
            samples: 1,
            note: format!("VmHWM of this {} process", args.workload.name()),
        },
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order: name, unit and
/// which direction is better.
const PER_LAYER: [(&str, &str, &str); 35] = [
    ("ir.validate_us", "us", "lower"),
    ("ir.hash_us", "us", "lower"),
    ("verify.program_us", "us", "lower"),
    ("verify.race_free_ratio", "ratio", "higher"),
    ("serve.verify_memo_hit_ratio", "ratio", "higher"),
    ("analyze.program_us", "us", "lower"),
    ("analyze.trusted_ratio", "ratio", "higher"),
    ("model.cost_us", "us", "lower"),
    ("model.plan_us", "us", "lower"),
    ("sim.uop.compile_us", "us", "lower"),
    ("sim.engine.exec_us", "us", "lower"),
    ("sim.device.loop_us", "us", "lower"),
    ("sim.driver.us", "us", "lower"),
    ("sim.cluster.shard_us", "us", "lower"),
    ("sim.cluster.merge_us", "us", "lower"),
    ("sim.cluster.driver_us", "us", "lower"),
    ("sim.cluster.driver_clamped", "count", "lower"),
    ("sim.cluster.vs_single_x", "x", "lower"),
    ("sim.fault.host_overhead_x", "x", "lower"),
    ("sim.fault.sim_overhead_x", "x", "lower"),
    ("sim.fault.retries", "count", "lower"),
    ("sim.fault.recoveries", "count", "lower"),
    ("sim.cache.hits", "count", "higher"),
    ("sim.cache.misses", "count", "lower"),
    ("sim.instr", "count", "lower"),
    ("sim.global_txns", "count", "lower"),
    ("sim.total_ms", "ms", "lower"),
    ("serve.price.memo_hits", "count", "higher"),
    ("serve.price.analytic", "count", "higher"),
    ("serve.price.simulated", "count", "lower"),
    ("serve.admission.rejected", "count", "lower"),
    ("serve.admission.wait_us", "us", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.scaled_spans", "count", "lower"),
];

/// Self-time share metrics (traced run), one per layer lane.
const SHARES: [(&str, trace::Layer); 16] = [
    ("share.ir.validate", trace::Layer::IrValidate),
    ("share.ir.hash", trace::Layer::IrHash),
    ("share.verify", trace::Layer::Verify),
    ("share.analyze", trace::Layer::Analyze),
    ("share.model.cost", trace::Layer::ModelCost),
    ("share.model.plan", trace::Layer::ModelPlan),
    ("share.serve", trace::Layer::Serve),
    ("share.sim.driver", trace::Layer::SimDriver),
    ("share.sim.cluster.driver", trace::Layer::SimCluster),
    ("share.sim.cluster.shard", trace::Layer::SimShard),
    ("share.sim.cluster.merge", trace::Layer::SimMerge),
    ("share.sim.fault", trace::Layer::SimFault),
    ("share.sim.device", trace::Layer::SimDevice),
    ("share.sim.engine", trace::Layer::SimEngine),
    ("share.sim.uop", trace::Layer::SimUop),
    ("share.check", trace::Layer::Check),
];

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).chain(SHARES.iter().map(|&(n, _)| (n, "share")))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The traced run's output: layer table, predictions, trace file; adds
/// the share and overhead metrics to `r.layer`.
fn traced_report(args: &Args, r: &mut Run) -> Vec<String> {
    let mut errors = Vec::new();
    let Some((t_ops, t_secs)) = r.traced.as_ref().map(|t| (t.ops, t.secs)) else { return errors };
    let st = trace::self_times(&r.spans);
    let n_spans: usize = r.spans.iter().map(Vec::len).sum();
    let untraced_rate = r.untraced.ops as f64 / r.untraced.secs;
    let traced_rate = t_ops as f64 / t_secs;
    let overhead = 100.0 * (untraced_rate / traced_rate - 1.0);
    r.set("trace.overhead_pct", overhead, t_ops);
    r.set("trace.scaled_spans", st.scaled as f64, n_spans as u64);
    for (name, layer) in SHARES {
        r.set(name, st.share(layer), n_spans as u64);
    }

    println!(
        "\nlayer self time ({}, traced, {} ops, {:.3} s of operations):",
        args.workload.name(),
        t_ops,
        st.op_us * 1e-6
    );
    println!("  {:<22} {:>12} {:>8}", "layer", "self s", "share");
    for l in trace::Layer::ALL {
        println!(
            "  {:<22} {:>12.6} {:>7.2}%",
            l.name(),
            st.self_us[l.lane()] * 1e-6,
            100.0 * st.share(l)
        );
    }
    println!(
        "  tracing overhead: {overhead:.2}% ({untraced_rate:.1} ops/s untraced vs {traced_rate:.1} traced, \
         replays excluded); {} span(s) had replayed children that outlasted the real call, scaled to fit",
        st.scaled
    );

    // Predicted concentrations and whether each held.
    use trace::Layer as L;
    let share = |ls: &[L]| ls.iter().map(|&l| st.share(l)).sum::<f64>();
    let sim_exec = share(&[L::SimEngine, L::SimDevice]);
    let cluster_layers = share(&[L::SimCluster, L::SimShard, L::SimMerge, L::SimFault]);
    let front = share(&[L::IrHash, L::IrValidate, L::Verify, L::Analyze, L::ModelCost, L::Serve]);
    let faults = r.layer.get("sim.fault.retries").map(|v| v.value).unwrap_or(0.0)
        + r.layer.get("sim.fault.recoveries").map(|v| v.value).unwrap_or(0.0);
    let mut preds: Vec<(String, bool)> = Vec::new();
    match args.workload {
        Workload::PaperSingle => {
            preds.push((
                format!(
                    "sim.engine + sim.device take most of the time: {:.1}% > 50%",
                    100.0 * sim_exec
                ),
                sim_exec > 0.5,
            ));
            preds.push((format!("sim.cluster.* and sim.fault do no work: cluster share {:.2}%, fault events {faults}", 100.0 * cluster_layers), cluster_layers == 0.0 && faults == 0.0));
            preds.push((
                format!("ir.hash/verify/analyze/model/serve near zero: {:.2}% < 5%", 100.0 * front),
                front < 0.05,
            ));
        }
        Workload::ClusterPeer => {
            let value = |name: &str| r.layer.get(name).copied().unwrap_or_default();
            let clamped = value("sim.cluster.driver_clamped");
            preds.push((
                format!("sim.cluster.* and sim.fault do work: {:.1}% > 0", 100.0 * cluster_layers),
                cluster_layers > 0.0,
            ));
            preds.push((
                format!(
                    "the cluster driver does work: share {:.2}% > 0, clamped on {} of {} ops",
                    100.0 * st.share(L::SimCluster),
                    clamped.value,
                    clamped.samples
                ),
                st.share(L::SimCluster) > 0.0 && clamped.value < clamped.samples as f64,
            ));
            preds.push((
                format!(
                    "sim.fault does work: {faults} retries + recoveries > 0, share {:.2}% > 0",
                    100.0 * st.share(L::SimFault)
                ),
                faults > 0.0 && st.share(L::SimFault) > 0.0,
            ));
        }
        Workload::ServeMixed => {
            let price_front =
                r.layer.get("serve.price_front_share").map(|v| v.value).unwrap_or(0.0);
            preds.push((format!("ir.hash/verify/analyze/model/serve overhead make up most of price latency: {:.1}% > 50%", 100.0 * price_front), price_front > 0.5));
        }
    }
    println!("  predictions:");
    for (p, held) in &preds {
        println!("    [{}] {p}", if *held { "held" } else { "NOT held" });
    }

    // The trace file, validated by the repo's own checker.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{}.json", args.workload.name());
    let json = trace::chrome_json(&r.spans);
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &json)) {
        Ok(()) => match atgpu_sim::validate_chrome_json(&json) {
            Ok(c) => println!(
                "  trace: {path} ok ({} spans, {} client lane group(s))",
                c.spans, c.devices
            ),
            Err(e) => errors.push(format!("trace {path} rejected by validate_chrome_json: {e}")),
        },
        Err(e) => errors.push(format!("cannot write {path}: {e}")),
    }
    errors
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut r = match args.workload {
        Workload::PaperSingle => paper::run(&args, epoch),
        Workload::ClusterPeer => cluster::run(&args, epoch),
        Workload::ServeMixed => serve::run(&args, epoch),
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let e2e = end_to_end(&args, &r);
    println!("\nend-to-end (untraced loop):");
    println!(
        "  {:<18} {:>16} {:<8} {:<9} {:>8}  note",
        "metric", "value", "unit", "clock", "samples"
    );
    for m in &e2e {
        println!(
            "  {:<18} {:>16.6} {:<8} {:<9} {:>8}  {}",
            m.name, m.value, m.unit, m.clock, m.samples, m.note
        );
    }
    let attempted = r.untraced.ops + r.traced.as_ref().map_or(0, |t| t.ops) + r.setup_checks;
    let failed = r.untraced.failed
        + r.traced.as_ref().map_or(0, |t| t.failed)
        + (r.setup_failures.len() + r.mismatches.len()) as u64;
    println!(
        "  {:<18} {:>16} {:<8} {:<9} {:>8}  failed / attempted operations",
        "failed_frac",
        Ratio::new(failed as f64, attempted as f64).to_string(),
        "ratio",
        "-",
        attempted
    );
    if args.workload == Workload::PaperSingle {
        println!("\n  transfer gap per kind beside the paper's Section IV-D (atgpu_exp::figures::summary::paper_reference):");
        for p in atgpu_exp::figures::summary::paper_reference() {
            let g: Vec<f64> =
                r.transfer_gap.iter().filter(|g| g.0 == p.name).map(|g| g.1).collect();
            println!(
                "    {:<8} this run {:>7.3}% over {} program(s)   paper {:>5.2}%",
                p.name,
                100.0 * g.iter().sum::<f64>() / g.len().max(1) as f64,
                g.len(),
                100.0 * p.delta_gap
            );
        }
    }
    println!("\ndeterminism ({} set-ups of seed {}):", SETUPS, args.seed);
    if r.mismatches.is_empty() && r.known_mismatches.is_empty() {
        println!("  exact counts repeat");
    }
    for m in &r.mismatches {
        println!("  MISMATCH {m}");
    }
    for m in &r.known_mismatches {
        println!(
            "  known mismatch (ROADMAP BLOCKING, cache miss counted before the re-check): {m}"
        );
    }

    for n in &r.notes {
        println!("  note: {n}");
    }
    let mut errors: Vec<String> = Vec::new();
    errors.extend(traced_report(&args, &mut r));
    if args.trace {
        println!("\nper-layer (traced loop, replays labelled in the trace):");
        for (name, unit) in per_layer_names() {
            let v = r.layer.get(name).copied().unwrap_or_default();
            let shown =
                if v.samples == 0 { "  (not exercised)".to_string() } else { String::new() };
            println!("  {:<30} {:>16.6} {:<6} {:>8}{shown}", name, v.value, unit, v.samples);
        }
    }
    errors.extend(r.setup_failures.iter().cloned());
    errors.extend(r.untraced.failures.iter().cloned());
    if let Some(t) = &r.traced {
        errors.extend(t.failures.iter().cloned());
    }
    for e in &errors {
        println!("FAILED: {e}");
    }
    let correct = errors.is_empty() && failed == 0;

    let metrics: Vec<String> = if args.trace {
        per_layer_names()
            .map(|(name, unit)| {
                let v = r.layer.get(name).copied().unwrap_or_default();
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v.value))
            })
            .collect()
    } else {
        e2e.iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = parse_args(&argv("--workload serve_mixed --seed 9 --seconds 2.5 --trace 1"))
            .expect("parses");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ServeMixed, 9, 2.5, true));
    }

    /// `BENCHMARK.json` names exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let args = parse_args(&argv("--workload paper_single")).expect("parses");
        let e2e: Vec<&str> = end_to_end(&args, &Run::default()).iter().map(|m| m.name).collect();
        let names: Vec<&str> =
            e2e.iter().copied().chain(per_layer_names().map(|(n, _)| n)).collect();
        for n in &names {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        let workloads = ["paper_single", "cluster_peer", "serve_mixed"];
        assert_eq!(json.matches("\"name\":").count(), names.len() + workloads.len());
        for w in workloads {
            assert!(Workload::parse(w).is_some());
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload paper_single --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper_single --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload paper_single --bogus")).is_err());
    }
}
