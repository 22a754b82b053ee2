//! Pieces every workload shares: the machine, pricing, output checks,
//! exact simulated counts and the process's peak memory.

use crate::trace::{Layer, Recorder, SpanId};
use atgpu_algos::BuiltProgram;
use atgpu_analyze::{analyze_cluster_program, stream_schedules};
use atgpu_ir::{HBuf, HostStep, Kernel, Program};
use atgpu_model::cost::{cluster_cost_streamed, ClusterCostBreakdown};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::{ClusterSimReport, SimReport};

/// The abstract machine every workload runs on (GTX 650-like).
pub fn machine() -> AtgpuMachine {
    AtgpuMachine::gtx650_like()
}

/// The simulated device every workload runs on.
pub fn spec() -> GpuSpec {
    GpuSpec::gtx650_like()
}

/// A built program with the host reference of each checked output.
#[derive(Debug, Clone)]
pub struct Case {
    /// Short label (kind and size).
    pub label: String,
    /// Program and inputs.
    pub built: BuiltProgram,
    /// Host reference per entry of `built.outputs`.
    pub expected: Vec<Vec<i64>>,
}

/// An analytic price of a program.
#[derive(Debug, Clone)]
pub struct Priced {
    /// The streamed cluster cost.
    pub cost: ClusterCostBreakdown,
    /// Whether the serve fast path trusts it (`io_exact && conflict_free`).
    pub trusted: bool,
}

/// Prices `program` analytically on `cluster`, with `analyze` and
/// `model.cost` spans under `parent`.
pub fn price(
    rec: &mut Recorder,
    req: u64,
    parent: SpanId,
    program: &Program,
    cluster: &ClusterSpec,
) -> Result<Priced, String> {
    let m = machine();
    let n = cluster.n_devices() as u32;
    let (a, _) =
        rec.timed(Layer::Analyze, req, parent, false, || analyze_cluster_program(program, &m, n));
    let a = a.map_err(|e| format!("analyze {}: {e}", program.name))?;
    let (cost, _) = rec.timed(Layer::ModelCost, req, parent, false, || {
        let scheds = stream_schedules(program, n);
        cluster_cost_streamed(cluster, &m, &a.per_device, &scheds, &a.peer)
    });
    let cost = cost.map_err(|e| format!("price {}: {e}", program.name))?;
    Ok(Priced { cost, trusted: a.io_exact && a.conflict_free })
}

/// Compares every checked output with its host reference.
pub fn check_outputs<'a>(case: &Case, output: impl Fn(HBuf) -> &'a [i64]) -> Result<(), String> {
    for (h, exp) in case.built.outputs.iter().zip(&case.expected) {
        let got = output(*h);
        if got != exp.as_slice() {
            let at = got.iter().zip(exp).position(|(g, e)| g != e).unwrap_or(got.len());
            return Err(format!(
                "{}: output {} differs from the host reference at word {at}",
                case.label, h.0
            ));
        }
    }
    Ok(())
}

/// The program's launches in execution order, with their shard plans.
pub fn launches(p: &Program) -> Vec<(&Kernel, Option<&[atgpu_ir::Shard]>)> {
    p.rounds
        .iter()
        .flat_map(|r| r.steps.iter())
        .filter_map(|s| match s {
            HostStep::Launch(k) => Some((k, None)),
            HostStep::LaunchSharded { kernel, shards } => Some((kernel, Some(shards.as_slice()))),
            _ => None,
        })
        .collect()
}

/// Counts a simulation must reproduce exactly for one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exact {
    /// Σ `KernelStats::instructions`.
    pub instr: u64,
    /// Σ `KernelStats::global_txns`.
    pub global_txns: u64,
    /// Σ simulated `total_ms`.
    pub total_ms: f64,
    /// Kernel-cache hits.
    pub cache_hits: u64,
    /// Kernel-cache misses.
    pub cache_misses: u64,
    /// Transfer retries.
    pub retries: u64,
    /// Dead-device recoveries.
    pub recoveries: u64,
}

impl Exact {
    /// Counts of a single-device run.
    pub fn of_single(r: &SimReport) -> Self {
        Exact {
            instr: r.rounds.iter().map(|o| o.kernel_stats.instructions).sum(),
            global_txns: r.rounds.iter().map(|o| o.kernel_stats.global_txns).sum(),
            total_ms: r.total_ms(),
            cache_hits: r.device_stats.cache.hits,
            cache_misses: r.device_stats.cache.misses,
            retries: r.device_stats.retries,
            recoveries: r.device_stats.recoveries,
        }
    }

    /// Counts of a cluster run.
    pub fn of_cluster(r: &ClusterSimReport) -> Self {
        let dev = || r.rounds.iter().flat_map(|o| o.devices.iter());
        let s = r.device_stats_total();
        Exact {
            instr: dev().map(|d| d.kernel_stats.instructions).sum(),
            global_txns: dev().map(|d| d.kernel_stats.global_txns).sum(),
            total_ms: r.total_ms(),
            cache_hits: s.cache.hits,
            cache_misses: s.cache.misses,
            retries: s.retries,
            recoveries: s.recoveries,
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: &Exact) {
        self.instr += o.instr;
        self.global_txns += o.global_txns;
        self.total_ms += o.total_ms;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.retries += o.retries;
        self.recoveries += o.recoveries;
    }

    /// The fields that differ from `o`, as `name a vs b`.
    pub fn diff(&self, o: &Exact) -> Vec<String> {
        let mut d = Vec::new();
        let mut cmp = |name: &str, a: f64, b: f64| {
            if a.to_bits() != b.to_bits() {
                d.push(format!("{name} {a} vs {b}"));
            }
        };
        cmp("sim.instr", self.instr as f64, o.instr as f64);
        cmp("sim.global_txns", self.global_txns as f64, o.global_txns as f64);
        cmp("sim.total_ms", self.total_ms, o.total_ms);
        cmp("sim.cache.hits", self.cache_hits as f64, o.cache_hits as f64);
        cmp("sim.cache.misses", self.cache_misses as f64, o.cache_misses as f64);
        cmp("sim.fault.retries", self.retries as f64, o.retries as f64);
        cmp("sim.fault.recoveries", self.recoveries as f64, o.recoveries as f64);
        d
    }
}

/// Predicted transfer share of a cluster cost: transfer (host and peer)
/// over transfer plus kernel, summed over devices — the cluster analogue
/// of the paper's `ΔT`, with synchronisation left out.
pub fn predicted_transfer_share(c: &ClusterCostBreakdown) -> f64 {
    let xfer: f64 =
        c.per_device.iter().map(|d| d.transfer()).sum::<f64>() + c.peer.iter().sum::<f64>();
    let kernel: f64 = c.per_device.iter().map(|d| d.kernel).sum();
    if xfer + kernel > 0.0 {
        xfer / (xfer + kernel)
    } else {
        0.0
    }
}

/// Observed transfer share of a cluster run, summed over devices like
/// [`predicted_transfer_share`].
pub fn observed_transfer_share(r: &ClusterSimReport) -> f64 {
    let dev = || r.rounds.iter().flat_map(|o| o.devices.iter());
    let xfer: f64 = dev().map(|d| d.xfer_in_ms + d.xfer_out_ms + d.peer_ms).sum();
    let kernel: f64 = dev().map(|d| d.kernel_ms).sum();
    if xfer + kernel > 0.0 {
        xfer / (xfer + kernel)
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
