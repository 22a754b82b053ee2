//! Layer replays: the simulator layers that run inside one
//! `run_program` / `run_cluster_program` call cannot be timed from
//! outside, so the traced run re-executes each layer's own public entry
//! point on the same program and records it as a `replay` child of the
//! real call's span (the executor-only / device-level / full-pipeline
//! split of `crates/atgpu-bench/examples/probe.rs`, per launch).
//!
//! Replays start from zeroed device memory: launch timing is
//! data-independent (lockstep SPMD), so only the host time matters and
//! the replayed results are discarded.

use crate::common::{launches, machine};
use crate::trace::{Layer, Recorder, SpanId};
use atgpu_ir::Program;
use atgpu_model::{ClusterSpec, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::warp::{GmemAccess, StepEvent};
use atgpu_sim::{
    apply_write_log, BlockExec, BlockSim, Cluster, CompiledKernel, Device, EngineSel, ExecMode,
};

/// Host time of one program's replayed single-device layers, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleSplit {
    /// Σ `Device::run_kernel_with`.
    pub device_us: f64,
    /// Σ executor-only block stepping.
    pub engine_us: f64,
    /// Σ `CompiledKernel::compile` for the launches that missed the
    /// kernel cache.
    pub uop_us: f64,
}

fn memory(program: &Program) -> Result<GlobalMemory, String> {
    let m = machine();
    let (bases, total) = program.buffer_layout(m.b);
    GlobalMemory::new(bases, total, m.b, m.g).map_err(|e| e.to_string())
}

/// Replays every launch of `program` on a fresh device (as
/// `run_program` does): the device call, the executor alone, and the
/// micro-op lowering of each launch that missed the device's cache.
pub fn single(
    rec: &mut Recorder,
    req: u64,
    parent: SpanId,
    program: &Program,
    spec: &GpuSpec,
) -> Result<SingleSplit, String> {
    let m = machine();
    let device = Device::new(m, *spec).map_err(|e| e.to_string())?;
    let mut gmem = memory(program)?;
    let mut scratch = memory(program)?;
    let bases: Vec<u64> = (0..gmem.buf_count()).map(|i| gmem.base(i as u32)).collect();
    let mut split = SingleSplit::default();
    for (kernel, _) in launches(program) {
        let misses = device.cache().stats().misses;
        let (stats, us, dev_span) = rec.timed_id(Layer::SimDevice, req, parent, true, || {
            device.run_kernel_with(
                kernel,
                &mut gmem,
                ExecMode::Sequential,
                false,
                EngineSel::MicroOp,
            )
        });
        stats.map_err(|e| format!("replay {}: {e}", kernel.name))?;
        split.device_us += us;
        let nregs = kernel.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
        let compile = || CompiledKernel::compile(kernel, &bases, m.b as u32, nregs);
        // Only a cache miss paid for lowering inside the device call.
        let ck = if device.cache().stats().misses > misses {
            let (ck, us) = rec.timed(Layer::SimUop, req, dev_span, true, compile);
            split.uop_us += us;
            ck
        } else {
            compile()
        };
        let (r, us) = rec.timed(Layer::SimEngine, req, dev_span, true, || -> Result<(), String> {
            let mut ex = BlockExec::new(&ck);
            for blk in 0..kernel.blocks() {
                BlockSim::reset(&mut ex, blk);
                let mut acc = GmemAccess::Direct(&mut scratch);
                while !matches!(
                    BlockSim::step(&mut ex, &mut acc).map_err(|e| e.to_string())?,
                    StepEvent::Done
                ) {}
            }
            Ok(())
        });
        r?;
        split.engine_us += us;
    }
    Ok(split)
}

/// Host time of one program's replayed cluster layers, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterSplit {
    /// Σ `Device::run_shard` over every shard.
    pub shard_us: f64,
    /// Σ `apply_write_log` over every shard's log.
    pub merge_us: f64,
}

/// Replays every shard of every launch of `program` serially on a fresh
/// cluster, each followed by the merge of its write log.
pub fn cluster(
    rec: &mut Recorder,
    req: u64,
    parent: SpanId,
    program: &Program,
    spec: &ClusterSpec,
) -> Result<ClusterSplit, String> {
    let cl = Cluster::new(machine(), spec.clone()).map_err(|e| e.to_string())?;
    let mut mems = (0..cl.n_devices()).map(|_| memory(program)).collect::<Result<Vec<_>, _>>()?;
    let mut split = ClusterSplit::default();
    for (kernel, shards) in launches(program) {
        let whole = [atgpu_ir::Shard { device: 0, start: 0, end: kernel.blocks() }];
        for s in shards.unwrap_or(&whole) {
            let device = cl.device(s.device).ok_or("shard on a missing device")?;
            let gmem = &mut mems[s.device as usize];
            let mut log = Vec::new();
            let (r, us) = rec.timed(Layer::SimShard, req, parent, true, || {
                device.run_shard(
                    kernel,
                    gmem,
                    ExecMode::Sequential,
                    EngineSel::MicroOp,
                    (s.start, s.end),
                    &mut log,
                )
            });
            r.map_err(|e| format!("replay shard {}: {e}", kernel.name))?;
            split.shard_us += us;
            let (r, us) = rec.timed(Layer::SimMerge, req, parent, true, || {
                apply_write_log(kernel, gmem, log, false)
            });
            r.map_err(|e| format!("replay merge {}: {e}", kernel.name))?;
            split.merge_us += us;
        }
    }
    Ok(split)
}
