//! Differential property tests for the multi-device cluster layer: a
//! sharded launch must be **bit-identical** to the single-device launch
//! of the same kernel — same final global memory and, per shard, the
//! same statistics from the micro-op engine and the tree-walking
//! reference — for randomized kernels, randomized shard plans (including
//! uneven cuts and several shards on one device), device counts 1–4,
//! both `ExecMode`s and both engine selections.
//!
//! Kernel generation mirrors `engine_differential.rs` with one extra
//! constraint that makes *all* execution semantics coincide: global
//! reads come only from buffer 0 (never written) and global writes go to
//! block-disjoint addresses of buffer 1 (`i·b + j`).  Cross-block
//! visibility and write ordering — undefined in the model — therefore
//! cannot distinguish direct, deferred-log or cross-device execution,
//! so the comparison pins down real divergence only.
//!
//! The same kernels also pin the single-device driver to the cluster
//! driver at whole-program level: [`run_program`] is the 1-device
//! cluster run, bit for bit, under noise, tracing and fault plans.

use atgpu_ir::{
    AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr, ProgramBuilder, Shard,
};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::cluster::{even_shards, Cluster, ShardStats};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::xfer::XferNoise;
use atgpu_sim::{
    run_cluster_program, run_program, Device, EngineSel, ExecMode, FaultEvent, FaultPlan, LinkEdge,
    SimConfig,
};
use proptest::prelude::*;
use std::cell::RefCell;

/// Number of data registers the generator plays with (plus one reserved
/// gather register).
const NDATA: u8 = 6;
/// The reserved register for bounded data-dependent addressing.
const RG: u8 = 7;

struct Gen {
    state: u64,
    b: i64,
    shared: i64,
    loop_depth: u8,
    budget: u32,
}

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn operand(&mut self) -> Operand {
        match self.below(6) {
            0 => Operand::Imm(self.below(9) as i64 - 4),
            1 => Operand::Lane,
            2 => Operand::Block,
            3 => Operand::Reg(self.below(u64::from(NDATA)) as u8),
            4 if self.loop_depth > 0 => {
                Operand::LoopVar(self.below(u64::from(self.loop_depth)) as u8)
            }
            _ => Operand::Imm(self.below(17) as i64),
        }
    }

    fn alu_op(&mut self) -> AluOp {
        const OPS: [AluOp; 12] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::Min,
            AluOp::Max,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::SetLt,
            AluOp::SetEq,
        ];
        OPS[self.below(OPS.len() as u64) as usize]
    }

    /// A shared-memory address guaranteed in `[0, shared)` for every lane,
    /// block and loop iteration.
    fn sh_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let base_room = self.shared - 8 * b;
        let k = self.below(base_room.max(1) as u64) as i64;
        let loop_term = |g: &mut Self| -> AddrExpr {
            if g.loop_depth > 0 && g.below(2) == 0 {
                let d = g.below(u64::from(g.loop_depth)) as u8;
                AddrExpr::loop_var(d) * g.b
            } else {
                AddrExpr::c(0)
            }
        };
        match self.below(5) {
            0 => AddrExpr::lane() + loop_term(self) + k,
            1 => loop_term(self) + k,
            2 => AddrExpr::lane() * 2 + loop_term(self) + k.min(base_room.max(2) - 1),
            3 => AddrExpr::reg(RG) + k,
            _ => AddrExpr::c(b - 1) - AddrExpr::lane() + loop_term(self) + k,
        }
    }

    /// A global **read** address within buffer 0's word count (the
    /// read-only buffer, so any shape is fair game).
    fn g_read_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let k = self.below(32) as i64;
        match self.below(4) {
            0 => AddrExpr::block() * b + AddrExpr::lane(),
            1 => AddrExpr::lane() + k,
            2 => AddrExpr::reg(RG) + k,
            _ => AddrExpr::block() * b + AddrExpr::lane() * 2,
        }
    }

    /// A global **write** address into buffer 1, block-disjoint: block
    /// `i` owns exactly `[i·b, (i+1)·b)`, so no write order — across
    /// MPs, threads or devices — can change the final memory.
    fn g_write_addr(&mut self) -> AddrExpr {
        AddrExpr::block() * self.b + AddrExpr::lane()
    }
}

/// Seeds the bounded gather register: `RG ← lane·s`.
fn seed_rg(g: &RefCell<Gen>, kb: &mut KernelBuilder) {
    let s = g.borrow_mut().below(3) as i64;
    kb.alu(AluOp::Mul, RG, Operand::Lane, Operand::Imm(s));
}

fn gen_body(g: &RefCell<Gen>, kb: &mut KernelBuilder, depth: u32) {
    let items = 2 + g.borrow_mut().below(4) as u32;
    for _ in 0..items {
        let choice = {
            let mut gg = g.borrow_mut();
            if gg.budget == 0 {
                return;
            }
            gg.budget -= 1;
            gg.below(10)
        };
        match choice {
            0 => {
                let mut gg = g.borrow_mut();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let src = gg.operand();
                drop(gg);
                kb.mov(dst, src);
            }
            1 | 2 => {
                let mut gg = g.borrow_mut();
                let op = gg.alu_op();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let (a, b) = (gg.operand(), gg.operand());
                drop(gg);
                kb.alu(op, dst, a, b);
            }
            3 => {
                let mut gg = g.borrow_mut();
                let addr = gg.sh_addr();
                let src = gg.operand();
                drop(gg);
                kb.st_shr(addr, src);
            }
            4 => {
                let mut gg = g.borrow_mut();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let addr = gg.sh_addr();
                drop(gg);
                kb.ld_shr(dst, addr);
            }
            5 => {
                seed_rg(g, kb);
                let (sh, ga) = {
                    let mut gg = g.borrow_mut();
                    (gg.sh_addr(), gg.g_read_addr())
                };
                kb.glb_to_shr(sh, DBuf(0), ga);
            }
            6 => {
                let (sh, ga) = {
                    let mut gg = g.borrow_mut();
                    (gg.sh_addr(), gg.g_write_addr())
                };
                kb.shr_to_glb(DBuf(1), ga, sh);
            }
            7 if depth < 2 => {
                let (pred, with_else) = {
                    let mut gg = g.borrow_mut();
                    let b = gg.b as u64;
                    let pred = match gg.below(4) {
                        0 => PredExpr::Lt(Operand::Lane, Operand::Imm(gg.below(b + 1) as i64)),
                        1 => PredExpr::Lt(Operand::Block, Operand::Imm(gg.below(4) as i64)),
                        2 => PredExpr::Eq(
                            Operand::Reg(gg.below(u64::from(NDATA)) as u8),
                            Operand::Imm(gg.below(3) as i64),
                        ),
                        _ => PredExpr::Ne(Operand::Lane, Operand::Imm(gg.below(b) as i64)),
                    };
                    (pred, gg.below(2) == 0)
                };
                kb.pred(
                    pred,
                    |kb| gen_body(g, kb, depth + 1),
                    |kb| {
                        if with_else {
                            gen_body(g, kb, depth + 1)
                        }
                    },
                );
            }
            8 if depth < 2 => {
                let count = {
                    let mut gg = g.borrow_mut();
                    if gg.loop_depth >= 2 {
                        None
                    } else {
                        gg.loop_depth += 1;
                        Some(1 + gg.below(3) as u32)
                    }
                };
                if let Some(count) = count {
                    kb.repeat(count, |kb| gen_body(g, kb, depth + 1));
                    g.borrow_mut().loop_depth -= 1;
                } else {
                    kb.sync();
                }
            }
            _ => {
                kb.sync();
            }
        }
    }
}

/// Builds a random kernel plus a compatible machine/global memory layout.
/// Grids are larger than `engine_differential`'s (4–15 blocks) so shard
/// plans over up to 4 devices stay interesting.
fn gen_kernel(seed: u64) -> (Kernel, AtgpuMachine, Vec<u64>, u64) {
    let mut g0 = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    let b: i64 = [4, 8, 16, 32][g0.below(4) as usize];
    let blocks = 4 + g0.below(12);
    let shared = (10 * b + 64) as u64;
    // Buffer 0 (read-only) must admit every read shape; buffer 1 holds
    // one block-owned row per block.
    let gwords = (blocks as i64 * b + 4 * b + 64) as u64;
    let gen =
        RefCell::new(Gen { state: g0.state, b, shared: shared as i64, loop_depth: 0, budget: 28 });
    let mut kb = KernelBuilder::new(format!("cdiff_{seed:x}"), blocks, shared);
    seed_rg(&gen, &mut kb);
    gen_body(&gen, &mut kb, 0);
    let kernel = kb.build();
    let machine =
        AtgpuMachine::new(4 * b as u64, b as u64, shared.max(2 * gwords), 1 << 22).unwrap();
    (kernel, machine, vec![0, gwords], 2 * gwords)
}

fn fill_gmem(g: &mut GlobalMemory, total: u64, seed: u64) {
    let mut x = seed | 1;
    for i in 0..total {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        g.write(i as i64, (x % 17) as i64 - 8);
    }
}

/// A randomized shard plan: partitions `0..blocks` at random cut points
/// and assigns each range to a random device in `0..devices` — uneven
/// cuts, idle devices and several shards per device all occur.
fn random_shards(seed: u64, blocks: u64, devices: u32) -> Vec<Shard> {
    let mut g = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    if g.below(3) == 0 {
        // One case in three uses the planner's even split.
        return even_shards(blocks, devices);
    }
    let mut cuts: Vec<u64> = (0..u64::from(devices) - 1).map(|_| g.below(blocks + 1)).collect();
    cuts.push(0);
    cuts.push(blocks);
    cuts.sort_unstable();
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            out.push(Shard { device: g.below(u64::from(devices)) as u32, start: w[0], end: w[1] });
        }
    }
    out
}

fn cluster_spec(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every device count, shard plan, execution mode and engine, the
    /// cluster's final global memory is bit-identical to the
    /// single-device launch, shard statistics are bit-identical between
    /// the micro-op engine and the reference interpreter, and the shards
    /// together execute exactly the grid.
    #[test]
    fn cluster_is_bit_identical_to_single_device(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let spec = GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() };
        let device = Device::new(machine, spec).unwrap();

        for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }] {
            // Single-device baseline (per mode; timing differs between
            // modes but memory may not).
            let mut g_base = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g_base, total, seed);
            let base = device.run_kernel_with(&kernel, &mut g_base, mode, false, EngineSel::MicroOp);
            let base = match base {
                Ok(s) => s,
                // Error parity has its own tests; the generator keeps the
                // success path, but bail symmetrically if a case errors.
                Err(_) => return Ok(()),
            };

            for devices in [1u32, 2, 3, 4] {
                let cluster = Cluster::new(machine, cluster_spec(devices as usize)).unwrap();
                let shards = random_shards(seed ^ u64::from(devices), kernel.blocks(), devices);
                prop_assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), kernel.blocks());

                let mut runs: Vec<Vec<ShardStats>> = Vec::new();
                for engine in [EngineSel::MicroOp, EngineSel::Reference] {
                    let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                    fill_gmem(&mut g, total, seed);
                    let stats = cluster
                        .run_sharded_kernel(&kernel, &mut g, &shards, mode, false, engine)
                        .unwrap();
                    prop_assert_eq!(
                        g.words(),
                        g_base.words(),
                        "memory mismatch: devices={} mode={:?} engine={:?}",
                        devices, mode, engine
                    );
                    prop_assert_eq!(
                        stats.iter().map(|s| s.stats.blocks).sum::<u64>(),
                        kernel.blocks()
                    );
                    runs.push(stats);
                }
                // Per-shard stats bit-identical across engines.
                prop_assert_eq!(&runs[0], &runs[1], "engine stats mismatch: devices={devices} mode={mode:?}");

                // A one-shard plan on device 0 reproduces the baseline
                // stats exactly (same mode, same engine).
                if devices == 1 && shards.len() == 1 {
                    prop_assert_eq!(runs[0][0].stats, base, "one-shard stats differ from device run");
                }
            }
        }
    }

    /// Sequential and parallel cluster runs agree functionally with each
    /// other and with the even-shard plan: shard boundaries and MP-thread
    /// interleaving must never leak into results.
    #[test]
    fn shard_plan_and_mode_never_change_memory(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let cluster = Cluster::new(machine, cluster_spec(3)).unwrap();

        let mut reference: Option<Vec<i64>> = None;
        for (salt, mode) in
            [(1u64, ExecMode::Sequential), (2, ExecMode::Parallel { threads: 3 })]
        {
            for plan_seed in [3u64, 4] {
                let shards = random_shards(seed ^ salt ^ (plan_seed << 32), kernel.blocks(), 3);
                let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                fill_gmem(&mut g, total, seed);
                cluster
                    .run_sharded_kernel(&kernel, &mut g, &shards, mode, false, EngineSel::MicroOp)
                    .unwrap();
                match &reference {
                    None => reference = Some(g.words().to_vec()),
                    Some(r) => prop_assert_eq!(
                        r.as_slice(),
                        g.words(),
                        "plan/mode changed results: mode={:?} plan={:?}",
                        mode,
                        shards
                    ),
                }
            }
        }
    }
}

/// Round times as bit patterns, in `RoundObservation` field order.
fn round_bits(xfer_in: f64, kernel: f64, xfer_out: f64, sync: f64, stream: f64) -> [u64; 5] {
    [xfer_in.to_bits(), kernel.to_bits(), xfer_out.to_bits(), sync.to_bits(), stream.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_program` is the 1-device cluster run: over random kernels in
    /// a two-round program, with and without transfer noise, tracing and
    /// a straggler-plus-drop fault plan, its report is bit-identical to
    /// the projection of `run_cluster_program` on
    /// `ClusterSpec::homogeneous(1, spec)` — round times, kernel stats,
    /// retries, outputs, device counters and trace spans.
    #[test]
    fn single_device_run_is_the_one_device_cluster_run(seed in 0u64..1_000_000_000) {
        let (kernel, machine, _, total) = gen_kernel(seed);
        let gwords = total / 2;
        let spec = GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() };
        let mut pb = ProgramBuilder::new("single_vs_cluster");
        let ha = pb.host_input("A", gwords);
        let hc = pb.host_output("C", gwords);
        let d0 = pb.device_alloc("in", gwords);
        let d1 = pb.device_alloc("out", gwords);
        pb.begin_round();
        pb.transfer_in(ha, d0, gwords);
        pb.launch(kernel.clone());
        pb.begin_round();
        pb.launch(kernel);
        pb.transfer_out(d1, hc, gwords);
        let program = pb.build().unwrap();
        let input: Vec<i64> = (0..gwords as i64).map(|i| (i * 7 + seed as i64) % 17 - 8).collect();

        let mut faults = FaultPlan::new(seed);
        faults.push(FaultEvent::Straggler { device: 0, clock_factor: 1.5 });
        faults.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 1 });
        for noise in [None, Some(XferNoise { rel: 0.05 })] {
            for trace in [false, true] {
                for fault in [FaultPlan::new(seed), faults.clone()] {
                    let cfg = SimConfig { noise, seed, trace, fault, ..SimConfig::default() };
                    let single = run_program(&program, vec![input.clone()], &machine, &spec, &cfg);
                    let cluster = run_cluster_program(
                        &program,
                        vec![input.clone()],
                        &machine,
                        &ClusterSpec::homogeneous(1, spec),
                        &cfg,
                    );
                    let (single, cluster) = match (single, cluster) {
                        (Ok(s), Ok(c)) => (s, c),
                        (Err(a), Err(b)) => {
                            prop_assert_eq!(a, b);
                            continue;
                        }
                        (a, b) => {
                            return Err(TestCaseError::fail(format!(
                                "one driver failed: single ok={} cluster ok={}",
                                a.is_ok(),
                                b.is_ok()
                            )))
                        }
                    };
                    prop_assert_eq!(single.rounds.len(), cluster.rounds.len());
                    for (s, c) in single.rounds.iter().zip(&cluster.rounds) {
                        let d = &c.devices[0];
                        prop_assert_eq!(
                            round_bits(s.xfer_in_ms, s.kernel_ms, s.xfer_out_ms, s.sync_ms, s.stream_ms),
                            round_bits(d.xfer_in_ms, d.kernel_ms, d.xfer_out_ms, c.sync_ms, d.stream_ms)
                        );
                        prop_assert_eq!(s.kernel_stats, d.kernel_stats);
                        prop_assert_eq!(s.retries, d.retries);
                        prop_assert_eq!(s.backoff_ms.to_bits(), d.backoff_ms.to_bits());
                    }
                    prop_assert_eq!(single.output(hc), cluster.output(hc));
                    prop_assert_eq!(single.device_stats, cluster.device_stats[0]);
                    prop_assert_eq!(&single.trace, &cluster.trace);
                    prop_assert_eq!(single.trace.is_some(), trace);
                }
            }
        }
    }
}
