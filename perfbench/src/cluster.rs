//! `cluster_peer`: 4-device sharded stencil with halo exchange,
//! 4-device histogram with partial-bin peer merge, and cost-planned
//! vecadd on a link-asymmetric 2-device cluster — one client back to
//! back.  A seeded tenth of the operations carry a fault plan (drops,
//! degraded links, stragglers and one device loss).

use crate::common::{self, check_outputs, Case, Exact};
use crate::replay;
use crate::rng::Rng;
use crate::run::{self, Loop, Run};
use crate::trace::{Layer, Recorder, SpanId};
use crate::Args;
use atgpu_algos::{histogram::Histogram, stencil::Stencil, vecadd::VecAdd, Workload};
use atgpu_ir::Shard;
use atgpu_model::{ClusterSpec, ShardProfile};
use atgpu_sim::{
    planned_shards, run_cluster_program, ClusterSimReport, FaultEvent, FaultPlan, SimConfig,
};
use std::time::Instant;

/// Programs as (size, fault-free ops, faulted ops) per 48-operation
/// cycle.  Stencil sizes are fixed (the model's error moves with the
/// block split, so a jittered stencil would make `model_err_pct` a
/// function of the seed); histogram and vecadd sizes get a small seeded
/// jitter.  The slowest class, the faulted large stencil, is 1 op in 48,
/// so `submit_p99_ms` falls near that class's median rather than on the
/// tail of a mixture.
const STENCIL: [(u64, usize, usize); 2] = [(16_384, 8, 0), (24_576, 7, 1)];
const STENCIL_ROUNDS: u64 = 4;
const HISTOGRAM: [(u64, usize, usize); 2] = [(1_024, 6, 2), (1_536, 6, 2)];
const VECADD: [(u64, usize); 2] = [(65_536, 8), (98_304, 8)];

/// The planner's inputs and the plan set-up built the program with.
struct Plan {
    units: u64,
    profile: ShardProfile,
    shards: Vec<Shard>,
}

struct Variant {
    case: Case,
    cluster: ClusterSpec,
    plan: Option<Plan>,
    fault: FaultPlan,
    /// Index of the fault-free variant of the same program.
    clean: usize,
}

struct Pool {
    variants: Vec<Variant>,
    /// Seeded operation order over variant indices (fixed composition).
    order: Vec<usize>,
    /// Warm-up pass counts per variant.
    exact: Vec<Exact>,
    /// Warm-up pass simulated total per variant.
    total_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The 2-device cluster with the second host link 8x slower.
fn asym2() -> ClusterSpec {
    let mut c = ClusterSpec::homogeneous(2, common::spec());
    c.host_links[1] = c.host_links[1].scaled(8.0);
    c
}

/// The fault plan of the `throughput` chaos smoke: the drops, degraded
/// links and stragglers of `FaultPlan::random(0xC11A05, ..)` and the loss
/// of device 2 (not the merge owner).  The plan is fixed, so the faulted
/// operations cost the same host work under every seed; the seed picks
/// which operations carry it.
fn fault_plan(rounds: u64, down_round: u64) -> FaultPlan {
    let mut plan = FaultPlan::random(0xC11A05, 4, rounds as usize, 0.25);
    plan.events.retain(|e| !matches!(e, FaultEvent::DeviceDown { .. }));
    plan.push(FaultEvent::DeviceDown { device: 2, at_round: down_round as usize });
    plan
}

fn build_pool(seed: u64) -> Pool {
    let m = common::machine();
    let mut rng = Rng::stream(seed, "cluster_peer", 0);
    let quad = ClusterSpec::homogeneous(4, common::spec());
    let mut variants: Vec<Variant> = Vec::new();
    let mut add = |v: Variant| {
        variants.push(v);
        variants.len() - 1
    };
    let mut weights = Vec::new();
    for &(n, clean_ops, faulted_ops) in &STENCIL {
        let w = Stencil::new(n, rng.next_u64());
        let built = w.build_sharded(&m, 4, STENCIL_ROUNDS).expect("stencil builds");
        let case = Case {
            label: format!("stencil4_{n}"),
            built,
            expected: vec![w.iterated_reference(STENCIL_ROUNDS)],
        };
        // Mid-program loss: the survivors take over the remaining rounds.
        let fault = fault_plan(STENCIL_ROUNDS, 1);
        let clean = add(Variant {
            case: case.clone(),
            cluster: quad.clone(),
            plan: None,
            fault: FaultPlan::default(),
            clean: 0,
        });
        weights.extend(std::iter::repeat_n(clean, clean_ops));
        if faulted_ops > 0 {
            let f = add(Variant { case, cluster: quad.clone(), plan: None, fault, clean });
            weights.extend(std::iter::repeat_n(f, faulted_ops));
        }
    }
    for &(n, clean_ops, faulted_ops) in &HISTOGRAM {
        let n = n + 32 * rng.below(4);
        let w = Histogram::new(n, m.b, rng.next_u64());
        let built = w.build_sharded(&m, 4).expect("histogram builds");
        let case = Case { label: format!("histogram4_{n}"), built, expected: w.expected() };
        // The partial rows live on the shards' devices until round 1
        // merges them, so the loss happens at the start.
        let fault = fault_plan(2, 0);
        let clean = add(Variant {
            case: case.clone(),
            cluster: quad.clone(),
            plan: None,
            fault: FaultPlan::default(),
            clean: 0,
        });
        weights.extend(std::iter::repeat_n(clean, clean_ops));
        let f = add(Variant { case, cluster: quad.clone(), plan: None, fault, clean });
        weights.extend(std::iter::repeat_n(f, faulted_ops));
    }
    for &(n, ops) in &VECADD {
        let n = n + 32 * rng.below(8);
        let w = VecAdd::new(n, rng.next_u64());
        let cluster = asym2();
        let units = m.blocks_for(n);
        let profile = VecAdd::shard_profile(&m);
        let shards = planned_shards(units, &cluster, &m, &profile);
        let built = w.build_sharded_with(&m, shards.clone()).expect("planned vecadd builds");
        let case = Case { label: format!("vecadd_planned2_{n}"), built, expected: w.expected() };
        let i = add(Variant {
            case,
            cluster,
            plan: Some(Plan { units, profile, shards }),
            fault: FaultPlan::default(),
            clean: 0,
        });
        weights.extend(std::iter::repeat_n(i, ops));
    }
    for (i, v) in variants.iter_mut().enumerate() {
        if v.fault.is_empty() {
            v.clean = i;
        }
    }
    // Each cycle holds every variant as often as its weight, shuffled.
    let mut order = Vec::new();
    for _ in 0..64 {
        let mut cycle = weights.clone();
        rng.shuffle(&mut cycle);
        order.extend(cycle);
    }

    let (mut exact, mut total_ms, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for v in &variants {
        match simulate(v, true) {
            Ok(r) => {
                exact.push(Exact::of_cluster(&r));
                total_ms.push(r.total_ms());
                if let Err(e) = check_outputs(&v.case, |h| r.output(h)) {
                    failures.push(e);
                }
            }
            Err(e) => {
                exact.push(Exact::default());
                total_ms.push(0.0);
                failures.push(e);
            }
        }
    }
    Pool { variants, order, exact, total_ms, failures }
}

/// Runs the variant as a user would (`threads`: the default
/// `SimConfig`, shards on device threads when the host has several
/// CPUs) or as a serial replay (`device_threads: false`), with its
/// fault plan either way.
fn simulate(v: &Variant, threads: bool) -> Result<ClusterSimReport, String> {
    let mut cfg = SimConfig { fault: v.fault.clone(), ..SimConfig::default() };
    cfg.device_threads &= threads;
    let b = &v.case.built;
    run_cluster_program(&b.program, b.inputs.clone(), &common::machine(), &v.cluster, &cfg)
        .map_err(|e| format!("{}: {e}", v.case.label))
}

#[derive(Default)]
struct Samples {
    /// Host µs of the simulation per variant.
    host_us: Vec<Vec<f64>>,
    plan_us: Vec<f64>,
    shard: Vec<f64>,
    merge: Vec<f64>,
    driver: Vec<f64>,
    /// Operations whose driver residue was not positive (clamped to 0).
    clamped: u64,
}

fn op(pool: &Pool, i: u64, rec: &mut Recorder, out: &mut Loop, s: &mut Samples) -> f64 {
    let vi = pool.order[(i as usize) % pool.order.len()];
    let v = &pool.variants[vi];
    let p = &v.case.built.program;
    let m = common::machine();
    let root = rec.open(Layer::Op, i, None, false);
    if let Some(plan) = &v.plan {
        let (shards, us) = rec.timed(Layer::ModelPlan, i, root, false, || {
            planned_shards(plan.units, &v.cluster, &m, &plan.profile)
        });
        s.plan_us.push(us);
        if shards != plan.shards {
            out.fail(format!("{}: planned_shards changed between calls", v.case.label));
        }
    }
    let t = Instant::now();
    if let Err(e) = common::price(rec, i, root, p, &v.cluster) {
        out.fail(e);
    }
    out.price_us.push(t.elapsed().as_secs_f64() * 1e6);
    let (r, us, drv) = rec.timed_id(Layer::SimCluster, i, root, false, || simulate(v, true));
    out.submit_ms.push(us / 1e3);
    s.host_us[vi].push(us);
    match &r {
        Ok(r) => {
            out.sim_instr += Exact::of_cluster(r).instr;
            let (chk, _) =
                rec.timed(Layer::Check, i, root, false, || check_outputs(&v.case, |h| r.output(h)));
            if let Err(e) = chk {
                out.fail(e);
            }
        }
        Err(e) => out.fail(e.clone()),
    }
    rec.close(root);
    if !rec.on() {
        return 0.0;
    }
    let t = Instant::now();
    if let Err(e) = replay_layers(pool, vi, i, rec, drv, s) {
        out.fail(e);
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// Splits one real (threaded) call into layers by replaying it serially.
/// The real call runs its shards on device threads, so its time cannot
/// be compared with serial shard replays.  A serial replay of the whole
/// call (`device_threads: false`) can: the driver is that replay minus
/// its replayed shards and merges.  A faulted operation first replays
/// the serial faulted call; what it takes beyond the serial fault-free
/// call (its child) is the fault layer's host work.
///
/// ```text
/// sim.cluster.driver (real call)
/// └─ sim.fault (replay: serial call with the fault plan; faulted ops)
///    └─ sim.cluster.driver (replay: serial fault-free call)
///       ├─ sim.cluster.shard (replay, per shard)
///       └─ sim.cluster.merge (replay, per shard)
/// ```
fn replay_layers(
    pool: &Pool,
    vi: usize,
    i: u64,
    rec: &mut Recorder,
    real: SpanId,
    s: &mut Samples,
) -> Result<(), String> {
    let v = &pool.variants[vi];
    let mut parent = real;
    if !v.fault.is_empty() {
        let (r, _, id) = rec.timed_id(Layer::SimFault, i, real, true, || simulate(v, false));
        r?;
        parent = id;
    }
    let clean = &pool.variants[v.clean];
    let (r, serial_us, id) =
        rec.timed_id(Layer::SimCluster, i, parent, true, || simulate(clean, false));
    r?;
    let split = replay::cluster(rec, i, id, &v.case.built.program, &v.cluster)?;
    s.shard.push(split.shard_us);
    s.merge.push(split.merge_us);
    let driver = serial_us - split.shard_us - split.merge_us;
    if driver <= 0.0 {
        s.clamped += 1;
    }
    s.driver.push(driver.max(0.0));
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    let mut pools_exact: Vec<Vec<Exact>> = Vec::new();
    let (pool, setup_s) = run::repeated_setup(crate::SETUPS, || {
        let p = build_pool(args.seed);
        pools_exact.push(p.exact.clone());
        p
    });
    let mut out = Run { setup_s, ..Run::default() };
    for e in &pool.exact {
        out.exact.add(e);
    }
    // Determinism: every variant's counts must repeat across set-ups;
    // cache counters of faulted variants are the known exception.
    for (vi, v) in pool.variants.iter().enumerate() {
        let per: Vec<Exact> = pools_exact.iter().map(|p| p[vi]).collect();
        for d in crate::compare_exacts(&per) {
            let line = format!(
                "{}{}: {d}",
                v.case.label,
                if v.fault.is_empty() { "" } else { " (faulted)" }
            );
            if !v.fault.is_empty() && d.contains("sim.cache.") {
                out.known_mismatches.push(line);
            } else {
                out.mismatches.push(line);
            }
        }
    }
    out.setup_checks = (pool.variants.len() * crate::SETUPS) as u64;
    out.setup_failures = pool.failures.clone();
    deterministic_metrics(&pool, &mut out);

    let mut s = Samples { host_us: vec![Vec::new(); pool.variants.len()], ..Samples::default() };
    let mut rec = Recorder::new(false, epoch, 0);
    out.untraced =
        run::timed_loop(args.loop_seconds(), &mut rec, |i, rec, l| op(&pool, i, rec, l, &mut s));
    out.setup_s.extend(run::time_setups(crate::SETUPS_AFTER, || build_pool(args.seed)));
    for (vi, v) in pool.variants.iter().enumerate() {
        let ms: Vec<f64> = s.host_us[vi].iter().map(|us| us / 1e3).collect();
        out.notes.push(format!(
            "{}{}: {} ops, host ms p50 {:.3} max {:.3}",
            v.case.label,
            if v.fault.is_empty() { "" } else { " (faulted)" },
            ms.len(),
            crate::stats::median(&ms),
            ms.iter().copied().fold(0.0, f64::max)
        ));
    }
    if args.trace {
        // Fault overhead in host time, from the untraced loop: faulted
        // over fault-free mean host time of the same programs.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let (mut faulted, mut clean, mut n) = (0.0, 0.0, 0u64);
        for (vi, v) in pool.variants.iter().enumerate() {
            if !v.fault.is_empty() && !s.host_us[vi].is_empty() && !s.host_us[v.clean].is_empty() {
                faulted += mean(&s.host_us[vi]);
                clean += mean(&s.host_us[v.clean]);
                n += s.host_us[vi].len() as u64;
            }
        }
        if n > 0 {
            out.set("sim.fault.host_overhead_x", faulted / clean, n);
        }
        let mut rec = Recorder::new(true, epoch, 0);
        s.plan_us.clear();
        let traced = run::timed_loop(args.loop_seconds(), &mut rec, |i, rec, l| {
            op(&pool, i, rec, l, &mut s)
        });
        out.set_median("model.plan_us", &s.plan_us);
        out.set_median("sim.cluster.shard_us", &s.shard);
        out.set_median("sim.cluster.merge_us", &s.merge);
        out.set_median("sim.cluster.driver_us", &s.driver);
        out.set("sim.cluster.driver_clamped", s.clamped as f64, s.driver.len() as u64);
        out.set_median("analyze.program_us", &rec.durations(Layer::Analyze));
        out.set_median("model.cost_us", &rec.durations(Layer::ModelCost));
        out.notes.push(format!(
            "sim.fault.host_overhead_x = {} (faulted / fault-free mean host us of the same programs, \
             untraced loop); simulated total_ms ratio sim.fault.sim_overhead_x = {}",
            crate::stats::Ratio::new(faulted, clean),
            out.layer.get("sim.fault.sim_overhead_x").map(|v| v.value).unwrap_or(0.0)
        ));
        out.notes.push(format!(
            "sim.cluster.driver_us = serial replay of the call - its replayed shards and merges; \
             {} of {} ops had a residue <= 0, clamped to 0",
            s.clamped,
            s.driver.len()
        ));
        out.traced = Some(traced);
        out.spans = vec![rec.spans];
    }
    out
}

/// Model error and transfer gap over the fault-free distinct programs,
/// the simulated fault overhead, and the exact counts.
fn deterministic_metrics(pool: &Pool, out: &mut Run) {
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut trusted = 0u64;
    let mut clean = 0u64;
    let (mut f_ms, mut c_ms) = (0.0, 0.0);
    for (vi, v) in pool.variants.iter().enumerate() {
        if !v.fault.is_empty() {
            f_ms += pool.total_ms[vi];
            c_ms += pool.total_ms[v.clean];
            continue;
        }
        clean += 1;
        let Ok(r) = simulate(v, true) else { continue };
        match common::price(&mut rec, 0, None, &v.case.built.program, &v.cluster) {
            Ok(q) => {
                if q.trusted {
                    trusted += 1;
                    let err = (q.cost.total_ms - r.total_ms()).abs() / r.total_ms();
                    out.model_err.push(err);
                    out.notes.push(format!("model error {}: {:.3}%", v.case.label, 100.0 * err));
                }
                let kind = v.case.label.split('_').next().unwrap_or("?").to_string();
                let gap =
                    common::predicted_transfer_share(&q.cost) - common::observed_transfer_share(&r);
                out.transfer_gap.push((kind, gap.abs()));
            }
            Err(e) => out.setup_failures.push(e),
        }
    }
    out.set("analyze.trusted_ratio", trusted as f64 / clean.max(1) as f64, clean);
    out.set(
        "sim.fault.sim_overhead_x",
        if c_ms > 0.0 { f_ms / c_ms } else { 0.0 },
        pool.variants.len() as u64,
    );
    crate::set_exact(out);
}
