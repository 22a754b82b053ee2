//! `paper_single`: the paper's vecadd / reduce / matmul at seeded sizes,
//! one client back to back on one device — price analytically, simulate
//! with `run_program`, check against the host reference.

use crate::common::{self, check_outputs, Case, Exact};
use crate::replay;
use crate::rng::Rng;
use crate::run::{self, Loop, Run};
use crate::trace::{Layer, Recorder};
use crate::Args;
use atgpu_algos::{matmul::MatMul, reduce::Reduce, vecadd::VecAdd, Workload};
use atgpu_model::cost::{evaluate, CostModel};
use atgpu_model::ClusterSpec;
use atgpu_sim::{run_cluster_program, run_program, SimConfig};
use std::time::Instant;

/// Size ladders: each rung appears equally often in every seed's pool,
/// so the latency mix (and where p50 and p99 fall) does not depend on
/// the seed; the seed picks data, order and a small size jitter.
const VECADD: [u64; 3] = [32_768, 49_152, 65_536];
const REDUCE: [u64; 3] = [16_384, 24_576, 32_768];
const MATMUL: [u64; 2] = [64, 96];

struct Pool {
    cases: Vec<Case>,
    /// Case indices of each kind, in seeded order.
    by_kind: [Vec<usize>; 3],
    /// Warm-up pass counts.
    exact: Exact,
    checked: u64,
    failures: Vec<String>,
}

fn case(label: String, w: &dyn Workload) -> Case {
    let built = w.build(&common::machine()).expect("paper workload builds");
    Case { label, built, expected: w.expected() }
}

fn build_pool(seed: u64) -> Pool {
    let mut rng = Rng::stream(seed, "paper_single", 0);
    let mut cases = Vec::new();
    let mut by_kind: [Vec<usize>; 3] = Default::default();
    let jitter = |rng: &mut Rng| 32 * rng.below(48);
    for &n in VECADD.iter().chain(&VECADD) {
        let n = n + jitter(&mut rng);
        by_kind[0].push(cases.len());
        cases.push(case(format!("vecadd_{n}"), &VecAdd::new(n, rng.next_u64())));
    }
    for &n in REDUCE.iter().chain(&REDUCE) {
        let n = n + jitter(&mut rng);
        by_kind[1].push(cases.len());
        cases.push(case(format!("reduce_{n}"), &Reduce::new(n, rng.next_u64())));
    }
    for &n in MATMUL.iter().chain(&MATMUL).chain(&MATMUL) {
        by_kind[2].push(cases.len());
        cases.push(case(format!("matmul_{n}"), &MatMul::new(n, rng.next_u64())));
    }
    for k in &mut by_kind {
        rng.shuffle(k);
    }
    // Warm-up: one checked run of every case.
    let (mut exact, mut failures) = (Exact::default(), Vec::new());
    for c in &cases {
        match simulate(c) {
            Ok(r) => {
                exact.add(&Exact::of_single(&r));
                if let Err(e) = check_outputs(c, |h| r.output(h)) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
    }
    Pool { checked: cases.len() as u64, cases, by_kind, exact, failures }
}

fn simulate(c: &Case) -> Result<atgpu_sim::SimReport, String> {
    let p = &c.built.program;
    run_program(
        p,
        c.built.inputs.clone(),
        &common::machine(),
        &common::spec(),
        &SimConfig::default(),
    )
    .map_err(|e| format!("{}: {e}", c.label))
}

/// Per-op replay samples of the traced loop.
#[derive(Default)]
struct Replays {
    engine: Vec<f64>,
    device_loop: Vec<f64>,
    uop: Vec<f64>,
    driver: Vec<f64>,
    cluster_us: f64,
    single_us: f64,
    pairs: u64,
}

/// One operation: price, simulate, check; in traced mode, replay the
/// simulator layers afterwards.  Returns replay µs.
fn op(pool: &Pool, i: u64, rec: &mut Recorder, out: &mut Loop, reps: &mut Replays) -> f64 {
    let kind = &pool.by_kind[(i % 3) as usize];
    let c = &pool.cases[kind[((i / 3) as usize) % kind.len()]];
    let p = &c.built.program;
    let one = ClusterSpec::homogeneous(1, common::spec());
    let root = rec.open(Layer::Op, i, None, false);
    let t = Instant::now();
    if let Err(e) = common::price(rec, i, root, p, &one) {
        out.fail(e);
    }
    let price_us = t.elapsed().as_secs_f64() * 1e6;
    out.price_us.push(price_us);
    let (r, us, drv) = rec.timed_id(Layer::SimDriver, i, root, false, || simulate(c));
    out.submit_ms.push(us / 1e3);
    match &r {
        Ok(r) => {
            out.sim_instr += r.rounds.iter().map(|o| o.kernel_stats.instructions).sum::<u64>();
            let (chk, _) =
                rec.timed(Layer::Check, i, root, false, || check_outputs(c, |h| r.output(h)));
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
    match replay::single(rec, i, drv, p, &common::spec()) {
        Ok(s) => {
            reps.engine.push(s.engine_us);
            reps.uop.push(s.uop_us);
            reps.device_loop.push((s.device_us - s.engine_us - s.uop_us).max(0.0));
            reps.driver.push((us - s.device_us).max(0.0));
        }
        Err(e) => out.fail(e),
    }
    // The cluster driver on one device against `run_program`, every
    // fourth op: timed, not recorded as a span (it is a comparison, not
    // work this operation does).
    if i.is_multiple_of(4) {
        let t1 = Instant::now();
        let r = run_cluster_program(
            p,
            c.built.inputs.clone(),
            &common::machine(),
            &one,
            &SimConfig::default(),
        );
        let cl = t1.elapsed().as_secs_f64() * 1e6;
        match r {
            Ok(r) => {
                if let Err(e) = check_outputs(c, |h| r.output(h)) {
                    out.fail(e);
                }
                reps.cluster_us += cl;
                reps.single_us += us;
                reps.pairs += 1;
            }
            Err(e) => out.fail(format!("{}: {e}", c.label)),
        }
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    let mut exacts = Vec::new();
    let (pool, setup_s) = run::repeated_setup(crate::SETUPS, || {
        let p = build_pool(args.seed);
        exacts.push(p.exact);
        p
    });
    let mut out = Run { setup_s, exact: pool.exact, ..Run::default() };
    out.mismatches = crate::compare_exacts(&exacts);
    out.setup_checks = pool.checked * crate::SETUPS as u64;
    out.setup_failures = pool.failures.clone();
    deterministic_metrics(&pool, &mut out);

    let mut rec = Recorder::new(false, epoch, 0);
    let mut reps = Replays::default();
    out.untraced =
        run::timed_loop(args.loop_seconds(), &mut rec, |i, rec, l| op(&pool, i, rec, l, &mut reps));
    out.setup_s.extend(run::time_setups(crate::SETUPS_AFTER, || build_pool(args.seed)));
    if args.trace {
        let mut rec = Recorder::new(true, epoch, 0);
        let traced = run::timed_loop(args.loop_seconds(), &mut rec, |i, rec, l| {
            op(&pool, i, rec, l, &mut reps)
        });
        out.set_median("sim.engine.exec_us", &reps.engine);
        out.set_median("sim.device.loop_us", &reps.device_loop);
        out.set_median("sim.uop.compile_us", &reps.uop);
        out.set_median("sim.driver.us", &reps.driver);
        if reps.pairs > 0 {
            out.set("sim.cluster.vs_single_x", reps.cluster_us / reps.single_us, reps.pairs);
            out.notes.push(format!(
                "sim.cluster.vs_single_x = {} (1-device run_cluster_program {:.0} us / \
                 run_program {:.0} us, {} pairs)",
                crate::stats::Ratio::new(reps.cluster_us, reps.single_us),
                reps.cluster_us,
                reps.single_us,
                reps.pairs
            ));
        }
        let analyze = rec.durations(Layer::Analyze);
        let model = rec.durations(Layer::ModelCost);
        out.set_median("analyze.program_us", &analyze);
        out.set_median("model.cost_us", &model);
        out.traced = Some(traced);
        out.spans = vec![rec.spans];
    }
    out
}

/// Model error, the paper's transfer gap and the trusted share, over the
/// pool's distinct programs (deterministic for a seed).
fn deterministic_metrics(pool: &Pool, out: &mut Run) {
    let m = common::machine();
    let spec = common::spec();
    let one = ClusterSpec::homogeneous(1, spec);
    let params = spec.derived_cost_params();
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut trusted = 0u64;
    for c in &pool.cases {
        let p = &c.built.program;
        let Ok(r) = simulate(c) else { continue };
        match common::price(&mut rec, 0, None, p, &one) {
            Ok(q) if q.trusted => {
                trusted += 1;
                let err = (q.cost.total_ms - r.total_ms()).abs() / r.total_ms();
                out.model_err.push(err);
                out.notes.push(format!("model error {}: {:.3}%", c.label, 100.0 * err));
            }
            Ok(_) => {}
            Err(e) => out.setup_failures.push(e),
        }
        // §IV-D: ΔT from Expression 2 with derived parameters, ΔE observed.
        let dt = atgpu_analyze::analyze_program(p, &m).map_err(|e| e.to_string()).and_then(|a| {
            evaluate(CostModel::GpuCost, &params, &m, &spec, &a.metrics())
                .map_err(|e| e.to_string())
        });
        match dt {
            Ok(cost) => {
                let kind = c.label.split('_').next().unwrap_or("?").to_string();
                out.transfer_gap
                    .push((kind, (cost.transfer_proportion() - r.transfer_proportion()).abs()));
            }
            Err(e) => out.setup_failures.push(format!("{}: {e}", c.label)),
        }
    }
    out.set(
        "analyze.trusted_ratio",
        trusted as f64 / pool.cases.len() as f64,
        pool.cases.len() as u64,
    );
    crate::set_exact(out);
}
