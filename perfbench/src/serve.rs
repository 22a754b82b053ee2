//! `serve_mixed`: a closed loop of two tenants on one `CostServer` over
//! two devices.  Each client waits for its reply before sending the next
//! request; its request sequence is a pure function of
//! `(seed, "serve_mixed", client)`.
//!
//! The mix, per 200 requests of one client:
//!
//! | share | request | path it takes |
//! |------:|---------|---------------|
//! | 80 | `price` of a repeated shape | memo hit |
//! | 30 | `price_what_if` of a repeated shape on a repeated spec | memo hit |
//! | 28 | `price` of a fresh catalogue shape (trusted kinds) | verify + analyze + model |
//! | 8 | `price_what_if` of an untrusted program on a fresh spec | simulation fallback |
//! | 33 | `submit` of a repeated shape | warm kernel cache |
//! | 1 | `submit` of a repeated large shape | warm kernel cache |
//! | 14 | `submit` of a fresh shape | cold `uop` lowering |
//! | 6 | `submit` of a provably racy program | `ServeError::Unsound` |
//!
//! The slowest class of each call is a few percent of its calls: the
//! fallback is 5.5% of prices, and the large submit (about 10 ms) is 2.1%
//! of submits; small submits queued behind it take as long.  So each p99
//! falls inside one class, not on a tail of waits behind the other client.
//!
//! Fresh shapes cycle through per-client pools larger than the server's
//! memo (1024 entries, FIFO) and kernel cache (64 per device), so they
//! miss on every pass.  Each client draws from its own pools, so which
//! requests hit does not depend on how the two clients interleave.

use crate::common::{self, check_outputs, Case, Exact};
use crate::rng::Rng;
use crate::run::{self, Loop, Run};
use crate::trace::{Layer, Recorder, SpanId};
use crate::Args;
use atgpu_algos::{
    dot::Dot, reduce::Reduce, saxpy::Saxpy, spmv::SpmvEll, stencil::Stencil, vecadd::VecAdd,
    Workload,
};
use atgpu_ir::{AddrExpr, KernelBuilder, Program, ProgramBuilder};
use atgpu_model::cost::cluster_cost_streamed;
use atgpu_model::ClusterSpec;
use atgpu_serve::{
    program_key, query_key_from, CostServer, PriceSource, Quote, ServeError, ServerConfig,
};
use atgpu_sim::{run_cluster_program, run_cluster_program_on, Cluster, CompiledKernel, SimConfig};
use std::time::Instant;

const CLIENTS: usize = 2;
const DEVICES: usize = 2;
/// Fresh trusted shapes per client (more than the 1024-entry memo).
const FRESH_PRICE: usize = 1200;
/// Fresh submit shapes per client (with both clients, more than the
/// 64-entry kernel cache).
const FRESH_SUBMIT: usize = 48;
/// Racy shapes per client.
const RACY: usize = 64;
/// Fresh submit shapes of each client the warm-up submits (the end of
/// its pool).
const WARM_FRESH_SUBMIT: usize = 4;
/// The largest share of repeated price requests that may be re-priced
/// analytically.  A repeat misses the memo only after FIFO eviction,
/// about once per repeated key every ~1000 insertions (under 1% of
/// repeats); a higher share means the memo stopped answering repeats.
const MAX_REPEAT_REPRICE: f64 = 0.05;
/// Size and rounds of the large submit shape.
const LARGE: u64 = 65_536;
const LARGE_ROUNDS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PriceRepeat,
    WhatIfRepeat,
    PriceFresh,
    Fallback,
    SubmitRepeat,
    SubmitLarge,
    SubmitFresh,
    Racy,
}

/// Per 200 requests of one client.
const MIX: [(Kind, usize); 8] = [
    (Kind::PriceRepeat, 80),
    (Kind::WhatIfRepeat, 30),
    (Kind::PriceFresh, 28),
    (Kind::Fallback, 8),
    (Kind::SubmitRepeat, 33),
    (Kind::SubmitLarge, 1),
    (Kind::SubmitFresh, 14),
    (Kind::Racy, 6),
];

/// Pricing paths in the order `Samples::sources` counts them.
const SOURCES: [PriceSource; 3] =
    [PriceSource::Memo, PriceSource::Analytic, PriceSource::Simulated];

/// Whether a price request of class `kind` took the path its class
/// exists to measure.  A repeated shape may be re-priced analytically
/// after a FIFO eviction; `MAX_REPEAT_REPRICE` bounds how often.
fn expected_path(kind: Kind, source: PriceSource) -> bool {
    use PriceSource::*;
    matches!(
        (kind, source),
        (Kind::PriceRepeat | Kind::WhatIfRepeat, Memo | Analytic)
            | (Kind::PriceFresh, Analytic)
            | (Kind::Fallback, Simulated)
    )
}

/// Shared, read-only inputs of both clients.
struct Shared {
    /// Repeated price shapes (all trusted, so an eviction re-prices
    /// analytically, never by simulation).
    repeat: Vec<Program>,
    /// Repeated what-if specs.
    specs: Vec<ClusterSpec>,
    /// Repeated submit shapes.
    submit: Vec<Case>,
    /// The repeated large submit shape: slower than any small submit
    /// plus its admission wait, so `submit_p99_ms` falls inside this
    /// class rather than on the tail of a mixture.
    large: Case,
    /// The untrusted program the fallback prices.
    untrusted: Program,
}

/// One client's generated inputs.
struct ClientInputs {
    /// Request kinds, one 100-request cycle after another.
    kinds: Vec<Kind>,
    /// Index draws for repeated classes.
    picks: Vec<u64>,
    fresh_price: Vec<Program>,
    fresh_submit: Vec<Case>,
    racy: Vec<(Program, Vec<Vec<i64>>)>,
}

struct Setup {
    shared: Shared,
    clients: Vec<ClientInputs>,
    /// Warm quotes: `repeat[j]` on the server's spec, then on each spec.
    quotes: Vec<Quote>,
    what_if: Vec<Vec<Quote>>,
    server: CostServer,
    exact: Exact,
    stats_line: String,
    failures: Vec<String>,
    checks: u64,
}

fn cluster2() -> ClusterSpec {
    ClusterSpec::homogeneous(DEVICES, common::spec())
}

/// The server's spec with host link 0's latency nudged by a unique
/// amount: a what-if question never asked before.
fn fresh_spec(client: usize, k: u64) -> ClusterSpec {
    let mut s = cluster2();
    let f = 1.0 + (1 + client as u64 * 1_000_000 + k) as f64 * 1e-9;
    s.host_links[0].alpha_ms *= f;
    s
}

/// A program whose kernel provably races: blocks write overlapping
/// windows (`stride < b`).
fn racy(stride: u64, blocks: u64) -> (Program, Vec<Vec<i64>>) {
    let n = blocks * 32;
    let mut pb = ProgramBuilder::new("racy");
    let h = pb.host_input("A", n);
    let o = pb.host_output("C", n);
    let da = pb.device_alloc("a", n);
    let dc = pb.device_alloc("c", n);
    let mut kb = KernelBuilder::new("collide", blocks, 32);
    kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
    kb.shr_to_glb(dc, AddrExpr::block() * stride as i64 + AddrExpr::lane(), AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(h, da, n);
    pb.launch(kb.build());
    pb.transfer_out(dc, o, n);
    (pb.build().expect("racy program builds"), vec![vec![0; n as usize]])
}

fn build_shared() -> Shared {
    let m = common::machine();
    let mut repeat = Vec::new();
    let mut submit = Vec::new();
    for n in [8_192u64, 12_288] {
        let w = VecAdd::new(n, n);
        let built = w.build_sharded(&m, DEVICES as u32).expect("sharded vecadd builds");
        repeat.push(built.program.clone());
        submit.push(Case { label: format!("vecadd2_{n}"), built, expected: w.expected() });
    }
    let w = Stencil::new(8_192, 3);
    let built = w.build_sharded(&m, DEVICES as u32, 2).expect("sharded stencil builds");
    repeat.push(built.program.clone());
    submit.push(Case {
        label: "stencil2_8192".into(),
        built,
        expected: vec![w.iterated_reference(2)],
    });
    for w in [&Reduce::new(8_192, 4) as &dyn Workload, &Dot::new(8_192, 5)] {
        repeat.push(w.build(&m).expect("catalogue builds").program);
    }
    let mut specs = Vec::new();
    for f in [2.0, 8.0] {
        let mut s = cluster2();
        s.host_links[1] = s.host_links[1].scaled(f);
        specs.push(s);
    }
    let mut s = cluster2();
    s.peer_links[0][1] = s.peer_links[0][1].scaled(4.0);
    specs.push(s);
    let w = Stencil::new(LARGE, 7);
    let built = w.build_sharded(&m, DEVICES as u32, LARGE_ROUNDS).expect("sharded stencil builds");
    let large = Case {
        label: format!("stencil2_{LARGE}"),
        built,
        expected: vec![w.iterated_reference(LARGE_ROUNDS)],
    };
    let untrusted = SpmvEll::new(128, 3, 6).build(&m).expect("spmv builds").program;
    Shared { repeat, specs, submit, large, untrusted }
}

/// `taken` holds the `program_key`s of the shared repeated shapes, which
/// a fresh shape must not equal.
fn build_client(seed: u64, c: usize, taken: &[u64]) -> ClientInputs {
    let m = common::machine();
    let mut rng = Rng::stream(seed, "serve_mixed", c as u64);
    let cycle: Vec<Kind> = MIX.iter().flat_map(|&(k, w)| std::iter::repeat_n(k, w)).collect();
    let mut kinds = Vec::new();
    for _ in 0..500 {
        let mut cyc = cycle.clone();
        rng.shuffle(&mut cyc);
        kinds.extend(cyc);
    }
    let picks: Vec<u64> = (0..kinds.len()).map(|_| rng.next_u64()).collect();
    // Fresh trusted shapes: five kinds × sizes on this client's half of
    // a 32-word grid, each shape once, in seeded order, none equal to a
    // repeated shape.
    let mut fresh_price = Vec::with_capacity(FRESH_PRICE);
    let mut sizes: Vec<u64> =
        (0..FRESH_PRICE as u64 / 5 + 2).map(|j| 1_024 + 64 * j + 32 * c as u64).collect();
    rng.shuffle(&mut sizes);
    'outer: for &n in &sizes {
        let ws: [Box<dyn Workload>; 5] = [
            Box::new(VecAdd::new(n, 0)),
            Box::new(Saxpy::new(n, 3, 0)),
            Box::new(Reduce::new(n, 0)),
            Box::new(Dot::new(n, 0)),
            Box::new(Stencil::new(n, 0)),
        ];
        for w in ws {
            if fresh_price.len() == FRESH_PRICE {
                break 'outer;
            }
            let p = w.build(&m).expect("catalogue builds").program;
            if !taken.contains(&program_key(&p)) {
                fresh_price.push(p);
            }
        }
    }
    rng.shuffle(&mut fresh_price);
    let mut fresh_submit = Vec::with_capacity(FRESH_SUBMIT);
    for j in 0..FRESH_SUBMIT as u64 {
        let n = 4_096 + 64 * (j / 2) + 32 * c as u64;
        let data = rng.next_u64();
        let w: Box<dyn Workload> = if j % 2 == 0 {
            Box::new(VecAdd::new(n, data))
        } else {
            Box::new(Saxpy::new(n, 5, data))
        };
        let built = w.build(&m).expect("catalogue builds");
        fresh_submit.push(Case {
            label: format!("{}_{n}", w.name()),
            built,
            expected: w.expected(),
        });
    }
    rng.shuffle(&mut fresh_submit);
    let racy_shapes = (0..RACY as u64)
        .map(|j| {
            // Odd strides for client 0, even for client 1: no shared shapes.
            let stride = 1 + 2 * (j % 15) + c as u64;
            let blocks = 2 + j / 15 + rng.below(2) * 8;
            racy(stride, blocks)
        })
        .collect();
    ClientInputs { kinds, picks, fresh_price, fresh_submit, racy: racy_shapes }
}

fn new_server() -> CostServer {
    CostServer::new(common::machine(), cluster2(), ServerConfig::default()).expect("server builds")
}

fn build_setup(seed: u64) -> Setup {
    let shared = build_shared();
    let taken: Vec<u64> = shared.repeat.iter().map(program_key).collect();
    let clients: Vec<ClientInputs> = (0..CLIENTS).map(|c| build_client(seed, c, &taken)).collect();
    let mut s = Setup {
        shared,
        clients,
        quotes: Vec::new(),
        what_if: Vec::new(),
        server: new_server(),
        exact: Exact::default(),
        stats_line: String::new(),
        failures: Vec::new(),
        checks: 0,
    };
    warm_up(&mut s);
    s
}

/// Warms the server single-threaded: every repeated shape priced on
/// every spec and submitted once, and a fixed prefix of each client's
/// fresh and racy pools.  The counts it produces are deterministic.
fn warm_up(s: &mut Setup) {
    let server = &s.server;
    let mut exact = Exact::default();
    let mut last_cache = (0, 0);
    let mut fail = |e: String| s.failures.push(e);
    s.quotes.clear();
    s.what_if.clear();
    for p in &s.shared.repeat {
        s.checks += 1;
        match server.price(p) {
            Ok(q) => s.quotes.push(q),
            Err(e) => fail(format!("warm price: {e}")),
        }
        let mut row = Vec::new();
        for spec in &s.shared.specs {
            s.checks += 1;
            match server.price_what_if(p, spec) {
                Ok(q) => row.push(q),
                Err(e) => fail(format!("warm what-if: {e}")),
            }
        }
        s.what_if.push(row);
    }
    let mut submit = |tenant: &str, c: &Case, exact: &mut Exact| match server.submit(
        tenant,
        &c.built.program,
        c.built.inputs.clone(),
    ) {
        Ok(r) => {
            let e = Exact::of_cluster(&r);
            exact.instr += e.instr;
            exact.global_txns += e.global_txns;
            exact.total_ms += e.total_ms;
            last_cache = (e.cache_hits, e.cache_misses);
            check_outputs(c, |h| r.output(h)).err()
        }
        Err(e) => Some(format!("{}: {e}", c.label)),
    };
    let mut errs = Vec::new();
    for c in s.shared.submit.iter().chain([&s.shared.large]) {
        errs.extend(submit("warm", c, &mut exact));
    }
    for (ci, cl) in s.clients.iter().enumerate() {
        // The warm-up takes the end of each fresh pool: by the time the
        // loop reaches it, the memo and kernel caches have evicted it.
        for c in cl.fresh_submit.iter().rev().take(WARM_FRESH_SUBMIT) {
            errs.extend(submit(&format!("client-{ci}"), c, &mut exact));
        }
        for p in cl.fresh_price.iter().rev().take(8) {
            if let Err(e) = server.price(p) {
                errs.push(format!("warm fresh price: {e}"));
            }
        }
        for (p, inputs) in cl.racy.iter().rev().take(2) {
            if !matches!(server.submit("warm", p, inputs.clone()), Err(ServeError::Unsound { .. }))
            {
                errs.push("warm racy program was not refused as unsound".into());
            }
        }
    }
    s.checks += (s.shared.submit.len() + 1 + CLIENTS * 14) as u64;
    s.failures.extend(errs);
    exact.cache_hits = last_cache.0;
    exact.cache_misses = last_cache.1;
    s.exact = exact;
    let st = server.stats();
    s.stats_line = format!(
        "price memo/analytic/simulated {}/{}/{}, verify checked/hits/rejected {}/{}/{}",
        st.price.memo_hits,
        st.price.analytic,
        st.price.simulated,
        st.verify.checked,
        st.verify.memo_hits,
        st.verify.rejected
    );
}

/// Per-client replay samples (traced loop).
#[derive(Default)]
struct Samples {
    /// Latency per request class (µs), indexed by `Kind`.
    by_kind: Vec<Vec<f64>>,
    /// Price requests per class and path taken (indexed like `SOURCES`).
    sources: Vec<[u64; 3]>,
    validate: Vec<f64>,
    hash: Vec<f64>,
    verify: Vec<f64>,
    race_free: u64,
    launches: u64,
    analyze: Vec<f64>,
    trusted: u64,
    analyzed: u64,
    model: Vec<f64>,
    uop: Vec<f64>,
    wait: Vec<f64>,
    overhead: Vec<f64>,
    price_total_us: f64,
    price_sim_us: f64,
}

impl Samples {
    fn merge(&mut self, o: Samples) {
        self.by_kind.resize(MIX.len(), Vec::new());
        for (a, b) in self.by_kind.iter_mut().zip(o.by_kind) {
            a.extend(b);
        }
        self.sources.resize(MIX.len(), [0; 3]);
        for (a, b) in self.sources.iter_mut().zip(o.sources) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.validate.extend(o.validate);
        self.hash.extend(o.hash);
        self.verify.extend(o.verify);
        self.race_free += o.race_free;
        self.launches += o.launches;
        self.analyze.extend(o.analyze);
        self.trusted += o.trusted;
        self.analyzed += o.analyzed;
        self.model.extend(o.model);
        self.uop.extend(o.uop);
        self.wait.extend(o.wait);
        self.overhead.extend(o.overhead);
        self.price_total_us += o.price_total_us;
        self.price_sim_us += o.price_sim_us;
    }
}

/// Replays the hashing a request pays, as the server does it:
/// `program_key` (every kernel's `cache_key` inside it) and, for a
/// price, the query key over the spec's `spec_key`.
fn replay_hash(
    rec: &mut Recorder,
    req: u64,
    parent: SpanId,
    p: &Program,
    spec: Option<&ClusterSpec>,
) -> f64 {
    let m = common::machine();
    rec.timed(Layer::IrHash, req, parent, true, || {
        let pkey = program_key(p);
        spec.map_or(pkey, |s| query_key_from(pkey, s, &m))
    })
    .1
}

/// Replays verify, validate (inside analyze), analyze and the cost
/// model on a fresh price's path; returns their µs.
fn replay_fresh(rec: &mut Recorder, req: u64, parent: SpanId, p: &Program, s: &mut Samples) -> f64 {
    let m = common::machine();
    let (v, vus) =
        rec.timed(Layer::Verify, req, parent, true, || atgpu_verify::verify_program(p, m.b));
    s.verify.push(vus);
    s.launches += v.launches.len() as u64;
    s.race_free +=
        v.launches.iter().filter(|l| l.race == atgpu_verify::RaceVerdict::RaceFree).count() as u64;
    let (a, aus, aid) = rec.timed_id(Layer::Analyze, req, parent, true, || {
        atgpu_analyze::analyze_cluster_program(p, &m, DEVICES as u32)
    });
    let (_, vlus) =
        rec.timed(Layer::IrValidate, req, aid, true, || atgpu_ir::validate::validate_program(p));
    s.validate.push(vlus);
    s.analyze.push(aus);
    s.analyzed += 1;
    let mut total = vus + aus;
    if let Ok(a) = a {
        if a.io_exact && a.conflict_free {
            s.trusted += 1;
            let spec = cluster2();
            let (_, mus) = rec.timed(Layer::ModelCost, req, parent, true, || {
                let sch = atgpu_analyze::stream_schedules(p, DEVICES as u32);
                cluster_cost_streamed(&spec, &m, &a.per_device, &sch, &a.peer)
            });
            s.model.push(mus);
            total += mus;
        }
    }
    total
}

/// Replays the micro-op lowering of every launch of `p` (each missed the
/// kernel cache) under `parent`.
fn replay_compile(rec: &mut Recorder, req: u64, parent: SpanId, p: &Program, s: &mut Samples) {
    let m = common::machine();
    let (bases, _) = p.buffer_layout(m.b);
    for (k, _) in common::launches(p) {
        let nregs = k.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
        let (_, us) = rec.timed(Layer::SimUop, req, parent, true, || {
            CompiledKernel::compile(k, &bases, m.b as u32, nregs)
        });
        s.uop.push(us);
    }
}

/// One client's closed loop.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    setup: &Setup,
    server: &CostServer,
    c: usize,
    seconds: f64,
    rec: &mut Recorder,
    solo: &Cluster,
    s: &mut Samples,
) -> Loop {
    let sh = &setup.shared;
    let cl = &setup.clients[c];
    let tenant = format!("client-{c}");
    let (mut fresh_p, mut fresh_s, mut racy_i, mut fb) = (0usize, 0usize, 0usize, 0u64);
    run::timed_loop(seconds, rec, |i, rec, out| {
        let slot = (i as usize) % cl.kinds.len();
        let kind = cl.kinds[slot];
        let pick = cl.picks[slot];
        let root = rec.open(Layer::Op, i, None, false);
        let mut replay_us = 0.0;
        let price = |rec: &mut Recorder, p: &Program, spec: Option<&ClusterSpec>| {
            rec.timed_id(Layer::Serve, i, root, false, || match spec {
                Some(sp) => server.price_what_if(p, sp),
                None => server.price(p),
            })
        };
        match kind {
            Kind::PriceRepeat | Kind::WhatIfRepeat | Kind::PriceFresh | Kind::Fallback => {
                let j = (pick as usize) % sh.repeat.len();
                let w = (pick as usize / 7) % sh.specs.len();
                let spec_fresh;
                let (p, spec, want): (&Program, Option<&ClusterSpec>, Option<f64>) = match kind {
                    Kind::PriceRepeat => (&sh.repeat[j], None, Some(setup.quotes[j].total_ms)),
                    Kind::WhatIfRepeat => {
                        (&sh.repeat[j], Some(&sh.specs[w]), Some(setup.what_if[j][w].total_ms))
                    }
                    Kind::PriceFresh => {
                        fresh_p += 1;
                        (&cl.fresh_price[(fresh_p - 1) % cl.fresh_price.len()], None, None)
                    }
                    _ => {
                        fb += 1;
                        spec_fresh = fresh_spec(c, fb);
                        (&sh.untrusted, Some(&spec_fresh), None)
                    }
                };
                let (q, us, sid) = price(rec, p, spec);
                out.price_us.push(us);
                s.by_kind[kind as usize].push(us);
                rec.close(root);
                match q {
                    Ok(q) if q.total_ms.is_finite() && q.total_ms > 0.0 => {
                        if let Some(k) = SOURCES.iter().position(|&x| x == q.source) {
                            s.sources[kind as usize][k] += 1;
                        }
                        if !expected_path(kind, q.source) {
                            out.fail(format!("{kind:?} request priced by {:?}", q.source));
                        }
                        if want.is_some_and(|w| w.to_bits() != q.total_ms.to_bits()) {
                            out.fail(format!(
                                "repeated quote changed: {} vs {:?}",
                                q.total_ms, want
                            ));
                        }
                        if rec.on() {
                            let t = Instant::now();
                            let own = cluster2();
                            let mut path = replay_hash(rec, i, sid, p, Some(spec.unwrap_or(&own)));
                            s.hash.push(path);
                            match q.source {
                                PriceSource::Memo => {}
                                PriceSource::Analytic => path += replay_fresh(rec, i, sid, p, s),
                                PriceSource::Simulated => {
                                    let spec = spec.cloned().unwrap_or_else(cluster2);
                                    let zeros: Vec<Vec<i64>> = p
                                        .host_bufs
                                        .iter()
                                        .filter(|b| matches!(b.role, atgpu_ir::HostBufRole::Input))
                                        .map(|b| vec![0; b.words as usize])
                                        .collect();
                                    let (_, sus) =
                                        rec.timed(Layer::SimCluster, i, sid, true, || {
                                            run_cluster_program(
                                                p,
                                                zeros,
                                                &common::machine(),
                                                &spec,
                                                &SimConfig::default(),
                                            )
                                        });
                                    s.price_sim_us += sus;
                                    path += sus;
                                }
                            }
                            s.overhead.push((us - path).max(0.0));
                            s.price_total_us += us;
                            replay_us += t.elapsed().as_secs_f64() * 1e6;
                        }
                    }
                    Ok(q) => out.fail(format!("non-positive quote {}", q.total_ms)),
                    Err(e) => out.fail(format!("price refused a sound program: {e}")),
                }
            }
            Kind::SubmitRepeat | Kind::SubmitLarge | Kind::SubmitFresh => {
                let case = match kind {
                    Kind::SubmitRepeat => &sh.submit[(pick as usize) % sh.submit.len()],
                    Kind::SubmitLarge => &sh.large,
                    _ => {
                        fresh_s += 1;
                        &cl.fresh_submit[(fresh_s - 1) % cl.fresh_submit.len()]
                    }
                };
                let inputs = case.built.inputs.clone();
                let (r, us, sid) = rec.timed_id(Layer::Serve, i, root, false, || {
                    server.submit(&tenant, &case.built.program, inputs)
                });
                out.submit_ms.push(us / 1e3);
                s.by_kind[kind as usize].push(us);
                match &r {
                    Ok(r) => {
                        out.sim_instr += Exact::of_cluster(r).instr;
                        let (chk, _) = rec.timed(Layer::Check, i, root, false, || {
                            check_outputs(case, |h| r.output(h))
                        });
                        if let Err(e) = chk {
                            out.fail(e);
                        }
                    }
                    Err(e) => {
                        out.fail(format!("{}: submit refused a sound program: {e}", case.label))
                    }
                }
                rec.close(root);
                if rec.on() {
                    let t = Instant::now();
                    let p = &case.built.program;
                    let hash_us = replay_hash(rec, i, sid, p, None);
                    if kind == Kind::SubmitFresh {
                        // The server verifies a fresh shape on its first
                        // pass (the warm-up verified the pool's end); later
                        // passes hit the verify memo.  Its kernel cache has
                        // evicted the shape, so the run is replayed on a
                        // cold cluster with the lowering as its child.
                        if fresh_s <= cl.fresh_submit.len() - WARM_FRESH_SUBMIT {
                            let m = common::machine();
                            let (_, vus) = rec.timed(Layer::Verify, i, sid, true, || {
                                atgpu_verify::verify_program(p, m.b)
                            });
                            s.verify.push(vus);
                        }
                        let cold = Cluster::new(common::machine(), cluster2());
                        match cold {
                            Ok(cold) => {
                                cold.configure_devices(&SimConfig::default());
                                let (_, _, run) =
                                    rec.timed_id(Layer::SimCluster, i, sid, true, || {
                                        run_cluster_program_on(
                                            &cold,
                                            p,
                                            case.built.inputs.clone(),
                                            &SimConfig::default(),
                                        )
                                    });
                                replay_compile(rec, i, run, p, s);
                            }
                            Err(e) => out.fail(format!("replay cluster: {e}")),
                        }
                    } else {
                        // A warm submit: verify memo hit, warm kernel cache.
                        // What the call took beyond hashing and a solo run
                        // on a warm private cluster is admission wait.
                        let (_, solo_us) = rec.timed(Layer::SimCluster, i, sid, true, || {
                            run_cluster_program_on(
                                solo,
                                p,
                                case.built.inputs.clone(),
                                &SimConfig::default(),
                            )
                        });
                        s.wait.push((us - hash_us - solo_us).max(0.0));
                    }
                    replay_us += t.elapsed().as_secs_f64() * 1e6;
                }
            }
            Kind::Racy => {
                racy_i += 1;
                let (p, inputs) = &cl.racy[(racy_i - 1) % cl.racy.len()];
                let (r, us) = rec.timed(Layer::Serve, i, root, false, || {
                    server.submit(&tenant, p, inputs.clone())
                });
                s.by_kind[kind as usize].push(us);
                rec.close(root);
                if !matches!(r, Err(ServeError::Unsound { .. })) {
                    out.fail("a provably racy program was not refused as unsound".into());
                }
            }
        }
        replay_us
    })
}

/// Runs both clients against `server` for `seconds`.
fn drive(
    setup: &Setup,
    server: &CostServer,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Loop, Vec<Recorder>, Samples) {
    let results: Vec<(Loop, Recorder, Samples)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, c as u32);
                    let solo = Cluster::new(common::machine(), cluster2()).expect("cluster builds");
                    solo.configure_devices(&SimConfig::default());
                    let mut s = Samples {
                        by_kind: vec![Vec::new(); MIX.len()],
                        sources: vec![[0; 3]; MIX.len()],
                        ..Samples::default()
                    };
                    let l = client_loop(setup, server, c, seconds, &mut rec, &solo, &mut s);
                    (l, rec, s)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Loop::default();
    let mut recs = Vec::new();
    let mut samples = Samples::default();
    for (l, r, s) in results {
        total.merge(l);
        recs.push(r);
        samples.merge(s);
    }
    (total, recs, samples)
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    let mut exacts = Vec::new();
    let mut lines = Vec::new();
    let (setup, setup_s) = run::repeated_setup(crate::SETUPS, || {
        let s = build_setup(args.seed);
        exacts.push(s.exact);
        lines.push(s.stats_line.clone());
        s
    });
    let mut out = Run { setup_s, exact: setup.exact, ..Run::default() };
    out.mismatches = crate::compare_exacts(&exacts);
    for (i, l) in lines.iter().enumerate().skip(1) {
        if *l != lines[0] {
            out.mismatches.push(format!("set-up 0 vs {i}: {} vs {l}", lines[0]));
        }
    }
    out.setup_checks = setup.checks * crate::SETUPS as u64;
    out.setup_failures = setup.failures.clone();
    deterministic_metrics(&setup, &mut out);

    let (mut l, _, s) = drive(&setup, &setup.server, args.loop_seconds(), false, epoch);
    check_paths("untraced", &s, &mut l, &mut out.notes);
    out.untraced = l;
    out.setup_s.extend(run::time_setups(crate::SETUPS_AFTER, || build_setup(args.seed)));
    for ((kind, _), us) in MIX.iter().zip(&s.by_kind) {
        let t = crate::stats::at_percentile(us, 99.0);
        out.notes.push(format!(
            "{kind:?}: {} requests, p50 {:.1} us, p99 {:.1} us",
            us.len(),
            crate::stats::median(us),
            t.value
        ));
    }
    if args.trace {
        let mut fresh = Setup { server: new_server(), failures: Vec::new(), checks: 0, ..setup };
        warm_up(&mut fresh);
        out.setup_checks += fresh.checks;
        out.setup_failures.extend(fresh.failures.iter().cloned());
        let (mut l, recs, s) = drive(&fresh, &fresh.server, args.loop_seconds(), true, epoch);
        check_paths("traced", &s, &mut l, &mut out.notes);
        let st = fresh.server.stats();
        out.set("serve.price.memo_hits", st.price.memo_hits as f64, 1);
        out.set("serve.price.analytic", st.price.analytic as f64, 1);
        out.set("serve.price.simulated", st.price.simulated as f64, 1);
        out.set("serve.admission.rejected", st.admission.rejected_total as f64, 1);
        out.set(
            "serve.verify_memo_hit_ratio",
            st.verify.memo_hits as f64 / st.verify.checked.max(1) as f64,
            st.verify.checked,
        );
        out.notes.push(format!(
            "serve.verify_memo_hit_ratio = {}; verify.race_free_ratio = {}; analyze.trusted_ratio = {}",
            crate::stats::Ratio::new(st.verify.memo_hits as f64, st.verify.checked as f64),
            crate::stats::Ratio::new(s.race_free as f64, s.launches as f64),
            crate::stats::Ratio::new(s.trusted as f64, s.analyzed as f64)
        ));
        out.set_median("ir.validate_us", &s.validate);
        out.set_median("ir.hash_us", &s.hash);
        out.set_median("verify.program_us", &s.verify);
        out.set(
            "verify.race_free_ratio",
            s.race_free as f64 / s.launches.max(1) as f64,
            s.launches,
        );
        out.set_median("analyze.program_us", &s.analyze);
        out.set("analyze.trusted_ratio", s.trusted as f64 / s.analyzed.max(1) as f64, s.analyzed);
        out.set_median("model.cost_us", &s.model);
        out.set_median("sim.uop.compile_us", &s.uop);
        out.set_median("serve.admission.wait_us", &s.wait);
        out.set_median("serve.overhead_us", &s.overhead);
        let front =
            if s.price_total_us > 0.0 { 1.0 - s.price_sim_us / s.price_total_us } else { 0.0 };
        out.set("serve.price_front_share", front, l.price_us.len() as u64);
        out.traced = Some(l);
        out.spans = recs.into_iter().map(|r| r.spans).collect();
    }
    out
}

/// Notes each price class's realized paths beside its weight in the mix,
/// and fails the loop when the memo re-priced more repeats than FIFO
/// eviction explains.
fn check_paths(label: &str, s: &Samples, l: &mut Loop, notes: &mut Vec<String>) {
    let mut repeats = [0u64; 3];
    for (&(kind, weight), counts) in MIX.iter().zip(&s.sources) {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            continue;
        }
        let paths: Vec<String> = SOURCES
            .iter()
            .zip(counts)
            .map(|(src, &c)| format!("{src:?} {:.2}%", 100.0 * c as f64 / n as f64))
            .collect();
        notes.push(format!(
            "{label} {kind:?} (mix {weight}/200): {n} priced, paths {}",
            paths.join(", ")
        ));
        if matches!(kind, Kind::PriceRepeat | Kind::WhatIfRepeat) {
            for (r, c) in repeats.iter_mut().zip(counts) {
                *r += c;
            }
        }
    }
    let reprice = crate::stats::Ratio::new(repeats[1] as f64, repeats.iter().sum::<u64>() as f64);
    notes.push(format!("{label} repeats re-priced analytically after eviction: {reprice}"));
    if reprice.value() > MAX_REPEAT_REPRICE {
        l.fail(format!(
            "{label}: {reprice} of repeated prices missed the memo (at most {MAX_REPEAT_REPRICE})"
        ));
    }
}

/// Model error and transfer gap over the trusted repeated submit shapes,
/// and the exact counts of the warm-up pass.
fn deterministic_metrics(setup: &Setup, out: &mut Run) {
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let spec = cluster2();
    for c in setup.shared.submit.iter().chain([&setup.shared.large]) {
        let p = &c.built.program;
        let r = run_cluster_program(
            p,
            c.built.inputs.clone(),
            &common::machine(),
            &spec,
            &SimConfig::default(),
        );
        let (Ok(r), Ok(q)) = (r, common::price(&mut rec, 0, None, p, &spec)) else {
            out.setup_failures.push(format!("{}: cannot price or simulate", c.label));
            continue;
        };
        if q.trusted {
            let err = (q.cost.total_ms - r.total_ms()).abs() / r.total_ms();
            out.model_err.push(err);
            out.notes.push(format!("model error {}: {:.3}%", c.label, 100.0 * err));
        }
        let kind = c.label.split('_').next().unwrap_or("?").to_string();
        let gap = common::predicted_transfer_share(&q.cost) - common::observed_transfer_share(&r);
        out.transfer_gap.push((kind, gap.abs()));
    }
    crate::set_exact(out);
}
