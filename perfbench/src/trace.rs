//! In-memory spans around calls into each crate, Chrome `trace_event`
//! export, and per-layer self time.
//!
//! The benchmark measures layers from outside: each span wraps one call
//! into a crate's public entry point.  Where a layer's work happens
//! inside another crate's call and cannot be reached from outside (the
//! engine inside `run_program`, the shards inside
//! `run_cluster_program`), the benchmark replays that layer's own entry
//! point on the same inputs after the real call and records the replay
//! as a child of the real span, marked `replay`.  A span's self time is
//! its duration minus the durations of its children; for replayed
//! children that is an attribution, not an interval subtraction.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers spans are recorded for, one Chrome lane each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark operation (the root of a request's spans).
    Op,
    /// `atgpu_ir::validate_program`.
    IrValidate,
    /// The structural hashers (`Kernel::cache_key`, `program_key`,
    /// `ClusterSpec::spec_key`).
    IrHash,
    /// `atgpu_verify::verify_program`.
    Verify,
    /// `atgpu_analyze::analyze_cluster_program`.
    Analyze,
    /// `stream_schedules` + `cluster_cost_streamed`.
    ModelCost,
    /// `atgpu_sim::planned_shards`.
    ModelPlan,
    /// `CostServer::price` / `price_what_if` / `submit`.
    Serve,
    /// `run_program` (the single-device driver).
    SimDriver,
    /// `run_cluster_program` / `run_cluster_program_on`.
    SimCluster,
    /// `Device::run_shard`.
    SimShard,
    /// `apply_write_log`.
    SimMerge,
    /// The host work a fault plan adds to a cluster call.
    SimFault,
    /// `Device::run_kernel_with`.
    SimDevice,
    /// Stepping `BlockExec` through a launch's blocks.
    SimEngine,
    /// `CompiledKernel::compile`.
    SimUop,
    /// The benchmark's own output check against host references.
    Check,
}

impl Layer {
    /// Every layer, in lane order.
    pub const ALL: [Layer; 17] = [
        Layer::Op,
        Layer::IrValidate,
        Layer::IrHash,
        Layer::Verify,
        Layer::Analyze,
        Layer::ModelCost,
        Layer::ModelPlan,
        Layer::Serve,
        Layer::SimDriver,
        Layer::SimCluster,
        Layer::SimShard,
        Layer::SimMerge,
        Layer::SimFault,
        Layer::SimDevice,
        Layer::SimEngine,
        Layer::SimUop,
        Layer::Check,
    ];

    /// The layer's name in tables and traces.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::IrValidate => "ir.validate",
            Layer::IrHash => "ir.hash",
            Layer::Verify => "verify",
            Layer::Analyze => "analyze",
            Layer::ModelCost => "model.cost",
            Layer::ModelPlan => "model.plan",
            Layer::Serve => "serve",
            Layer::SimDriver => "sim.driver",
            Layer::SimCluster => "sim.cluster.driver",
            Layer::SimShard => "sim.cluster.shard",
            Layer::SimMerge => "sim.cluster.merge",
            Layer::SimFault => "sim.fault",
            Layer::SimDevice => "sim.device",
            Layer::SimEngine => "sim.engine",
            Layer::SimUop => "sim.uop",
            Layer::Check => "check",
        }
    }

    /// The layer's Chrome `tid`.
    pub fn lane(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0)
    }
}

/// One recorded span (times in µs since the run's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (lane).
    pub layer: Layer,
    /// Client (Chrome `pid`).
    pub client: u32,
    /// Request id shared by one operation's spans.
    pub req: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Start, µs.
    pub start: f64,
    /// Duration, µs.
    pub dur: f64,
    /// Whether this span replays a layer after the real call.
    pub replay: bool,
}

/// A per-client span recorder.  Off, it records nothing and every call
/// costs one branch; timings the benchmark needs regardless come from
/// [`Recorder::timed`]'s return value.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    client: u32,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

/// A handle to an open span (`None` when recording is off).
pub type SpanId = Option<usize>;

impl Recorder {
    /// A recorder for `client`, timing against the shared `epoch`.
    pub fn new(on: bool, epoch: Instant, client: u32) -> Self {
        Self { on, epoch, client, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span.
    pub fn open(&mut self, layer: Layer, req: u64, parent: SpanId, replay: bool) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now_us();
        self.spans.push(Span { layer, client: self.client, req, parent, start, dur: 0.0, replay });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now_us();
            let s = &mut self.spans[i];
            s.dur = (end - s.start).max(0.0);
        }
    }

    /// Durations of one layer's recorded spans, µs.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans.iter().filter(|s| s.layer == layer).map(|s| s.dur).collect()
    }

    /// Runs `f` inside a span and returns its result with its host time
    /// in µs (measured whether or not recording is on).
    pub fn timed<T>(
        &mut self,
        layer: Layer,
        req: u64,
        parent: SpanId,
        replay: bool,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (out, us, _) = self.timed_id(layer, req, parent, replay, f);
        (out, us)
    }

    /// [`Recorder::timed`] that also returns the span id, for children.
    pub fn timed_id<T>(
        &mut self,
        layer: Layer,
        req: u64,
        parent: SpanId,
        replay: bool,
        f: impl FnOnce() -> T,
    ) -> (T, f64, SpanId) {
        let id = self.open(layer, req, parent, replay);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.close(id);
        (out, us, id)
    }
}

/// Per-layer self time over a set of recorders' spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Σ self time per layer (µs), indexed like [`Layer::ALL`].
    pub self_us: Vec<f64>,
    /// Σ duration of the root (`op`) spans, µs — the base of the shares.
    pub op_us: f64,
    /// Spans whose replayed children outlasted them, so the children's
    /// attribution was scaled down to fit.
    pub scaled: usize,
}

impl SelfTimes {
    /// A layer's self time as a share of all operation time.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.op_us > 0.0 {
            self.self_us[layer.lane()] / self.op_us
        } else {
            0.0
        }
    }
}

/// Computes per-layer self time: each span's duration minus its
/// children's durations.  A replay can outlast the real call it explains
/// (cold caches, serial replays of work the call ran on threads); then
/// the children are scaled to fill exactly their parent, so replays
/// apportion the real time and the shares of one client's operations
/// sum to 1.
pub fn self_times(spans: &[Vec<Span>]) -> SelfTimes {
    let mut out = SelfTimes { self_us: vec![0.0; Layer::ALL.len()], op_us: 0.0, scaled: 0 };
    for client in spans {
        let mut child_us = vec![0.0; client.len()];
        for s in client {
            if let Some(p) = s.parent {
                child_us[p] += s.dur;
            }
        }
        // Parents are opened, hence pushed, before their children.
        let mut attributed = vec![0.0; client.len()];
        let mut scale = vec![1.0; client.len()];
        for (i, s) in client.iter().enumerate() {
            attributed[i] = s.dur * s.parent.map_or(1.0, |p| scale[p]);
            if child_us[i] > attributed[i] {
                scale[i] = attributed[i] / child_us[i];
                out.scaled += 1;
            }
            let own = attributed[i] - child_us[i] * scale[i];
            out.self_us[s.layer.lane()] += own.max(0.0);
            if s.layer == Layer::Op {
                out.op_us += s.dur;
            }
        }
    }
    out
}

/// Writes spans as a Chrome `trace_event` JSON array: `pid` = client,
/// `tid` = layer, so spans in one lane never overlap.
pub fn chrome_json(spans: &[Vec<Span>]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    };
    for (c, client) in spans.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{c},\"tid\":0,\
                 \"args\":{{\"name\":\"client {c}\"}}}}"
            ),
        );
        for l in Layer::ALL {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{c},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    l.lane(),
                    l.name()
                ),
            );
        }
        for s in client {
            let mut ev = String::new();
            let _ = write!(
                ev,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                 \"ts\":{:.4},\"dur\":{:.4},\"args\":{{\"req\":{}",
                s.layer.name(),
                if s.replay { "replay" } else { "call" },
                s.client,
                s.layer.lane(),
                s.start,
                s.dur,
                s.req
            );
            if let Some(p) = s.parent {
                let _ = write!(ev, ",\"parent\":\"{}\"", client[p].layer.name());
            }
            ev.push_str("}}");
            push(&mut out, ev);
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start: f64, dur: f64, replay: bool) -> Span {
        Span { layer, client: 0, req: 1, parent, start, dur, replay }
    }

    #[test]
    fn self_time_subtracts_children_and_scales_long_replays() {
        let spans = vec![vec![
            span(Layer::Op, None, 0.0, 100.0, false),
            span(Layer::SimDriver, Some(0), 10.0, 80.0, false),
            // Replayed child attributed out of the driver span.
            span(Layer::SimDevice, Some(1), 200.0, 60.0, true),
            span(Layer::SimEngine, Some(2), 300.0, 70.0, true),
        ]];
        let t = self_times(&spans);
        assert_eq!(t.op_us, 100.0);
        assert_eq!(t.self_us[Layer::Op.lane()], 20.0);
        assert_eq!(t.self_us[Layer::SimDriver.lane()], 20.0);
        // The engine replay outlasted its device replay: it fills the
        // device's 60 µs and the device keeps no self time.
        assert_eq!(t.self_us[Layer::SimDevice.lane()], 0.0);
        assert_eq!(t.self_us[Layer::SimEngine.lane()], 60.0);
        assert_eq!(t.scaled, 1);
        let total: f64 = Layer::ALL.iter().map(|&l| t.share(l)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_passes_the_repo_validator() {
        let spans = vec![
            vec![
                span(Layer::Op, None, 0.0, 10.0, false),
                span(Layer::SimDriver, Some(0), 1.0, 8.0, false),
                span(Layer::Op, None, 10.0, 5.0, false),
            ],
            vec![Span { client: 1, ..span(Layer::Serve, None, 0.5, 3.0, false) }],
        ];
        let json = chrome_json(&spans);
        let check = atgpu_sim::validate_chrome_json(&json).expect("valid trace");
        assert_eq!(check.spans, 4);
        assert_eq!(check.devices, 2);
    }
}
