//! The six workloads and their end-to-end runs: set-up (several times,
//! the median is `setup_s`) → output check → warm-up → timed window →
//! memory phase (a fresh instance under the allocator's accounting).

use std::time::{Duration, Instant};

use crate::check;
use crate::host;
use crate::http::Client;
use crate::loadgen::{LoadRun, Outcome, Schedule};
use crate::names::WORKLOADS;
use crate::stats;
use crate::surface::{
    Algo, Arch, Batch, Executor, Json, Model, ModelPlan, Numerics, ServerProc, Trainer,
};
use crate::{trace, wire};

/// A workload, in the order of `names::WORKLOADS` and `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflineF32Im2row,
    OfflineF32F4,
    ServeInt8Im2row,
    ServeInt8F4,
    ServeFleetLenet,
    TrainInt8F4Flex,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::OfflineF32Im2row,
        Workload::OfflineF32F4,
        Workload::ServeInt8Im2row,
        Workload::ServeInt8F4,
        Workload::ServeFleetLenet,
        Workload::TrainInt8F4Flex,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The model the workload runs (each of the fleet's 16 for the fleet).
    pub fn plan(self) -> ModelPlan {
        let resnet = |width, input, algo, numerics| ModelPlan {
            arch: Arch::ResNet18,
            width,
            input,
            algo,
            numerics,
        };
        match self {
            Workload::OfflineF32Im2row => resnet(0.5, 32, Algo::Im2row, Numerics::F32),
            Workload::OfflineF32F4 => resnet(0.5, 32, Algo::F4, Numerics::F32),
            Workload::ServeInt8Im2row => resnet(0.5, 32, Algo::Im2row, Numerics::Int8),
            Workload::ServeInt8F4 => resnet(0.5, 32, Algo::F4, Numerics::Int8),
            Workload::ServeFleetLenet => ModelPlan {
                arch: Arch::LeNet,
                width: 1.0,
                input: 28,
                algo: Algo::F2,
                numerics: Numerics::F32,
            },
            Workload::TrainInt8F4Flex => resnet(0.125, 16, Algo::F4Flex, Numerics::Int8FakeQuant),
        }
    }

    /// Whether the per-layer metric `name` applies to this workload: its
    /// traced run must measure exactly the metrics this says, and reports
    /// the others as `null`.
    pub fn measures(self, name: &str) -> bool {
        let plan = self.plan();
        let serve = self.is_serve();
        let train = self == Workload::TrainInt8F4Flex;
        let int8 = plan.numerics == Numerics::Int8;
        let fake_quant = plan.numerics == Numerics::Int8FakeQuant;
        let winograd = plan.algo != Algo::Im2row;
        let resnet = plan.arch == Arch::ResNet18;
        // ResNet's stem is im2row under every algorithm
        let im2row = resnet || !winograd;
        match name {
            "tensor.im2row_us" => im2row,
            "tensor.gemm_us" | "tensor.gemm_gflops" => !int8,
            "tensor.gemm_i8_us" | "tensor.gemm_i8_gops" => int8,
            "quant.quantize_us" | "quant.requantize_us" => int8,
            "quant.fake_quant_us" | "obs.stage_share.fake_quant" => fake_quant,
            // LeNet has two convolutions: `stem` and `s1`
            "core.conv_us.s2" | "core.conv_us.s3" | "core.conv_us.s4" => resnet,
            "core.f4_speedup_measured" | "latency.f4_speedup_predicted" => winograd,
            "core.train_forward_us" | "core.train_backward_us" | "nn.optimizer_us" => train,
            "nn.executor_us" | "nn.executor_self_us" => !train,
            // one thread against one thread is not a measurement
            "nn.executor_scaling" => !train && host::nproc() > 1,
            "tensor.json_decode_us" | "tensor.json_encode_us" | "nn.checkpoint_decode_us" => serve,
            "obs.stage_share.im2row" | "obs.stage_share.im2row.gemm" => im2row && !int8,
            "obs.stage_share.winograd.gemm" => winograd && !int8,
            "obs.stage_share.int8.winograd_gemm" => winograd && int8,
            _ if name.starts_with("obs.stage_share.int8.") => int8,
            _ if name.starts_with("obs.stage_share.winograd.") => winograd,
            _ if name.starts_with("winograd.") => winograd,
            _ if name.starts_with("serve.") => serve,
            _ => true,
        }
    }

    /// The same-seed twin the set-up check compares against, and the
    /// relative-RMSE bound between the two.
    fn twin(self) -> Option<(ModelPlan, f64)> {
        let plan = self.plan();
        match self {
            Workload::OfflineF32Im2row => Some((
                ModelPlan {
                    algo: Algo::F4,
                    ..plan
                },
                1e-4,
            )),
            Workload::OfflineF32F4 | Workload::ServeFleetLenet => Some((
                ModelPlan {
                    algo: Algo::Im2row,
                    ..plan
                },
                1e-4,
            )),
            // integer execution against its f32 simulation: measured
            // ≤6.3e-3 for im2row; per-tap F4 is seed-sensitive (0.03–0.18
            // measured, garbage gives ≈1.4), so its bound is a sanity one
            Workload::ServeInt8Im2row | Workload::ServeInt8F4 => Some((
                ModelPlan {
                    numerics: Numerics::Int8PerTapFakeQuant,
                    ..plan
                },
                if self == Workload::ServeInt8F4 {
                    0.5
                } else {
                    0.05
                },
            )),
            Workload::TrainInt8F4Flex => None,
        }
    }
}

/// Samples per offline executor batch: two default chunks of 8.
pub const OFFLINE_BATCH: usize = 16;
/// Open-loop rate of the INT8 serving workloads, requests per second
/// (≈45 % of the reference host's capacity).
pub const SERVE_RATE: f64 = 40.0;
/// Models in the fleet, and the stride that spreads requests over them.
pub const FLEET_MODELS: usize = 16;
pub const FLEET_STRIDE: usize = 7;
/// Open-loop rate of the fleet workload, requests per second.
pub const FLEET_RATE: f64 = 300.0;
/// Fixed training batches and their size.
pub const TRAIN_BATCHES: usize = 4;
pub const TRAIN_BATCH: usize = 16;
/// Distinct request inputs a serving workload cycles through.
const INPUT_POOL: usize = 64;
/// Set-ups a full run times.
const SETUPS: usize = 5;
/// Client-side bound on every request: far above any healthy latency, so
/// it only fires on a hang.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
}

/// Windows shorter than this are smoke runs: they check the plumbing, so
/// they warm up briefly and set up once.
const SMOKE_BELOW_S: f64 = 6.0;

impl RunArgs {
    /// Length of the untimed warm-up before the window: 2 s.
    pub fn warmup(&self) -> f64 {
        if self.seconds < SMOKE_BELOW_S {
            self.seconds / 4.0
        } else {
            2.0
        }
    }

    /// Length of the memory phase after the window: 2 s.
    pub fn heap_window(&self) -> f64 {
        self.warmup()
    }

    /// Set-ups to time; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.seconds < SMOKE_BELOW_S {
            1
        } else {
            SETUPS
        }
    }
}

/// What a run measured, end to end or traced.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's table in `names`;
    /// `None` where the metric does not apply to the workload.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Facts about the run that are not metrics: counts and checks.
    pub notes: Vec<(&'static str, f64)>,
}

/// Distinct seeds for the pieces of one run, derived from `--seed`.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)
}

const SALT_INPUT: u64 = 1;
const SALT_WARM: u64 = 2;
const SALT_DATA: u64 = 3;
const SALT_FLEET: u64 = 100;

/// Runs `setup` `times` times, keeps the last product and returns the
/// median time of one set-up in seconds.
fn timed_setups<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // the previous product is dropped first (a server drains and
        // stops): set-ups neither stack nor share the cores
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up ran"),
        stats::median(&seconds),
    ))
}

/// What a timed window measured besides the latencies themselves.
struct Window {
    elapsed_s: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
}

/// Measures `body` (the timed window): wall time, process CPU time and
/// the peak of the resident set (NaN where the kernel will not restart
/// its high-water mark).
fn measure<T>(body: impl FnOnce() -> T) -> (T, Window) {
    let rss_restarted = host::restart_peak_rss();
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    let out = body();
    let elapsed_s = t0.elapsed().as_secs_f64();
    let cpu_ms = host::cpu_ms() - cpu0;
    (
        out,
        Window {
            elapsed_s,
            cpu_ms,
            peak_rss_mb: if rss_restarted {
                host::peak_rss_mib()
            } else {
                f64::NAN
            },
        },
    )
}

/// What a run measures around its timed window.
struct Around {
    /// Median time of one set-up, in seconds.
    setup_s: f64,
    /// Result of the memory phase, in MiB.
    peak_heap_mb: f64,
}

/// The memory phase, after the timed window and with the run's earlier
/// state dropped: arms the allocator's accounting, builds a fresh instance
/// of the workload with `set_up` — so every byte the instance holds is
/// counted — and has `drive` drive it and return the peak of the live
/// heap in bytes; returns that in MiB. Nothing in this phase is timed.
fn heap_phase<S>(
    set_up: impl FnOnce() -> Result<S, String>,
    drive: impl FnOnce(&mut S) -> f64,
) -> Result<f64, String> {
    trace::arm_allocator(true);
    let peak = set_up().map(|mut state| drive(&mut state));
    trace::arm_allocator(false);
    Ok(peak? / (1 << 20) as f64)
}

/// Calls `op` back to back for `seconds` and returns the median over the
/// calls of the most bytes live during one. (The peak of one offline batch
/// is where its two workers' tapes overlap most, which shifts with their
/// relative timing from batch to batch: the phase's maximum is the
/// luckiest overlap, the median the usual one.)
fn closed_loop_heap_peak(seconds: f64, mut op: impl FnMut() -> bool) -> f64 {
    let mut peaks = Vec::new();
    closed_loop(seconds, || {
        trace::reset_peak();
        let ok = op();
        peaks.push(trace::peak_live_bytes() as f64);
        ok
    });
    stats::median(&peaks)
}

/// Calls `op` back to back for `seconds`, one caller; returns each call's
/// latency in milliseconds and how many returned `false`.
fn closed_loop(seconds: f64, mut op: impl FnMut() -> bool) -> (Vec<f64>, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut latencies, mut failed) = (Vec::new(), 0);
    loop {
        let t = Instant::now();
        let ok = op();
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
        if Instant::now() >= deadline {
            return (latencies, failed);
        }
    }
}

/// What a window's ops add up to.
struct Ops<'a> {
    /// Latency of every op attempted, in milliseconds.
    latencies_ms: &'a [f64],
    failed: u64,
    samples_per_s: f64,
    /// Samples of the ops that completed correctly.
    samples_done: f64,
}

/// The end-to-end metrics of a window.
fn end_to_end(ops: &Ops, around: &Around, window: &Window) -> Measured {
    let sorted = stats::sorted(ops.latencies_ms);
    let attempted = sorted.len() as f64;
    let failed_share = ops.failed as f64 / attempted;
    let metrics = [
        ("samples_per_s", ops.samples_per_s),
        ("latency_p50_ms", stats::percentile(&sorted, 0.5)),
        ("latency_p90_ms", stats::percentile(&sorted, 0.9)),
        (
            "cpu_ms_per_sample",
            window.cpu_ms / ops.samples_done.max(1.0),
        ),
        ("correct_share", 1.0 - failed_share),
        ("setup_s", around.setup_s),
        ("peak_heap_mb", around.peak_heap_mb),
    ];
    Measured {
        attempted: sorted.len() as u64,
        failed: ops.failed,
        metrics: metrics.map(|(name, v)| (name, Some(v))).to_vec(),
        notes: vec![
            ("ops", attempted),
            ("failed_share", failed_share),
            ("latency_p99_ms", stats::percentile(&sorted, 0.99)),
            ("window_s", window.elapsed_s),
            ("peak_rss_mb", window.peak_rss_mb),
        ],
    }
}

/// The metrics of a closed-loop window: throughput is samples per op over
/// the median op time, which a single stall cannot move.
fn closed_loop_result(
    latencies_ms: &[f64],
    failed: u64,
    samples_per_op: usize,
    around: &Around,
    window: &Window,
) -> Measured {
    let p50 = stats::median(latencies_ms);
    let ops = Ops {
        latencies_ms,
        failed,
        samples_per_s: samples_per_op as f64 * 1e3 / p50,
        samples_done: (latencies_ms.len() * samples_per_op) as f64,
    };
    end_to_end(&ops, around, window)
}

/// Runs one workload end to end.
///
/// # Errors
///
/// A failed set-up or set-up check, as a message; the caller exits
/// non-zero and prints no metrics.
pub fn run(args: &RunArgs) -> Result<Measured, String> {
    match args.workload {
        Workload::OfflineF32Im2row | Workload::OfflineF32F4 => offline(args),
        Workload::ServeInt8Im2row | Workload::ServeInt8F4 | Workload::ServeFleetLenet => {
            serve(args)
        }
        Workload::TrainInt8F4Flex => train(args),
    }
}

// ---- offline ----------------------------------------------------------

/// Calls `f` on a thread spawned for the call and joined after it, the
/// way the program's own scheduler calls the executor (one flusher thread
/// per batch). It is also what makes the offline numbers repeat under the
/// default allocator: glibc keeps a per-thread cache of freed blocks, and
/// what a long-lived caller's cache happens to hold decides how much of
/// the executor workers' memory goes back to the kernel after a batch —
/// the same batch then costs 0 to 63 000 page faults, 127 to 215 ms, in
/// phases of seconds (see the README). A caller with no history pays the
/// same every time. The spawn and join are ≈60 µs of an op of ≥150 ms.
fn call_from_fresh_thread<T: Send>(
    f: impl FnOnce() -> Result<T, String> + Send,
) -> Result<T, String> {
    std::thread::scope(|s| s.spawn(f).join())
        .unwrap_or_else(|_| Err("the calling thread panicked".to_string()))
}

/// The set-up state of an offline workload.
pub struct Offline {
    pub model: Model,
    pub exec: Executor,
    pub batch: Batch,
    /// Output of the first executor run.
    pub first: Batch,
}

impl Offline {
    /// Model from spec and seed, one sample through it on this thread,
    /// shipped executor, and the first executor run.
    ///
    /// The single sample is there for what the model allocates on its
    /// first call and keeps for life (the transformed filters). Left to
    /// the first executor run, those blocks land in the malloc arena of
    /// whichever worker thread gets there first, at whatever height its
    /// tape has reached — and from then on that arena cannot return the
    /// heaps below them, so every later batch pays more or fewer page
    /// faults by the luck of that one race (see the README's traps).
    /// Allocated from here, they pin nothing the workers use.
    pub fn set_up(workload: Workload, seed: u64) -> Result<Offline, String> {
        let plan = workload.plan();
        let model = Model::build(&plan, seed)?;
        let exec = Executor::shipped();
        let batch = Batch::random(sub_seed(seed, SALT_INPUT), &plan.batch_shape(OFFLINE_BATCH));
        model.infer(&batch.sample(0))?;
        let first = call_from_fresh_thread(|| exec.run(&model, &batch))?;
        Ok(Offline {
            model,
            exec,
            batch,
            first,
        })
    }

    /// One op: the executor run on the workload's batch.
    pub fn run_batch(&self) -> Result<Batch, String> {
        call_from_fresh_thread(|| self.exec.run(&self.model, &self.batch))
    }

    /// The set-up check; returns the reference every timed batch must
    /// equal — the per-sample `infer_tensor` results, concatenated — and
    /// the twin's relative RMSE against it.
    pub fn check(&self, workload: Workload, seed: u64) -> Result<(Batch, f64), String> {
        let per_sample = (0..self.batch.len())
            .map(|i| self.model.infer(&self.batch.sample(i)))
            .collect::<Result<Vec<_>, _>>()?;
        let reference = Batch::concat(&per_sample);
        if !check::same_bits(reference.data(), self.first.data()) {
            return Err("executor output differs from the per-sample infer_tensor loop".into());
        }
        let twin_rmse = twin_check(workload, seed, &self.batch, &reference)?;
        Ok((reference, twin_rmse))
    }
}

/// Builds the workload's same-seed twin, runs it on `probe` and holds its
/// logits against `reference`. The twin is dropped on return.
fn twin_check(
    workload: Workload,
    seed: u64,
    probe: &Batch,
    reference: &Batch,
) -> Result<f64, String> {
    let Some((plan, bound)) = workload.twin() else {
        return Ok(0.0);
    };
    let mut twin = Model::build(&plan, seed)?;
    if plan.numerics != Numerics::F32 {
        twin.warm_observers(sub_seed(seed, SALT_WARM));
    }
    let got = Executor::shipped().run(&twin, probe)?;
    check::within(
        "same-seed twin built with the other algorithm",
        reference.data(),
        got.data(),
        bound,
    )
}

fn offline(args: &RunArgs) -> Result<Measured, String> {
    let (state, setup_s) =
        timed_setups(args.setups(), || Offline::set_up(args.workload, args.seed))?;
    let (reference, twin_rmse) = state.check(args.workload, args.seed)?;
    let op = |state: &Offline| match state.run_batch() {
        Ok(out) => check::same_bits(reference.data(), out.data()),
        Err(_) => false,
    };
    closed_loop(args.warmup(), || op(&state));
    let ((latencies, failed), window) = measure(|| closed_loop(args.seconds, || op(&state)));
    drop(state);
    let peak_heap_mb = heap_phase(
        || Offline::set_up(args.workload, args.seed),
        |state| closed_loop_heap_peak(args.heap_window(), || op(state)),
    )?;
    let around = Around {
        setup_s,
        peak_heap_mb,
    };
    let mut result = closed_loop_result(&latencies, failed, OFFLINE_BATCH, &around, &window);
    result.notes.push(("twin_rel_rmse", twin_rmse));
    Ok(result)
}

// ---- training ---------------------------------------------------------

pub fn train_set_up(workload: Workload, seed: u64) -> Result<(Trainer, f64), String> {
    let model = Model::build(&workload.plan(), seed)?;
    let mut trainer = Trainer::new(model, sub_seed(seed, SALT_DATA), TRAIN_BATCHES, TRAIN_BATCH);
    let first_loss = trainer.step(0);
    Ok((trainer, first_loss))
}

fn train(args: &RunArgs) -> Result<Measured, String> {
    let ((mut trainer, first_loss), setup_s) =
        timed_setups(args.setups(), || train_set_up(args.workload, args.seed))?;
    if !first_loss.is_finite() {
        return Err(format!("the first training loss is {first_loss}"));
    }
    // every loss of this trainer, set-up and warm-up steps included: the
    // trend is tested from the first step
    let mut losses = vec![first_loss];
    let step = |trainer: &mut Trainer, losses: &mut Vec<f64>| {
        let loss = trainer.step(losses.len());
        losses.push(loss);
        loss.is_finite()
    };
    closed_loop(args.warmup(), || step(&mut trainer, &mut losses));
    let ((latencies, mut failed), window) =
        measure(|| closed_loop(args.seconds, || step(&mut trainer, &mut losses)));
    drop(trainer);
    let peak_heap_mb = heap_phase(
        || train_set_up(args.workload, args.seed),
        |(trainer, first_loss)| {
            let mut losses = vec![*first_loss];
            closed_loop_heap_peak(args.heap_window(), || step(trainer, &mut losses))
        },
    )?;
    let around = Around {
        setup_s,
        peak_heap_mb,
    };
    let trend = check::losses_fall(&losses);
    if let Err(why) = &trend {
        // a run whose losses do not fall has no correct op to report
        eprintln!("train check failed: {why}");
        failed = latencies.len() as u64;
    }
    let mut result = closed_loop_result(&latencies, failed, TRAIN_BATCH, &around, &window);
    let side = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let n = losses.len().min(10);
    result.notes.push(("steps_total", losses.len() as f64));
    result.notes.push(("loss_first10", side(&losses[..n])));
    result
        .notes
        .push(("loss_last10", side(&losses[losses.len() - n..])));
    Ok(result)
}

// ---- serving ----------------------------------------------------------

/// Where the benchmark writes: checkpoints for path loads, traces,
/// records. Relative to the checkout root the driver runs from.
pub const OUT_DIR: &str = "benchmark/out";

/// A booted server with its models loaded, plus the generator's side of
/// the traffic: request bodies and the model each addresses.
pub struct Served {
    pub server: ServerProc,
    /// `POST /v1/infer` bodies; request `i` sends `bodies[i % len]`.
    pub bodies: Vec<String>,
    /// Request inputs, index-aligned with `bodies`.
    pub inputs: Vec<Batch>,
    /// Index of the model each body addresses (`m<index>` on the wire).
    pub targets: Vec<usize>,
    /// Sum of `resident_bytes` over the load replies.
    pub resident_bytes: f64,
}

fn post_ok(client: &mut Client, path: &str, body: &str) -> Result<Json, String> {
    let reply = client
        .post(path, body)
        .map_err(|e| format!("POST {path}: {e}"))?;
    let doc = Json::parse(&reply.body).map_err(|e| format!("POST {path}: {e}"))?;
    if reply.status != 200 || doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "POST {path} answered {}: {}",
            reply.status, reply.body
        ));
    }
    Ok(doc)
}

impl Served {
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.server.http_addr(), REQUEST_TIMEOUT)
            .map_err(|e| format!("connecting to the server: {e}"))
    }

    /// `POST /v1/models/load` with `checkpoint` as the JSON value of the
    /// `checkpoint` field: a path string or an inline document.
    fn load(&mut self, client: &mut Client, model: usize, checkpoint: &str) -> Result<(), String> {
        let body = format!("{{\"name\":\"m{model}\",\"checkpoint\":{checkpoint}}}");
        let doc = post_ok(client, "/v1/models/load", &body)?;
        self.resident_bytes += doc
            .get("resident_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        Ok(())
    }

    /// One open-loop schedule of `seconds` at `rate`; a reply is correct
    /// when its logits equal `expected[i % len]` bit for bit.
    pub fn drive(&self, rate: f64, seconds: f64, expected: &[Vec<f32>]) -> LoadRun {
        Schedule {
            addr: self.server.http_addr(),
            rate,
            total: (rate * seconds).ceil().max(1.0) as usize,
            connections: host::generator_threads(),
            timeout: REQUEST_TIMEOUT,
        }
        .run(&|i| &self.bodies[i % self.bodies.len()], &|i, reply| {
            wire::reply_logits(&reply.body)
                .is_some_and(|got| check::same_bits(&expected[i % expected.len()], &got))
        })
    }
}

/// A serving workload, set up: the server, the generator's copies of the
/// models it serves, and the logits of the first (cold) request.
pub struct Serving {
    pub served: Served,
    pub models: Vec<Model>,
    pub first: Vec<f32>,
}

impl Workload {
    /// Whether the workload drives the server.
    pub fn is_serve(self) -> bool {
        matches!(
            self,
            Workload::ServeInt8Im2row | Workload::ServeInt8F4 | Workload::ServeFleetLenet
        )
    }

    /// Whether the workload serves the fleet of LeNets.
    pub fn is_fleet(self) -> bool {
        self == Workload::ServeFleetLenet
    }

    /// Open-loop rate of a serving workload, requests per second.
    pub fn rate(self) -> f64 {
        if self.is_fleet() {
            FLEET_RATE
        } else {
            SERVE_RATE
        }
    }

    /// Seed of the workload's model `m`.
    fn model_seed(self, seed: u64, m: usize) -> u64 {
        if self.is_fleet() {
            sub_seed(seed, SALT_FLEET + m as u64)
        } else {
            seed
        }
    }
}

impl Serving {
    /// Set-up of a serving workload: models from spec and seed (INT8
    /// ones with observers warmed by one training forward), server boot,
    /// loads, first request. The INT8 ResNet is written as a binary
    /// container and loaded **by path**; the fleet's 16 LeNets are loaded
    /// from **inline JSON checkpoints**.
    pub fn set_up(workload: Workload, seed: u64) -> Result<Serving, String> {
        let plan = workload.plan();
        let count = if workload.is_fleet() { FLEET_MODELS } else { 1 };
        let mut models = (0..count)
            .map(|m| {
                let mut model = Model::build(&plan, workload.model_seed(seed, m))?;
                if plan.numerics != Numerics::F32 {
                    model.warm_observers(sub_seed(seed, SALT_WARM));
                }
                Ok(model)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let inputs: Vec<Batch> = (0..INPUT_POOL)
            .map(|i| {
                Batch::random(
                    sub_seed(seed, SALT_INPUT + 1000 * i as u64),
                    &plan.batch_shape(1),
                )
            })
            .collect();
        // request i goes to model (7i) mod 16 with input i mod 64; 64 is
        // a multiple of 16, so body j always meets model (7j) mod 16
        let targets: Vec<usize> = (0..INPUT_POOL).map(|j| j * FLEET_STRIDE % count).collect();
        let bodies = inputs
            .iter()
            .zip(&targets)
            .map(|(x, t)| {
                let input = wire::tensor_json(x.shape(), x.data());
                format!("{{\"model\":\"m{t}\",\"input\":{input}}}")
            })
            .collect();
        let mut served = Served {
            server: ServerProc::boot()?,
            bodies,
            inputs,
            targets,
            resident_bytes: 0.0,
        };
        let mut client = served.connect()?;
        for (m, model) in models.iter_mut().enumerate() {
            if workload.is_fleet() {
                served.load(&mut client, m, &model.checkpoint_json()?)?;
            } else {
                std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
                let path = format!("{OUT_DIR}/{}-{seed}.wack", workload.name());
                std::fs::write(&path, model.checkpoint_binary()?)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                served.load(
                    &mut client,
                    m,
                    &Json::from(path.as_str()).to_string_compact(),
                )?;
                let _ = std::fs::remove_file(&path);
            }
        }
        let reply = client
            .post("/v1/infer", &served.bodies[0])
            .map_err(|e| format!("first request: {e}"))?;
        let first = wire::reply_logits(&reply.body)
            .ok_or_else(|| format!("first request answered {}", reply.body))?;
        Ok(Serving {
            served,
            models,
            first,
        })
    }

    /// The set-up check. Returns the logits every reply must equal — from
    /// in-process `infer_tensor` on the generator's copies, one per
    /// pooled input — and model 0's relative RMSE against its twin.
    pub fn check(&self, workload: Workload, seed: u64) -> Result<(Vec<Vec<f32>>, f64), String> {
        let served = &self.served;
        let expected = served
            .inputs
            .iter()
            .zip(&served.targets)
            .map(|(x, &target)| self.models[target].infer(x).map(|y| y.data().to_vec()))
            .collect::<Result<Vec<_>, _>>()?;
        if !check::same_bits(&expected[0], &self.first) {
            return Err("the first reply differs from in-process infer_tensor".into());
        }
        let probe = &served.inputs[..16];
        let reference = probe
            .iter()
            .map(|x| self.models[0].infer(x))
            .collect::<Result<Vec<_>, _>>()?;
        let twin_rmse = twin_check(
            workload,
            workload.model_seed(seed, 0),
            &Batch::concat(probe),
            &Batch::concat(&reference),
        )?;
        Ok((expected, twin_rmse))
    }
}

/// Turns an open-loop window into the end-to-end metrics.
fn open_loop_result(run: &LoadRun, around: &Around, window: &Window) -> Measured {
    let count = |o: Outcome| run.samples.iter().filter(|s| s.outcome == o).count() as f64;
    let correct = count(Outcome::Correct);
    // an op that failed or was refused misses every latency limit: it
    // stays in the sample at the client-side timeout, never dropped
    let latencies: Vec<f64> = run
        .samples
        .iter()
        .map(|s| match s.outcome {
            Outcome::Correct | Outcome::Wrong => s.latency_us() as f64 / 1e3,
            Outcome::Refused | Outcome::Failed => {
                (s.latency_us() as f64 / 1e3).max(REQUEST_TIMEOUT.as_secs_f64() * 1e3)
            }
        })
        .collect();
    let ops = Ops {
        latencies_ms: &latencies,
        failed: run.samples.len() as u64 - correct as u64,
        samples_per_s: correct / run.elapsed.as_secs_f64(),
        samples_done: correct,
    };
    let mut result = end_to_end(&ops, around, window);
    let late: Vec<f64> = run.samples.iter().map(|s| s.late_us() as f64).collect();
    let late = stats::sorted(&late);
    result.notes.extend([
        ("wrong_output", count(Outcome::Wrong)),
        ("refused", count(Outcome::Refused)),
        ("transport_failed", count(Outcome::Failed)),
        ("generator_late_p50_us", stats::percentile(&late, 0.5)),
        ("generator_late_p99_us", stats::percentile(&late, 0.99)),
    ]);
    result
}

fn serve(args: &RunArgs) -> Result<Measured, String> {
    let (mut serving, setup_s) =
        timed_setups(args.setups(), || Serving::set_up(args.workload, args.seed))?;
    let (expected, twin_rmse) = serving.check(args.workload, args.seed)?;
    // the window measures the server, not the oracle's copies
    serving.models.clear();
    let (served, rate) = (&mut serving.served, args.workload.rate());
    served.drive(rate, args.warmup(), &expected);
    let (run, window) = measure(|| served.drive(rate, args.seconds, &expected));
    served.server.stop()?;
    drop(serving);
    let peak_heap_mb = heap_phase(
        || {
            let mut serving = Serving::set_up(args.workload, args.seed)?;
            serving.models.clear();
            Ok(serving)
        },
        |serving| {
            // requests overlap, so the peak is that of the whole phase
            trace::reset_peak();
            serving.served.drive(rate, args.heap_window(), &expected);
            trace::peak_live_bytes() as f64
        },
    )?;
    let around = Around {
        setup_s,
        peak_heap_mb,
    };
    let mut result = open_loop_result(&run, &around, &window);
    result.notes.push(("twin_rel_rmse", twin_rmse));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::PER_LAYER;

    #[test]
    fn every_per_layer_metric_applies_somewhere_and_only_where_it_can() {
        for def in &PER_LAYER {
            // `nn.executor_scaling` applies nowhere on a one-core host
            let somewhere = Workload::ALL.into_iter().any(|w| w.measures(def.name));
            assert!(
                somewhere || def.name == "nn.executor_scaling",
                "{} applies to no workload",
                def.name
            );
        }
        let applies = |w: Workload, name: &str| {
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            w.measures(name)
        };
        use Workload::*;
        assert!(!applies(OfflineF32Im2row, "winograd.input_transform_us"));
        assert!(!applies(OfflineF32Im2row, "core.f4_speedup_measured"));
        assert!(
            applies(OfflineF32F4, "tensor.im2row_us"),
            "the stem is im2row"
        );
        assert!(!applies(OfflineF32F4, "tensor.gemm_i8_us"));
        assert!(!applies(OfflineF32F4, "serve.http_us"));
        assert!(applies(ServeInt8F4, "obs.stage_share.int8.winograd_gemm"));
        assert!(!applies(
            ServeInt8Im2row,
            "obs.stage_share.int8.winograd_gemm"
        ));
        assert!(!applies(ServeInt8F4, "tensor.gemm_us"));
        assert!(!applies(ServeFleetLenet, "tensor.im2row_us"));
        assert!(!applies(ServeFleetLenet, "core.conv_us.s2"));
        assert!(applies(ServeFleetLenet, "serve.generator_late_p99_us"));
        assert!(applies(TrainInt8F4Flex, "quant.fake_quant_us"));
        assert!(!applies(TrainInt8F4Flex, "nn.executor_us"));
        assert!(!applies(TrainInt8F4Flex, "nn.executor_scaling"));
        for w in Workload::ALL {
            assert!(applies(w, "bench.trace_overhead_share"));
            assert!(applies(w, "tensor.gemm_peak_gflops"));
        }
    }
}
