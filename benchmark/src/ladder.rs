//! Traced runs: the layer ladder.
//!
//! The program has no tracing hooks yet, so per-layer numbers come from
//! calling successively lower public entry points on the workload's own
//! model and input, one after the other, each call wrapped in a
//! bench-owned span:
//!
//! ```text
//! serve.http → serve.scheduler → nn.executor → models.infer → core.conv → kernels
//! ```
//!
//! The rung below is the only child of the rung above, so a rung's self
//! time is its median minus the median of the rung below, and the self
//! times sum to the top rung by construction. One ladder pass runs every
//! rung once (an *iteration*), so drift hits all rungs alike.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check;
use crate::host;
use crate::http::Client;
use crate::loadgen::{LoadRun, Outcome};
use crate::names::PER_LAYER;
use crate::scrape;
use crate::stats;
use crate::surface::{
    self, Batch, ConvCase, ConvRung, Executor, Mark, Model, PeakGemm, SchedulerRung, StageKernels,
};
use crate::trace::{self, Tracer};
use crate::wire;
use crate::workloads::{
    self, Measured, Offline, RunArgs, Serving, Workload, OFFLINE_BATCH, OUT_DIR, TRAIN_BATCH,
};

/// Span names of the conv rung's children, by `ConvCase::stage`.
const CONV_STAGE_SPANS: [&str; 5] = [
    "core.conv.stem",
    "core.conv.s1",
    "core.conv.s2",
    "core.conv.s3",
    "core.conv.s4",
];

/// Kernel-rung span names and the per-layer metric each feeds.
const KERNEL_METRICS: [(&str, &str); 8] = [
    ("tensor.im2row", "tensor.im2row_us"),
    ("tensor.gemm", "tensor.gemm_us"),
    ("tensor.gemm_i8", "tensor.gemm_i8_us"),
    ("winograd.input_transform", "winograd.input_transform_us"),
    ("winograd.output_transform", "winograd.output_transform_us"),
    ("quant.quantize", "quant.quantize_us"),
    ("quant.requantize", "quant.requantize_us"),
    ("quant.fake_quant", "quant.fake_quant_us"),
];

/// Repetitions of the one-off measurements.
const SHORT_REPS: usize = 5;
/// Pairs an A/B takes at least and at most; in between, its time budget
/// (a tenth of the window) decides.
const AB_PAIRS: std::ops::RangeInclusive<usize> = 3..=30;

/// The two lowest rungs of a workload: its conv layers, standalone, and
/// the stage kernels of each.
struct LowerRungs {
    convs: Vec<(ConvCase, ConvRung)>,
    kernels: Vec<StageKernels>,
}

/// The state of one traced run.
struct Ladder {
    args: RunArgs,
    tracer: Tracer,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// Median of `reps` timings of `f`, in microseconds.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// Interleaved A/B: timings of `f(true)` and `f(false)` in alternation,
/// so drift cancels, for `budget_s` seconds within [`AB_PAIRS`]; returns
/// `median(true)/median(false) − 1`.
fn ab_share(budget_s: f64, mut f: impl FnMut(bool)) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let began = Instant::now();
    while on.len() < *AB_PAIRS.start()
        || (on.len() < *AB_PAIRS.end() && began.elapsed().as_secs_f64() < budget_s)
    {
        for arm in [true, false] {
            let t = Instant::now();
            f(arm);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if arm { &mut on } else { &mut off }.push(us);
        }
    }
    stats::median(&on) / stats::median(&off) - 1.0
}

impl Ladder {
    fn new(args: &RunArgs) -> Ladder {
        Ladder {
            args: *args,
            tracer: Tracer::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a measured metric. What is never set is reported as not
    /// measured, and the run is incorrect if it applies to the workload.
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        self.values.insert(name, value);
    }

    /// Median of the rung `span`, in microseconds; NaN — which makes the
    /// run incorrect — if the rung was never recorded.
    fn rung_us(&self, span: &str) -> f64 {
        self.tracer.median_us(span).unwrap_or(f64::NAN)
    }

    /// Sets `metric` to the median of `span` if the run entered it.
    fn set_from_span(&mut self, metric: &'static str, span: &str) {
        if let Some(us) = self.tracer.median_us(span) {
            self.set(metric, us);
        }
    }

    /// Ladder passes: at least 30 once the window is 12 s or longer.
    fn reps(&self) -> usize {
        ((self.args.seconds * 2.5) as usize).clamp(3, 40)
    }

    /// Time one A/B measurement may take.
    fn ab_budget(&self) -> f64 {
        self.args.seconds / 10.0
    }

    /// Counts one checked op.
    fn checked(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }

    fn record_marks(&mut self, marks: &[Mark], parent: &'static str, iteration: u64) {
        for &(name, start, end) in marks {
            self.tracer
                .record(name, Some(parent), iteration, start, end);
        }
    }

    /// The two lowest rungs of one ladder pass: every conv layer once,
    /// then every stage kernel once.
    fn conv_rungs(&mut self, iteration: u64, parent: &'static str, lower: &LowerRungs) {
        let LowerRungs { convs, kernels } = lower;
        let mut conv_marks: Vec<Mark> = Vec::with_capacity(convs.len());
        let (ok, _) = self.tracer.time("core.conv", Some(parent), iteration, || {
            convs.iter().all(|(case, rung)| {
                let start = Instant::now();
                let ok = rung.run().is_ok();
                conv_marks.push((CONV_STAGE_SPANS[case.stage], start, Instant::now()));
                ok
            })
        });
        self.checked(ok);
        self.record_marks(&conv_marks, "core.conv", iteration);
        let mut marks = Vec::new();
        self.tracer
            .time("kernels", Some("core.conv"), iteration, || {
                for k in kernels {
                    k.run(&mut marks);
                }
            });
        self.record_marks(&marks, "kernels", iteration);
    }

    /// Turns the recorded conv and kernel spans into metrics.
    fn conv_metrics(&mut self, kernels: &[StageKernels]) {
        let conv = self.rung_us("core.conv");
        self.set("core.conv_us", conv);
        self.set("core.conv_self_us", conv - self.rung_us("kernels"));
        for (span, metric) in CONV_STAGE_SPANS.into_iter().zip([
            "core.conv_us.stem",
            "core.conv_us.s1",
            "core.conv_us.s2",
            "core.conv_us.s3",
            "core.conv_us.s4",
        ]) {
            self.set_from_span(metric, span);
        }
        for (span, metric) in KERNEL_METRICS {
            self.set_from_span(metric, span);
        }
        // a GEMM is 2 operations per multiply-accumulate
        let ops = |int8: bool| -> f64 {
            kernels
                .iter()
                .filter(|k| k.is_int8() == int8)
                .map(|k| 2.0 * k.gemm_macs())
                .sum()
        };
        for (int8, time, rate) in [
            (false, "tensor.gemm_us", "tensor.gemm_gflops"),
            (true, "tensor.gemm_i8_us", "tensor.gemm_i8_gops"),
        ] {
            if let Some(us) = self.values.get(time).copied() {
                self.set(rate, ops(int8) / (us * 1e3));
            }
        }
        if kernels.iter().any(StageKernels::is_winograd) {
            let filter: f64 = kernels
                .iter()
                .filter(|k| k.is_winograd())
                .map(|k| median_us(3, || k.filter_transform()))
                .sum();
            self.set("winograd.filter_transform_us", filter);
        }
    }

    /// Facts computed from the layer shapes alone, and the measured
    /// counterpart of the predicted speed-up.
    fn conv_facts(&mut self, cases: &[ConvCase], batch: usize) -> Result<(), String> {
        if !cases.iter().any(ConvCase::is_winograd) {
            // every layer is im2row: there is no Winograd to hold against it
            return Ok(());
        }
        let (useful, computed) = cases
            .iter()
            .map(ConvCase::output_pixels)
            .fold((0, 0), |(u, c), (du, dc)| (u + du, c + dc));
        self.set(
            "winograd.tile_useful_share",
            useful as f64 / computed as f64,
        );
        self.set(
            "latency.f4_speedup_predicted",
            surface::predicted_speedup(cases),
        );
        let swappable: Vec<&ConvCase> = cases.iter().filter(|c| c.swappable).collect();
        let seed = self.args.seed;
        let build = |cs: Vec<ConvCase>| -> Result<Vec<ConvRung>, String> {
            cs.iter().map(|c| c.build(seed, batch)).collect()
        };
        let configured = build(swappable.iter().map(|c| **c).collect())?;
        let im2row = build(swappable.iter().map(|c| c.as_im2row()).collect())?;
        let run_all = |rungs: &[ConvRung]| rungs.iter().for_each(|r| drop(r.run()));
        run_all(&im2row);
        let share = ab_share(self.ab_budget(), |arm| {
            run_all(if arm { &im2row } else { &configured })
        });
        self.set("core.f4_speedup_measured", share + 1.0);
        Ok(())
    }

    /// Shares of the program's own stage spans in the wall time of
    /// `reps` calls of `op`, and the copy-on-write bytes they detached.
    fn stage_shares(&mut self, reps: usize, mut op: impl FnMut()) {
        // `obs.stage_share.<stage>`, one per stage kind on the workload's path
        let workload = self.args.workload;
        let stages: Vec<(&'static str, &'static str)> = PER_LAYER
            .iter()
            .filter(|d| workload.measures(d.name))
            .filter_map(|d| Some((d.name, d.name.strip_prefix("obs.stage_share.")?)))
            .collect();
        let before: Vec<u64> = stages
            .iter()
            .map(|(_, stage)| surface::stage_sum_us(stage))
            .collect();
        let detached = surface::cow_detach_bytes();
        let t = Instant::now();
        for _ in 0..reps {
            op();
        }
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        self.set(
            "tensor.cow_detach_bytes",
            (surface::cow_detach_bytes() - detached) as f64 / reps as f64,
        );
        for ((metric, stage), before) in stages.into_iter().zip(before) {
            self.set(
                metric,
                (surface::stage_sum_us(stage) - before) as f64 / wall_us,
            );
        }
    }

    /// Allocations and bytes per sample over `reps` calls of `op`, and
    /// the cost of tracing itself: `op` timed with the bench's spans and
    /// allocation counter on against off.
    fn op_overheads(&mut self, samples_per_op: usize, mut op: impl FnMut(&mut Tracer, u64)) {
        let reps = 3;
        let mut scratch = Tracer::new();
        let (allocs0, bytes0) = trace::allocation_counts();
        trace::arm_allocator(true);
        for i in 0..reps {
            op(&mut scratch, i as u64);
        }
        trace::arm_allocator(false);
        let (allocs, bytes) = trace::allocation_counts();
        let per_sample = (reps * samples_per_op) as f64;
        self.set(
            "nn.allocs_per_sample",
            (allocs - allocs0) as f64 / per_sample,
        );
        self.set(
            "nn.alloc_bytes_per_sample",
            (bytes - bytes0) as f64 / per_sample,
        );
        let share = ab_share(self.ab_budget(), |traced| {
            scratch.set_armed(traced);
            trace::arm_allocator(traced);
            op(&mut scratch, 0);
        });
        trace::arm_allocator(false);
        self.set("bench.trace_overhead_share", share);
    }

    /// The program's stage spans on against off, on `op`.
    fn spans_overhead(&mut self, mut op: impl FnMut()) {
        let share = ab_share(self.ab_budget(), |spans_on| {
            surface::set_spans_enabled(spans_on);
            op();
        });
        surface::set_spans_enabled(true);
        self.set("obs.spans_overhead_share", share);
    }

    /// Default executor threads against one thread, at the offline batch.
    /// Not measured on a one-core host: both arms would run one worker.
    fn executor_scaling(&mut self, model: &Model) -> Result<(), String> {
        if host::nproc() == 1 {
            return Ok(());
        }
        let batch = Batch::random(self.args.seed, &model.plan().batch_shape(OFFLINE_BATCH));
        let (shipped, single) = (Executor::shipped(), Executor::single_thread());
        shipped.run(model, &batch)?;
        let share = ab_share(self.ab_budget(), |one_thread| {
            let exec = if one_thread { &single } else { &shipped };
            drop(exec.run(model, &batch));
        });
        self.set("nn.executor_scaling", share + 1.0);
        Ok(())
    }

    /// A roofline denominator is the best the host was seen to do, so
    /// this one is the fastest of several runs, not their median.
    fn peak_gemm(&mut self) {
        let gemm = PeakGemm::prepare(self.args.seed);
        let best_us = (0..2 * SHORT_REPS)
            .map(|_| median_us(1, || gemm.run()))
            .fold(f64::INFINITY, f64::min);
        let flops = 2.0 * (PeakGemm::SIDE as f64).powi(3);
        self.set("tensor.gemm_peak_gflops", flops / (best_us * 1e3));
    }

    fn build_time(&mut self) {
        let (plan, seed) = (self.args.workload.plan(), self.args.seed);
        let us = median_us(3, || Model::build(&plan, seed));
        self.set("models.build_us", us);
    }

    /// The inference ladder: `reps` passes over every rung, each output
    /// held against `reference`.
    fn inference_ladder(
        &mut self,
        http: Option<(&mut Client, &str)>,
        scheduler: Option<&SchedulerRung>,
        model: &Model,
        sample: &Batch,
        reference: &[f32],
        lower: &LowerRungs,
    ) {
        let exec = Executor::shipped();
        let mut http = http;
        let matches =
            |y: Result<Batch, String>| y.is_ok_and(|y| check::same_bits(reference, y.data()));
        for iteration in 0..self.reps() as u64 {
            let mut parent = None;
            if let Some((client, body)) = http.as_mut() {
                let (reply, _) = self.tracer.time("serve.http", parent, iteration, || {
                    client.post("/v1/infer", body)
                });
                let logits = reply.ok().and_then(|r| wire::reply_logits(&r.body));
                self.checked(logits.is_some_and(|got| check::same_bits(reference, &got)));
                parent = Some("serve.http");
            }
            if let Some(rung) = scheduler {
                let (y, _) = self
                    .tracer
                    .time("serve.scheduler", parent, iteration, || rung.infer(sample));
                self.checked(matches(y));
                parent = Some("serve.scheduler");
            }
            let (y, _) = self
                .tracer
                .time("nn.executor", parent, iteration, || exec.run(model, sample));
            self.checked(matches(y));
            let (y, _) = self
                .tracer
                .time("models.infer", Some("nn.executor"), iteration, || {
                    model.infer(sample)
                });
            self.checked(matches(y));
            self.conv_rungs(iteration, "models.infer", lower);
        }
        let (exec_us, infer_us) = (self.rung_us("nn.executor"), self.rung_us("models.infer"));
        if http.is_some() {
            let (http_us, sched_us) = (self.rung_us("serve.http"), self.rung_us("serve.scheduler"));
            self.set("serve.http_us", http_us);
            self.set("serve.edge_self_us", http_us - sched_us);
            self.set("serve.scheduler_us", sched_us);
            self.set("serve.scheduler_self_us", sched_us - exec_us);
        }
        self.set("nn.executor_us", exec_us);
        self.set("nn.executor_self_us", exec_us - infer_us);
        self.set("models.infer_us", infer_us);
        self.set("models.glue_self_us", infer_us - self.rung_us("core.conv"));
        self.conv_metrics(&lower.kernels);
    }

    /// Everything below the model for one workload: conv layers and
    /// stage kernels at `batch` samples.
    fn lower_rungs(&mut self, batch: usize) -> Result<LowerRungs, String> {
        let cases = surface::conv_cases(&self.args.workload.plan());
        self.conv_facts(&cases, batch)?;
        let seed = self.args.seed;
        let convs = cases
            .iter()
            .map(|c| Ok((*c, c.build(seed, batch)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let kernels = cases
            .iter()
            .map(|c| StageKernels::prepare(c, seed, batch))
            .collect();
        Ok(LowerRungs { convs, kernels })
    }

    // ---- the workloads ------------------------------------------------

    fn offline(&mut self) -> Result<(), String> {
        let (workload, seed) = (self.args.workload, self.args.seed);
        let state = Offline::set_up(workload, seed)?;
        state.check(workload, seed)?;
        let sample = state.batch.sample(0);
        let want = state.model.infer(&sample)?;
        let lower = self.lower_rungs(1)?;
        self.inference_ladder(None, None, &state.model, &sample, want.data(), &lower);
        // the workload's own op, for the overheads: one executor batch
        self.op_overheads(OFFLINE_BATCH, |tracer, i| {
            let (out, _) = tracer.time("nn.executor.batch", None, i, || state.run_batch());
            drop(out);
        });
        self.spans_overhead(|| drop(state.model.infer(&sample)));
        self.stage_shares(self.reps(), || drop(state.model.infer(&sample)));
        self.executor_scaling(&state.model)
    }

    /// The serving workloads: the full ladder, then the workload's own
    /// traffic, traced.
    fn serve(&mut self) -> Result<(), String> {
        let (workload, seed) = (self.args.workload, self.args.seed);
        let mut serving = Serving::set_up(workload, seed)?;
        let (expected, _) = serving.check(workload, seed)?;
        let Serving { served, models, .. } = &mut serving;
        let model = &mut models[0];

        let decode_us = if workload.is_fleet() {
            let text = model.checkpoint_json()?;
            median_us(3, || surface::decode_json(&text))
        } else {
            let bytes = model.checkpoint_binary()?;
            median_us(3, || surface::decode_binary(&bytes))
        };
        self.set("nn.checkpoint_decode_us", decode_us);
        let doc = model.checkpoint()?;
        self.set(
            "serve.registry_load_us",
            median_us(3, || surface::registry_load(&doc)),
        );
        self.set(
            "serve.resident_mb",
            served.resident_bytes / (1 << 20) as f64,
        );
        let (sample, body) = (served.inputs[0].clone(), served.bodies[0].clone());
        let logits = model.infer(&sample)?;
        self.set(
            "tensor.json_decode_us",
            median_us(SHORT_REPS, || surface::json_decode_request(&body)),
        );
        self.set(
            "tensor.json_encode_us",
            median_us(SHORT_REPS, || surface::json_encode_reply(&logits)),
        );

        let rung = SchedulerRung::load(&doc)?;
        let mut client = served.connect()?;
        let lower = self.lower_rungs(1)?;
        self.inference_ladder(
            Some((&mut client, &body)),
            Some(&rung),
            model,
            &sample,
            &expected[0],
            &lower,
        );
        drop(rung);
        self.op_overheads(1, |tracer, i| {
            let (reply, _) = tracer.time("serve.http.idle", None, i, || {
                client.post("/v1/infer", &body)
            });
            drop(reply);
        });
        self.spans_overhead(|| drop(model.infer(&sample)));
        self.stage_shares(self.reps(), || drop(model.infer(&sample)));
        self.executor_scaling(model)?;

        // the workload's own traffic, traced: half a window, after a
        // warm-up (the first requests after the ladder are slow)
        let scrape = |client: &mut Client| -> Result<String, String> {
            client
                .get("/v1/metrics")
                .map(|r| r.body)
                .map_err(|e| format!("GET /v1/metrics: {e}"))
        };
        served.drive(workload.rate(), self.args.warmup() / 2.0, &expected);
        let before = scrape(&mut client)?;
        let run = served.drive(workload.rate(), self.args.seconds / 2.0, &expected);
        let after = scrape(&mut client)?;
        self.load_metrics(&run, &before, &after);
        served.server.stop()
    }

    /// Metrics of the traced traffic window: the generator's own samples
    /// and the server's scheduler histograms between the two scrapes.
    fn load_metrics(&mut self, run: &LoadRun, before: &str, after: &str) {
        let at = |us: u64| run.started + std::time::Duration::from_micros(us);
        for s in &run.samples {
            let i = s.index as u64;
            let (due, sent, done) = (at(s.due_us), at(s.sent_us), at(s.done_us));
            self.tracer.record("load.request", None, i, due, done);
            self.tracer
                .record("load.wait", Some("load.request"), i, due, sent);
            self.tracer
                .record("load.http", Some("load.request"), i, sent, done);
            self.checked(s.outcome == Outcome::Correct);
        }
        let sorted = |f: &dyn Fn(&crate::loadgen::Sample) -> f64| {
            stats::sorted(&run.samples.iter().map(f).collect::<Vec<_>>())
        };
        self.set(
            "serve.latency_p99_ms",
            stats::percentile(&sorted(&|s| s.latency_us() as f64 / 1e3), 0.99),
        );
        self.set(
            "serve.generator_late_p99_us",
            stats::percentile(&sorted(&|s| s.late_us() as f64), 0.99),
        );
        self.set(
            "serve.refused",
            run.samples
                .iter()
                .filter(|s| s.outcome == Outcome::Refused)
                .count() as f64,
        );
        let window =
            |name: &str| scrape::histogram(after, name).since(&scrape::histogram(before, name));
        self.set(
            "serve.queue_wait_p50_us",
            window("wa_scheduler_queue_wait_microseconds").quantile(0.5),
        );
        self.set(
            "serve.batch_size_mean",
            window("wa_scheduler_batch_size_samples").mean(),
        );
        self.set(
            "serve.batch_duration_p50_us",
            window("wa_scheduler_batch_duration_microseconds").quantile(0.5),
        );
    }

    fn train(&mut self) -> Result<(), String> {
        let (workload, seed) = (self.args.workload, self.args.seed);
        let (mut trainer, first_loss) = workloads::train_set_up(workload, seed)?;
        let mut losses = vec![first_loss];
        let lower = self.lower_rungs(TRAIN_BATCH)?;
        for iteration in 0..self.reps() as u64 {
            // the program's own step, then the same step taken apart
            let (loss, _) = self.tracer.time("core.train_step", None, iteration, || {
                trainer.step(losses.len())
            });
            losses.push(loss);
            let mut marks = Vec::new();
            losses.push(trainer.step_in_parts(losses.len(), &mut marks));
            self.record_marks(&marks, "core.train_step", iteration);
            let images = trainer.images(losses.len());
            let (y, _) = self.tracer.time(
                "models.infer",
                Some("core.train_forward"),
                iteration,
                || trainer.model().infer(&images),
            );
            self.checked(y.is_ok_and(|y| y.data().iter().all(|v| v.is_finite())));
            self.conv_rungs(iteration, "models.infer", &lower);
        }
        self.set("core.train_forward_us", self.rung_us("core.train_forward"));
        self.set(
            "core.train_backward_us",
            self.rung_us("core.train_backward"),
        );
        self.set("nn.optimizer_us", self.rung_us("nn.optimizer"));
        let infer_us = self.rung_us("models.infer");
        self.set("models.infer_us", infer_us);
        self.set("models.glue_self_us", infer_us - self.rung_us("core.conv"));
        self.conv_metrics(&lower.kernels);
        self.notes
            .push(("train_step_us", self.rung_us("core.train_step")));

        let step = std::cell::RefCell::new((&mut trainer, &mut losses));
        let one_step = || {
            let (trainer, losses) = &mut *step.borrow_mut();
            let loss = trainer.step(losses.len());
            losses.push(loss);
        };
        self.op_overheads(TRAIN_BATCH, |tracer, i| {
            tracer.time("core.train_step.op", None, i, one_step);
        });
        self.spans_overhead(one_step);
        self.stage_shares(self.reps(), one_step);
        let finite = losses.iter().all(|l| l.is_finite());
        self.checked(finite);
        check::losses_fall(&losses)
    }

    fn finish(mut self) -> Result<Measured, String> {
        self.peak_gemm();
        self.build_time();
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.jsonl", self.args.workload.name());
        self.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        // what the two lowest rungs spend outside their named children
        for (note, span) in [
            ("core.conv_loop_self_us", "core.conv"),
            ("kernels_unnamed_self_us", "kernels"),
        ] {
            let self_us = self.tracer.self_time_us(span).unwrap_or(f64::NAN);
            self.notes.push((note, self_us));
        }
        self.notes.push(("spans", self.tracer.spans().len() as f64));
        self.notes.push(("ladder_passes", self.reps() as f64));
        self.notes.push(("nproc", host::nproc() as f64));
        Ok(Measured {
            attempted: self.attempted,
            failed: self.failed,
            metrics: PER_LAYER
                .iter()
                .map(|d| (d.name, self.values.get(d.name).copied()))
                .collect(),
            notes: self.notes,
        })
    }
}

/// Runs one workload's traced run and writes
/// `benchmark/out/trace-<workload>.jsonl`.
///
/// # Errors
///
/// A failed set-up or set-up check, as a message.
pub fn run(args: &RunArgs) -> Result<Measured, String> {
    let mut ladder = Ladder::new(args);
    match args.workload {
        Workload::OfflineF32Im2row | Workload::OfflineF32F4 => ladder.offline()?,
        Workload::ServeInt8Im2row | Workload::ServeInt8F4 | Workload::ServeFleetLenet => {
            ladder.serve()?
        }
        Workload::TrainInt8F4Flex => ladder.train()?,
    }
    ladder.finish()
}
