//! **Throughput**: batched-inference samples/sec vs worker thread count
//! for every model of the zoo, under direct (im2row) and Winograd F2
//! convolutions, plus a ResNet-18 F4 configuration.
//!
//! This is the serving-side companion of the latency tables: instead of
//! modeling one core's single-image latency, it measures what the
//! [`wa_models::BatchExecutor`] actually sustains on this machine when a
//! batch is sharded across `std::thread::scope` workers. Results are
//! appended to `results/throughput.json` as a [`wa_bench::BenchRecord`].
//!
//! The run doubles as a smoke test: every configuration must clear
//! 1 sample/sec, and the batched output must match the sequential
//! per-sample loop exactly. With `WA_ASSERT_SCALING=1` (set by CI) the
//! run additionally asserts that thread scaling is not *inverted* on the
//! ResNet-18 im2row and F4 rows — 2 workers must sustain at least 95% of
//! 1 worker — pinning the kernel-layer regression class where adding
//! threads used to *lose* throughput — and that the full-width f32
//! ResNet-18 under Winograd F4 sustains at least the samples/sec of its
//! im2row twin (the paper's headline, on this machine). (The executor
//! clamps its worker count to the machine's cores, so on a single-core
//! host every thread row runs one worker and the samples/sec columns
//! collapse to noise.)
//!
//! `WA_SPANS=0` turns the `wa_obs` stage spans off for the run — compare
//! against a default run to measure the instrumentation overhead itself.

use std::time::Instant;

use wa_bench::{BenchRecord, Scale};
use wa_core::ConvAlgo;
use wa_models::{ExecutorConfig, Infer, LeNet, ModelSpec, ResNeXt20, ResNet18, SqueezeNet};
use wa_nn::{Layer, QuantConfig, Tape};
use wa_quant::{BitWidth, Execution, TapPolicy};
use wa_tensor::{SeededRng, Tensor};

/// Times executor runs and returns samples/sec: one warm-up, then the
/// median of three timed runs, so one descheduled run cannot flip a
/// gate that compares two rows.
fn throughput(run: impl Fn() -> Tensor, samples: usize) -> f64 {
    let _ = run();
    let mut secs = [0.0f64; 3];
    for dt in &mut secs {
        let t0 = Instant::now();
        let out = run();
        *dt = t0.elapsed().as_secs_f64().max(1e-9);
        assert!(!out.is_empty(), "executor produced an empty output");
    }
    secs.sort_by(f64::total_cmp);
    samples as f64 / secs[1]
}

/// Benches one model at each worker count, returning `(threads,
/// samples/sec)` pairs for scaling assertions.
fn bench_model<M: Infer + Sync>(
    record: &mut BenchRecord,
    name: &str,
    model: &M,
    batch: &Tensor,
    threads: &[usize],
) -> Vec<(usize, f64)> {
    let n = batch.dim(0);
    // sequential per-sample reference: the executor must reproduce it
    let seq: Vec<Tensor> = (0..n)
        .map(|i| {
            model
                .infer_tensor(&batch.slice_dim0(i, i + 1))
                .expect("sequential inference failed")
        })
        .collect();
    let seq_refs: Vec<&Tensor> = seq.iter().collect();
    let want = Tensor::concat_dim0(&seq_refs);

    let mut pairs = Vec::with_capacity(threads.len());
    let mut base = 0.0;
    for &t in threads {
        let cfg = ExecutorConfig {
            threads: t,
            chunk: 2,
        };
        let exec = wa_models::BatchExecutor::new(cfg).expect("static config is valid");
        let got = exec.run(model, batch).expect("batched inference failed");
        assert_eq!(
            got.data(),
            want.data(),
            "{name}: batched output diverged from the sequential loop"
        );
        let sps = throughput(
            || exec.run(model, batch).expect("batched inference failed"),
            n,
        );
        assert!(
            sps > 1.0,
            "{name} with {t} threads must clear 1 sample/sec, got {sps:.3}"
        );
        if t == threads[0] {
            base = sps;
        }
        println!(
            "{name:<22} threads {t}  {sps:>10.1} samples/sec  (x{:.2} vs {} thread)",
            sps / base,
            threads[0]
        );
        record.push(name, sps, &[("threads", t as f64), ("batch", n as f64)]);
        pairs.push((t, sps));
    }
    pairs
}

/// With `WA_ASSERT_SCALING` set, fails the run if 2 workers sustain less
/// than 95% of 1 worker's samples/sec — the inverted-scaling regression
/// where thread churn in the kernel layer made extra workers a net loss.
/// The 5% slack absorbs timer noise; genuine inversion was a 10%+ drop.
fn assert_scaling(name: &str, pairs: &[(usize, f64)]) {
    if std::env::var_os("WA_ASSERT_SCALING").is_none() {
        return;
    }
    let sps_at = |t: usize| {
        pairs
            .iter()
            .find(|&&(threads, _)| threads == t)
            .map(|&(_, sps)| sps)
            .unwrap_or_else(|| panic!("{name}: no {t}-thread sample"))
    };
    let (one, two) = (sps_at(1), sps_at(2));
    assert!(
        two >= 0.95 * one,
        "{name}: thread scaling is inverted — 2 workers sustained \
         {two:.1} samples/sec vs {one:.1} at 1 worker"
    );
    println!("{name:<22} scaling ok: 2 threads at x{:.2}", two / one);
}

/// Measures what the per-model `G·g·Gᵀ` filter-transform cache buys: the
/// same batched run with the memoized transform reused across runs
/// ("warm") vs invalidated through the `&mut Layer` API before every run
/// ("cold", the pre-cache behaviour re-derived per run *and* per chunk).
///
/// The configuration is chosen to expose the constant per-chunk work the
/// cache removes: a full-width ResNet-18 (16 Winograd convs with up to
/// 256·256 filters each) on small 8×8 images, sharded one sample per
/// chunk — per chunk, the filter transform rivals the input transform.
fn bench_filter_cache(record: &mut BenchRecord, rng: &mut SeededRng) {
    let batch_n = 8usize;
    let spec = ModelSpec::builder()
        .classes(10)
        .width(1.0)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .expect("static spec");
    let mut model = ResNet18::from_spec(&spec, rng).expect("static spec");
    let x = rng.uniform_tensor(&[batch_n, 3, 8, 8], -1.0, 1.0);
    let exec = wa_models::BatchExecutor::new(ExecutorConfig {
        threads: 2,
        chunk: 1,
    })
    .expect("static config is valid");

    let reference = exec.run(&model, &x).expect("batched inference failed");
    let runs = 3usize;
    let mut timed = |invalidate: bool| -> f64 {
        let _ = exec.run(&model, &x); // warm-up (and cache fill)
        let t0 = Instant::now();
        for _ in 0..runs {
            if invalidate {
                // a no-op visit drops the memoized filter transform
                model.visit_params(&mut |_| {});
            }
            let out = exec.run(&model, &x).expect("batched inference failed");
            assert_eq!(
                out.data(),
                reference.data(),
                "filter cache changed the output"
            );
        }
        (runs * batch_n) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };
    let cold = timed(true);
    let warm = timed(false);
    println!(
        "{:<22} warm {warm:>10.1} samples/sec  vs cold {cold:>10.1}  (x{:.2})",
        "ResNet-18 F2 w1.0 cache",
        warm / cold
    );
    record.push(
        "ResNet-18 F2 filter-cache warm",
        warm,
        &[("batch", batch_n as f64)],
    );
    record.push(
        "ResNet-18 F2 filter-cache cold",
        cold,
        &[("batch", batch_n as f64)],
    );
}

/// The zero-copy parameter-sharing measurement: the chunk-1 full-width
/// ResNet-18 config is the executor's worst case for per-chunk constant
/// work — every sample gets its own tape, so before copy-on-write
/// storage each of the 8 chunks deep-cloned all ~11M parameter floats.
/// With COW `Tensor`s every worker tape *aliases* one set of parameter
/// buffers; the run must therefore finish with **zero** COW-detach
/// bytes, which [`wa_models::ExecutorStats::params_cloned_bytes`] pins
/// and this record appends to `results/throughput.json`.
fn bench_zero_copy(record: &mut BenchRecord, rng: &mut SeededRng) {
    let batch_n = 8usize;
    let spec = ModelSpec::builder()
        .classes(10)
        .width(1.0)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .expect("static spec");
    let model = ResNet18::from_spec(&spec, rng).expect("static spec");
    let x = rng.uniform_tensor(&[batch_n, 3, 8, 8], -1.0, 1.0);
    let exec = wa_models::BatchExecutor::new(ExecutorConfig {
        threads: 2,
        chunk: 1,
    })
    .expect("static config is valid");

    let _ = exec.run(&model, &x).expect("warm-up run failed"); // fills the filter cache
    let runs = 3usize;
    let mut cloned = 0u64;
    let t0 = Instant::now();
    for _ in 0..runs {
        let (_, stats) = exec
            .run_with_stats(&model, &x)
            .expect("batched inference failed");
        cloned += stats.params_cloned_bytes;
    }
    let sps = (runs * batch_n) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        cloned, 0,
        "the chunk-1 inference path must share parameter buffers, not clone them"
    );
    println!(
        "{:<22} chunk 1  {sps:>10.1} samples/sec  params_cloned_bytes {cloned}",
        "ResNet-18 F2 w1.0"
    );
    record.push(
        "ResNet-18 F2 w1.0 chunk-1 zero-copy",
        sps,
        &[
            ("batch", batch_n as f64),
            ("chunk", 1.0),
            ("params_cloned_bytes", cloned as f64),
        ],
    );
}

/// Full-width ResNet-18 rows: f32 under im2row and F4, and the
/// [`Execution::Int8`] path — quantize → `i8×i8→i32` GEMM → fixed-point
/// requantize — under both. Full width is the honest regime for these
/// claims: the inner products dominate the wall clock, whereas at width
/// 0.125 the per-element transform and quantize/requantize passes swamp
/// the tiny GEMMs. Observers are warmed first (integer serving
/// requantizes through settled scales, and cold observers would break
/// the batched == sequential assertion inside [`bench_model`]).
///
/// With `WA_ASSERT_SCALING` set the run pins the paper's speed claims on
/// this machine: f32 F4 must sustain at least the f32 im2row row's best
/// samples/sec, int8 im2row ≥ 1.5× of it, and int8 F4 must beat int8
/// im2row (the Winograd algorithmic saving must survive integer
/// execution).
fn bench_full_width(record: &mut BenchRecord, rng: &mut SeededRng, threads: &[usize]) {
    let int8 = QuantConfig::uniform(BitWidth::INT8)
        .with_transform(TapPolicy::PerTap)
        .with_execution(Execution::Int8);
    // full-width ResNet-18 runs ~50x slower per sample than the smoke
    // width above, so keep the batch small. CIFAR-native 32×32 input:
    // at 16×16 the deepest stage runs at 2×2 spatial, where every F4
    // tile computes a 4×4 block and crops it to 2×2 — charging the
    // Winograd rows 4× waste on exactly the channel-heaviest layers.
    let batch_n = 4;
    let x = rng.uniform_tensor(&[batch_n, 3, 32, 32], -1.0, 1.0);
    let best = |pairs: &[(usize, f64)]| {
        pairs
            .iter()
            .map(|&(_, sps)| sps)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let mut bench = |name: &str, algo: ConvAlgo, quant: QuantConfig| -> f64 {
        let spec = ModelSpec::builder()
            .classes(10)
            .algo(algo)
            .quant(quant)
            .build()
            .expect("static spec");
        let mut model = ResNet18::from_spec(&spec, rng).expect("static spec");
        {
            // calibrate: one training batch settles every observer
            let warm = rng.uniform_tensor(&[2, 3, 32, 32], -1.0, 1.0);
            let mut tape = Tape::new();
            let v = tape.leaf(warm);
            let _ = model.forward(&mut tape, v, true);
        }
        best(&bench_model(record, name, &model, &x, threads))
    };
    let f32_best = bench("ResNet-18 w1.0 im2row", ConvAlgo::Im2row, QuantConfig::FP32);
    let f32_f4 = bench(
        "ResNet-18 w1.0 F4",
        ConvAlgo::Winograd { m: 4 },
        QuantConfig::FP32,
    );
    let im2row = bench("ResNet-18 int8 im2row", ConvAlgo::Im2row, int8);
    let f4 = bench("ResNet-18 int8 F4", ConvAlgo::Winograd { m: 4 }, int8);
    println!(
        "{:<22} f32 F4 x{:.2} vs f32 im2row, int8 im2row x{:.2} vs f32, \
         int8 F4 x{:.2} vs int8 im2row",
        "ResNet-18 w1.0",
        f32_f4 / f32_best,
        im2row / f32_best,
        f4 / im2row
    );
    if std::env::var_os("WA_ASSERT_SCALING").is_some() {
        assert!(
            f32_f4 >= f32_best,
            "f32 F4 must sustain at least the f32 im2row row: \
             {f32_f4:.1} vs {f32_best:.1} samples/sec"
        );
        assert!(
            im2row >= 1.5 * f32_best,
            "int8 im2row must sustain at least 1.5x the f32 im2row row: \
             {im2row:.1} vs {f32_best:.1} samples/sec"
        );
        assert!(
            f4 > im2row,
            "int8 F4 must beat int8 im2row: {f4:.1} vs {im2row:.1} samples/sec"
        );
    }
}

fn main() {
    if std::env::var_os("WA_SPANS").is_some_and(|v| v == "0") {
        wa_obs::set_spans_enabled(false);
        println!("stage spans disabled (WA_SPANS=0)");
    }
    let scale = Scale::from_env();
    let mut rng = SeededRng::new(11);
    let threads = [1usize, 2, 4];
    let batch_n = if scale.per_class > 100 { 64 } else { 24 };
    let mut record = BenchRecord::new("throughput", "samples/sec");

    for algo in [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 2 }] {
        let lenet_spec = ModelSpec::builder()
            .classes(10)
            .input_size(28)
            .algo(algo)
            .build()
            .expect("static spec");
        let lenet = LeNet::from_spec(&lenet_spec, &mut rng).expect("static spec");
        let lx = rng.uniform_tensor(&[batch_n, 1, 28, 28], -1.0, 1.0);
        bench_model(&mut record, &format!("LeNet {algo}"), &lenet, &lx, &threads);

        let cifar_spec = ModelSpec::builder()
            .classes(10)
            .width(0.125)
            .algo(algo)
            .build()
            .expect("static spec");
        let cx = rng.uniform_tensor(&[batch_n, 3, 16, 16], -1.0, 1.0);

        let resnet = ResNet18::from_spec(&cifar_spec, &mut rng).expect("static spec");
        let resnet_name = format!("ResNet-18 {algo}");
        let pairs = bench_model(&mut record, &resnet_name, &resnet, &cx, &threads);
        if matches!(algo, ConvAlgo::Im2row) {
            assert_scaling(&resnet_name, &pairs);
        }

        let squeeze = SqueezeNet::from_spec(&cifar_spec, &mut rng).expect("static spec");
        bench_model(
            &mut record,
            &format!("SqueezeNet {algo}"),
            &squeeze,
            &cx,
            &threads,
        );

        let resnext = ResNeXt20::from_spec(&cifar_spec, &mut rng).expect("static spec");
        bench_model(
            &mut record,
            &format!("ResNeXt-20 {algo}"),
            &resnext,
            &cx,
            &threads,
        );
    }

    // F4 quadruples the run-time weight footprint, so only the ResNet-18
    // configuration (the CI scaling sentinel) runs it.
    let f4_spec = ModelSpec::builder()
        .classes(10)
        .width(0.125)
        .algo(ConvAlgo::Winograd { m: 4 })
        .build()
        .expect("static spec");
    let resnet_f4 = ResNet18::from_spec(&f4_spec, &mut rng).expect("static spec");
    let fx = rng.uniform_tensor(&[batch_n, 3, 16, 16], -1.0, 1.0);
    let pairs = bench_model(&mut record, "ResNet-18 F4", &resnet_f4, &fx, &threads);
    assert_scaling("ResNet-18 F4", &pairs);

    bench_full_width(&mut record, &mut rng, &threads);

    bench_filter_cache(&mut record, &mut rng);
    bench_zero_copy(&mut record, &mut rng);

    record.save();
}
