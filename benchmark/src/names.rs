//! The names the benchmark is made of: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names; `tests/contract.rs` holds the two against each other.

use Better::{Higher, Lower};

/// Whether a larger or a smaller reading is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "offline-f32-im2row",
        why: "f32 ResNet-18 batches through im2row+GEMM only: the paper's baseline, and the bypass for every Winograd or INT8 change",
    },
    WorkloadDef {
        name: "offline-f32-f4",
        why: "same batches under Winograd F4: transforms and tap GEMMs dominate, so F4-vs-im2row is this row against the one above",
    },
    WorkloadDef {
        name: "serve-int8-im2row",
        why: "whole serving stack at batch 1, open loop 40 req/s: quantize, i8 GEMM and requantize dominate; bypass for INT8-Winograd changes",
    },
    WorkloadDef {
        name: "serve-int8-f4",
        why: "same traffic on fused INT8 Winograd F4 kernels, where batch-only parallelism starves and i8-resident weights would show",
    },
    WorkloadDef {
        name: "serve-fleet-lenet",
        why: "16 tiny LeNets at 300 req/s: HTTP, JSON, per-model queues and the batching window dominate, compute is a tenth of a request",
    },
    WorkloadDef {
        name: "train-int8-f4flex",
        why: "Winograd-aware INT8 training steps with learnable transforms: guards the paper's contribution while serving is rewritten",
    },
];

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, defined on every workload. An *op* is one
/// executor batch, one train step or one request. Names and bounds are
/// the issue's, but for three the builder contract rules out, which wants
/// metrics that never read 0 and repeat well within their own bound on
/// every workload (the README has the measurements): `failed_share` is
/// reported as its complement `correct_share` (one failed op in the
/// largest workload is 0.0003, so this bound means "any"); `peak_rss_mb`,
/// which spreads up to 57 % run to run, is `peak_heap_mb`; and the bound
/// of `cpu_ms_per_sample` is 0.15, not 0.10, because its spread reaches
/// 6–7 % on two workloads.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("samples_per_s", "samples/s", Better::Higher, 0.10),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.10),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.15),
    e2e("cpu_ms_per_sample", "ms", Better::Lower, 0.15),
    e2e("correct_share", "ratio", Better::Higher, 0.0001),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.10),
];

/// The per-layer metrics of a traced run. Each workload measures those
/// that apply to it (`Workload::measures`); the rest are `null` in its
/// record.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("tensor.im2row_us", "us", Lower),
    layer("tensor.gemm_us", "us", Lower),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_peak_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_i8_us", "us", Lower),
    layer("tensor.gemm_i8_gops", "GOP/s", Higher),
    layer("tensor.json_decode_us", "us", Lower),
    layer("tensor.json_encode_us", "us", Lower),
    layer("tensor.cow_detach_bytes", "count", Lower),
    layer("winograd.input_transform_us", "us", Lower),
    layer("winograd.output_transform_us", "us", Lower),
    layer("winograd.filter_transform_us", "us", Lower),
    layer("winograd.tile_useful_share", "ratio", Higher),
    layer("quant.quantize_us", "us", Lower),
    layer("quant.requantize_us", "us", Lower),
    layer("quant.fake_quant_us", "us", Lower),
    layer("core.conv_us", "us", Lower),
    layer("core.conv_us.stem", "us", Lower),
    layer("core.conv_us.s1", "us", Lower),
    layer("core.conv_us.s2", "us", Lower),
    layer("core.conv_us.s3", "us", Lower),
    layer("core.conv_us.s4", "us", Lower),
    layer("core.conv_self_us", "us", Lower),
    layer("core.f4_speedup_measured", "ratio", Higher),
    layer("core.train_forward_us", "us", Lower),
    layer("core.train_backward_us", "us", Lower),
    layer("nn.executor_us", "us", Lower),
    layer("nn.executor_self_us", "us", Lower),
    layer("nn.executor_scaling", "ratio", Higher),
    layer("nn.allocs_per_sample", "count", Lower),
    layer("nn.alloc_bytes_per_sample", "count", Lower),
    layer("nn.checkpoint_decode_us", "us", Lower),
    layer("nn.optimizer_us", "us", Lower),
    layer("models.infer_us", "us", Lower),
    layer("models.glue_self_us", "us", Lower),
    layer("models.build_us", "us", Lower),
    layer("serve.http_us", "us", Lower),
    layer("serve.edge_self_us", "us", Lower),
    layer("serve.scheduler_us", "us", Lower),
    layer("serve.scheduler_self_us", "us", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.batch_duration_p50_us", "us", Lower),
    layer("serve.registry_load_us", "us", Lower),
    layer("serve.resident_mb", "MiB", Lower),
    layer("serve.latency_p99_ms", "ms", Lower),
    layer("serve.generator_late_p99_us", "us", Lower),
    layer("serve.refused", "count", Lower),
    layer("obs.spans_overhead_share", "ratio", Lower),
    layer("obs.stage_share.fake_quant", "ratio", Lower),
    layer("obs.stage_share.im2row", "ratio", Lower),
    layer("obs.stage_share.im2row.gemm", "ratio", Lower),
    layer("obs.stage_share.winograd.input_transform", "ratio", Lower),
    layer("obs.stage_share.winograd.gemm", "ratio", Lower),
    layer("obs.stage_share.winograd.output_transform", "ratio", Lower),
    layer("obs.stage_share.winograd.filter_transform", "ratio", Lower),
    layer("obs.stage_share.int8.quantize", "ratio", Lower),
    layer("obs.stage_share.int8.im2row", "ratio", Lower),
    layer("obs.stage_share.int8.gemm", "ratio", Lower),
    layer("obs.stage_share.int8.winograd_gemm", "ratio", Lower),
    layer("obs.stage_share.int8.requantize", "ratio", Lower),
    layer("latency.f4_speedup_predicted", "ratio", Higher),
    layer("bench.trace_overhead_share", "ratio", Lower),
];

/// Whether `name` is made of at most 64 letters, digits, `_`, `.`, `-`
/// and starts with a letter or a digit.
pub fn is_valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is made of at most 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_valid_unit(m.unit), "bad unit `{}` on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!is_valid_name(".x") && !is_valid_name("a b") && !is_valid_name(""));
        assert!(!is_valid_unit("GFLOP per second") && !is_valid_unit(""));
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let shares = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("obs.stage_share."));
        assert_eq!(shares.count(), 12, "one share per stage kind of `wa_obs`");
    }
}
