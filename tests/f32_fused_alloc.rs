//! Allocation pin for the fused f32 Winograd pass: once a thread has run
//! a layer (filter cached tap-major, `V`/`M` scratch grown), a further
//! `infer` call allocates its output tensor and the tape node that holds
//! it — not the ~15 full-size intermediates of the op-by-op pipeline. A
//! counting global allocator measures the call (this file holds a single
//! test, so nothing else allocates meanwhile).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use winograd_aware::core::{ConvAlgo, ConvSpec, WinogradAwareConv2d};
use winograd_aware::nn::{Infer, QuantConfig, Tape};
use winograd_aware::tensor::{with_gemm_thread_cap, SeededRng};

/// System allocator that adds up every byte it hands out.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_fused_call_allocates_its_output_and_little_else() {
    let (batch, ch, side) = (4usize, 16usize, 16usize);
    let mut rng = SeededRng::new(0xA110C);
    let spec = ConvSpec::builder()
        .name("wa")
        .in_channels(ch)
        .out_channels(ch)
        .algo(ConvAlgo::Winograd { m: 4 })
        .quant(QuantConfig::FP32)
        .build()
        .expect("static spec");
    let layer = WinogradAwareConv2d::from_spec(&spec, &mut rng).expect("static spec");
    let x = rng.uniform_tensor(&[batch, ch, side, side], -1.0, 1.0);

    let mut measured = Vec::new();
    for _ in 0..3 {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let before = ALLOCATED.load(Ordering::Relaxed);
        // the GEMM stays on this thread, as in an executor worker: a
        // split would spawn threads with scratch of their own
        let y = with_gemm_thread_cap(1, || layer.infer(&mut tape, xv)).expect("inference failed");
        measured.push(ALLOCATED.load(Ordering::Relaxed) - before);
        assert_eq!(tape.value(y).shape(), &[batch, ch, side, side]);
    }

    let output_bytes = (batch * ch * side * side * 4) as u64;
    // op by op, one F4 input transform alone materializes (n/m)² = 2.25×
    // the output's bytes several times over; the first call also pays
    // for the filter cache and the scratch
    assert!(
        measured[0] > 4 * output_bytes,
        "first call: {} bytes",
        measured[0]
    );
    for (call, &bytes) in measured.iter().enumerate().skip(1) {
        assert!(
            (output_bytes..=output_bytes + 4096).contains(&bytes),
            "call {call} allocated {bytes} bytes for a {output_bytes}-byte output"
        );
    }
}
