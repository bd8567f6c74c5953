//! **Table 2**: hardware specifications of the modeled cores, plus the
//! calibrated machine parameters the latency model adds on top.

use wa_latency::Core;

fn main() {
    println!("{:<6} {:>8} {:>8} {:>8}", "CPU", "Clock", "L1", "L2");
    for core in [Core::CortexA73, Core::CortexA53] {
        let s = core.spec();
        println!(
            "{:<6} {:>5.1} GHz {:>5} KB {:>5} KB",
            s.name.trim_start_matches("Cortex-"),
            s.clock_ghz,
            s.l1_kb,
            s.l2_kb
        );
    }
    println!("\nCalibrated model parameters (see README.md, Substitutions):");
    println!(
        "{:<6} {:>10} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "CPU", "MAC/c f32", "MAC/c i8", "B/cycle", "gemm ovh", "tf eff", "tile ovh"
    );
    for core in [Core::CortexA73, Core::CortexA53] {
        let s = core.spec();
        println!(
            "{:<6} {:>10.1} {:>10.1} {:>8.1} {:>10.0} {:>9.2} {:>9.0}",
            s.name.trim_start_matches("Cortex-"),
            s.peak_macs_fp32,
            s.peak_macs_int8,
            s.bytes_per_cycle,
            s.gemm_call_overhead,
            s.transform_eff,
            s.tile_overhead
        );
    }
}
