//! Layer-split benchmark for the PassFlow workspace.
//!
//! Three workloads each load mostly one group of layers: `guess` (the
//! paper's attack), `train` (the paper's training) and `serve` (the
//! strength meter over HTTP). A run measures for a fixed number of seconds,
//! checks the outputs and prints one JSON object as its last line. The
//! traced mode reruns the same work through the benchmark's own wrappers
//! around each layer's public calls and reports per-layer self time. See
//! `README.md` in this directory.

pub mod guess;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod train;

use std::path::PathBuf;

/// Where spans and scratch files go: `$CARGO_TARGET_DIR/perfbench`, or
/// `perfbench/target/perfbench` when the variable is unset. Both are
/// inside the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench")
}

/// Multiply-accumulates per row of one pass through a flow's coupling
/// layers: each layer runs an `s` and a `t` ResNet of an input linear
/// (`dim × hidden`), `blocks` residual blocks of two `hidden × hidden`
/// linears, and an output linear (`hidden × dim`).
pub fn flow_macs_per_row(config: &passflow_core::FlowConfig) -> u64 {
    let (d, h, b) = (
        config.max_len as u64,
        config.hidden_size as u64,
        config.residual_blocks as u64,
    );
    config.coupling_layers as u64 * 2 * (2 * d * h + 2 * b * h * h)
}
