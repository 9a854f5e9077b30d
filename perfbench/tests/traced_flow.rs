//! An attack through the benchmark's tracing wrapper returns the same
//! outcome as one through the bare flow.

use std::collections::HashSet;

use passflow_core::{Attack, FlowConfig, GuessingStrategy, PassFlow};
use passflow_nn::rng as nnrng;
use perfbench::guess::TracedFlow;
use perfbench::spans::{layer_totals, Tracer};

const BUDGET: u64 = 4_000;

fn tiny_flow() -> PassFlow {
    PassFlow::new(FlowConfig::tiny(), &mut nnrng::seeded(7)).expect("the tiny config is valid")
}

/// Passwords the flow itself generates, so the attacks match some and
/// Dynamic sampling builds its mixture prior.
fn targets(flow: &PassFlow) -> HashSet<String> {
    flow.sample_passwords(300, &mut nnrng::seeded(99))
        .into_iter()
        .collect()
}

fn attack(targets: &HashSet<String>, strategy: GuessingStrategy) -> Attack<'_> {
    Attack::new(targets)
        .budget(BUDGET)
        .batch_size(256)
        .strategy(strategy)
        .shards(2)
        .seed(5)
}

fn assert_same_outcome(strategy: GuessingStrategy, tag: &'static str) {
    let flow = tiny_flow();
    let targets = targets(&flow);
    let bare = attack(&targets, strategy.clone())
        .run(&flow)
        .expect("the bare attack runs");

    let tracer = Tracer::new();
    let root = tracer.open("engine.attack", tag, 0, 0);
    let wrapper = TracedFlow::new(&flow, &tracer, tag, root.id());
    let traced = attack(&targets, strategy)
        .run(&wrapper)
        .expect("the traced attack runs");
    tracer.close(root);

    assert!(
        bare.final_report().matched > 0,
        "the attack matches targets"
    );
    assert_eq!(traced, bare);

    let totals = layer_totals(&tracer.take());
    assert!(totals.contains_key(&("fastpath.inverse", tag)));
    assert!(totals.contains_key(&("encoding.decode", tag)));
}

#[test]
fn static_attack_through_the_wrapper_matches_the_bare_flow() {
    assert_same_outcome(GuessingStrategy::Static, "static");
}

#[test]
fn dynamic_gs_attack_through_the_wrapper_matches_the_bare_flow() {
    assert_same_outcome(GuessingStrategy::paper_default(BUDGET), "dynamic_gs");
}
