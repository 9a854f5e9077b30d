//! `guess`: the paper's attack.
//!
//! Set-up generates a 30 000-instance synthetic corpus, applies the paper's
//! split, trains an 8×64 evaluation flow for 4 epochs on a 5 000-password
//! subsample (1 gradient worker) and builds the targets: the held-out test
//! set plus 2 000 passwords sampled from the trained flow on a stream
//! separate from the attack seed. Without the sampled targets the small
//! flow matches nothing, and Dynamic sampling never builds its mixture
//! prior.
//!
//! The measured loop runs a static attack of 10⁵ guesses on 1 shard and on
//! 2, and a Dynamic+GS campaign (`paper_default(10⁵)`, 2 shards) of 10⁵
//! guesses with a `PFATTACK` checkpoint every 25 000 guesses and a
//! `PFGUESS` archive, both into a scratch directory. The bounded
//! throughput covers the 1-shard static attack and the campaign: on a
//! shared 2-vCPU host a 2-thread attack's time swings with whatever else
//! holds either core. The 2-shard rate is printed beside it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::RngCore;

use passflow_core::{
    Attack, AttackOutcome, FlowConfig, FlowWorkspace, GuessSession, Guesser, GuessingStrategy,
    LatentGuesser, LatentSession, PassFlow, TrainConfig, Trainer,
};
use passflow_nn::rng as nnrng;
use passflow_nn::Tensor;
use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

use crate::report::{say, Report};
use crate::spans::{self, Span, Tracer};
use crate::stats::median;

/// Guesses per attack.
pub const BUDGET: u64 = 100_000;
/// Attack worker threads (the static attack also runs on 1).
pub const SHARDS: usize = 2;
/// Guesses between campaign checkpoints.
pub const CHECKPOINT_EVERY: u64 = 25_000;
/// Passwords sampled from the trained flow into the target set.
const SAMPLED_TARGETS: usize = 2_000;
/// RNG stream of the sampled targets (the attack seed is separate).
const TARGET_STREAM: u64 = 0x07a2_6e75;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The trained flow and the attack targets.
pub struct Setup {
    /// The trained 8×64 flow.
    pub flow: PassFlow,
    /// Held-out test set plus passwords sampled from the flow.
    pub targets: HashSet<String>,
    /// Size of the held-out test set alone.
    pub test_size: usize,
}

/// Builds the corpus, trains the flow and assembles the targets.
///
/// # Panics
///
/// Panics if the evaluation configuration fails to build or train, which
/// would be a bug in the workspace.
pub fn setup(seed: u64) -> Setup {
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small()).generate(seed);
    let split = corpus.paper_split(0.8, 5_000, seed);
    let flow = PassFlow::new(FlowConfig::evaluation(), &mut nnrng::seeded(seed))
        .expect("the evaluation config is valid");
    let config = TrainConfig::evaluation()
        .with_epochs(4)
        .with_seed(seed)
        .with_grad_workers(1);
    Trainer::new(&flow, config)
        .expect("the evaluation training config is valid")
        .train(&split.train)
        .expect("training the evaluation flow succeeds");
    let mut targets = split.test_set();
    let test_size = targets.len();
    let mut rng = nnrng::derived(seed, TARGET_STREAM);
    targets.extend(flow.sample_passwords(SAMPLED_TARGETS, &mut rng));
    Setup {
        flow,
        targets,
        test_size,
    }
}

/// The attack seed, kept apart from the target-sampling stream.
pub fn attack_seed(seed: u64) -> u64 {
    seed ^ 0xa77a_c4ed_0000_0000
}

/// The static attack on `shards` worker threads.
pub fn static_attack(targets: &HashSet<String>, seed: u64, shards: usize) -> Attack<'_> {
    Attack::new(targets)
        .budget(BUDGET)
        .shards(shards)
        .seed(attack_seed(seed))
}

/// The Dynamic+GS campaign, persisting into `dir`.
pub fn dynamic_attack<'a>(targets: &'a HashSet<String>, seed: u64, dir: &Path) -> Attack<'a> {
    Attack::new(targets)
        .budget(BUDGET)
        .strategy(GuessingStrategy::paper_default(BUDGET))
        .shards(SHARDS)
        .seed(attack_seed(seed))
        .checkpoint_every(CHECKPOINT_EVERY)
        .checkpoint_to(dir.join("campaign.pfattack"))
        .archive_to(dir.join("campaign.pfguess"))
}

/// Checks one attack outcome against its targets.
pub fn check_outcome(
    report: &mut Report,
    label: &str,
    outcome: &AttackOutcome,
    targets: &HashSet<String>,
) {
    let last = outcome.final_report();
    report.check(
        format!("{label}: the whole budget is spent"),
        last.guesses == BUDGET,
    );
    report.check(
        format!("{label}: unique <= guesses"),
        last.unique <= last.guesses,
    );
    report.check(
        format!("{label}: matched passwords are targets"),
        outcome
            .matched_passwords
            .iter()
            .all(|p| targets.contains(p)),
    );
    report.check(
        format!("{label}: matched list length equals matched"),
        outcome.matched_passwords.len() as u64 == last.matched,
    );
}

/// The campaign's scratch directory, emptied.
fn campaign_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("guess-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
    dir
}

fn matched_pct(outcome: &AttackOutcome) -> f64 {
    outcome.final_report().matched_percent
}

/// The untraced run: `setup_s` from several set-ups, then static and
/// Dynamic+GS attacks until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut setup_times = Vec::new();
    let mut digests = HashSet::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let s = setup(seed);
        setup_times.push(start.elapsed().as_secs_f64());
        digests.insert((s.flow.state_digest(), s.targets.len()));
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    report.check(
        "every set-up trains the same flow and targets",
        digests.len() == 1,
    );
    say("targets.test_set", s.test_size as f64, "passwords");
    say("targets.total", s.targets.len() as f64, "passwords");

    let dir = campaign_dir("run");
    let mut static_rates = Vec::new();
    let mut serial_rates = Vec::new();
    let mut dynamic_rates = Vec::new();
    let mut session_rates = Vec::new();
    let mut first: Option<(AttackOutcome, AttackOutcome)> = None;
    let mut repeats_agree = true;
    let mut shards_agree = true;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while first.is_none() || Instant::now() < deadline {
        let start = Instant::now();
        let serial = static_attack(&s.targets, seed, 1).run(&s.flow);
        let serial_s = start.elapsed().as_secs_f64();
        serial_rates.push(BUDGET as f64 / serial_s);

        let start = Instant::now();
        let st = static_attack(&s.targets, seed, SHARDS).run(&s.flow);
        static_rates.push(BUDGET as f64 / start.elapsed().as_secs_f64());

        let start = Instant::now();
        let dy = dynamic_attack(&s.targets, seed, &dir).run(&s.flow);
        let dynamic_s = start.elapsed().as_secs_f64();
        dynamic_rates.push(BUDGET as f64 / dynamic_s);
        session_rates.push(2.0 * BUDGET as f64 / (serial_s + dynamic_s));

        report.attempted += 3;
        let (serial, st, dy) = match (serial, st, dy) {
            (Ok(serial), Ok(st), Ok(dy)) => (serial, st, dy),
            (serial, st, dy) => {
                report.failed += [serial.is_err(), st.is_err(), dy.is_err()]
                    .into_iter()
                    .map(u64::from)
                    .sum::<u64>();
                report.check("every attack succeeds", false);
                break;
            }
        };
        shards_agree &= serial == st;
        match &first {
            None => {
                check_outcome(report, "static", &st, &s.targets);
                check_outcome(report, "dynamic_gs", &dy, &s.targets);
                report.check("dynamic_gs matches some target", matched_pct(&dy) > 0.0);
                first = Some((st, dy));
            }
            Some((st0, dy0)) => repeats_agree &= *st0 == st && *dy0 == dy,
        }
    }
    report.check("repeated attacks give the same outcome", repeats_agree);
    report.check(
        "the static attack gives the same outcome on 1 and 2 shards",
        shards_agree,
    );
    let _ = std::fs::remove_dir_all(&dir);

    if let Some((st, dy)) = &first {
        say("matched_pct.static", matched_pct(st), "%");
        say("matched_pct.dynamic_gs", matched_pct(dy), "%");
    }
    say("guesses_per_s.static", median(&static_rates), "1/s");
    say("guesses_per_s.static_1shard", median(&serial_rates), "1/s");
    say("guesses_per_s.dynamic_gs", median(&dynamic_rates), "1/s");
    say("attacks.static", static_rates.len() as f64, "count");
    report.set("setup_s", median(&setup_times));
    report.set("throughput_per_s", median(&session_rates));
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// A benchmark-side [`Guesser`] + [`LatentGuesser`] that delegates to a
/// [`PassFlow`] under the same name and state digest, recording a span
/// around every public call it makes into the flow's layers.
///
/// Its static session makes the calls `FlowSession` makes
/// (`Tensor::randn_into`, `FlowSnapshot::inverse_into`,
/// `PasswordEncoder::decode`), so an attack through it returns the same
/// outcome as one through the bare flow.
pub struct TracedFlow<'a> {
    flow: &'a PassFlow,
    tracer: &'a Tracer,
    tag: &'static str,
    parent: u32,
    batches: AtomicU64,
    decodes: AtomicU64,
}

impl<'a> TracedFlow<'a> {
    /// Wraps `flow`; spans carry `tag` and name `parent` as their cause.
    pub fn new(flow: &'a PassFlow, tracer: &'a Tracer, tag: &'static str, parent: u32) -> Self {
        TracedFlow {
            flow,
            tracer,
            tag,
            parent,
            batches: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
        }
    }

    /// Rows decoded through [`LatentGuesser::decode_features`], smoothing
    /// retries included.
    pub fn latent_decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// A fresh id for the next chunk's spans.
    fn next_batch(&self) -> u64 {
        self.batches.fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl Guesser for TracedFlow<'_> {
    fn name(&self) -> &str {
        Guesser::name(self.flow)
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        Guesser::generate_batch(self.flow, n, rng)
    }

    fn as_latent(&self) -> Option<&dyn LatentGuesser> {
        Some(self)
    }

    fn start_session(&self) -> Option<Box<dyn GuessSession + '_>> {
        Some(Box::new(TracedSession {
            owner: self,
            ws: FlowWorkspace::new(),
            z: Tensor::default(),
            x: Tensor::default(),
            spans: Vec::new(),
        }))
    }

    fn state_digest(&self) -> Option<u64> {
        self.flow.state_digest()
    }
}

impl LatentGuesser for TracedFlow<'_> {
    fn latent_dim(&self) -> usize {
        self.flow.latent_dim()
    }

    fn latents_to_features(&self, z: &Tensor) -> Tensor {
        let open = self
            .tracer
            .open("fastpath.inverse", self.tag, self.parent, self.next_batch());
        let x = self.flow.latents_to_features(z);
        self.tracer.close(open);
        x
    }

    fn decode_features(&self, features: &[f32]) -> String {
        let open = self.tracer.open(
            "encoding.decode",
            self.tag,
            self.parent,
            self.batches.load(Ordering::Relaxed),
        );
        let guess = self.flow.decode_features(features);
        self.tracer.close(open);
        self.decodes.fetch_add(1, Ordering::Relaxed);
        guess
    }

    fn start_latent_session(&self) -> Option<Box<dyn LatentSession + '_>> {
        Some(Box::new(TracedLatentSession {
            owner: self,
            inner: self
                .flow
                .start_latent_session()
                .expect("PassFlow has a latent session"),
            spans: Vec::new(),
        }))
    }
}

/// Static generation with a span around each of `FlowSession`'s calls.
struct TracedSession<'a> {
    owner: &'a TracedFlow<'a>,
    ws: FlowWorkspace,
    z: Tensor,
    x: Tensor,
    spans: Vec<Span>,
}

impl GuessSession for TracedSession<'_> {
    fn generate_batch(&mut self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        let TracedFlow {
            flow,
            tracer,
            tag,
            parent,
            ..
        } = *self.owner;
        let batch = self.owner.next_batch();
        let snapshot = flow.snapshot();

        let open = tracer.open("prior.sample", tag, parent, batch);
        Tensor::randn_into(n, snapshot.dim(), rng, &mut self.z);
        self.spans.push(tracer.finish(open));

        let open = tracer.open("fastpath.inverse", tag, parent, batch);
        snapshot.inverse_into(&self.z, &mut self.ws, &mut self.x);
        self.spans.push(tracer.finish(open));

        let open = tracer.open("encoding.decode", tag, parent, batch);
        let guesses = (0..n)
            .map(|i| flow.encoder().decode(self.x.row_slice(i)))
            .collect();
        self.spans.push(tracer.finish(open));
        guesses
    }
}

impl Drop for TracedSession<'_> {
    fn drop(&mut self) {
        self.owner.tracer.extend(std::mem::take(&mut self.spans));
    }
}

/// Latent inversion with a span around each batch.
struct TracedLatentSession<'a> {
    owner: &'a TracedFlow<'a>,
    inner: Box<dyn LatentSession + 'a>,
    spans: Vec<Span>,
}

impl LatentSession for TracedLatentSession<'_> {
    fn latents_to_features_into(&mut self, z: &Tensor, out: &mut Tensor) {
        let owner = self.owner;
        let open = owner.tracer.open(
            "fastpath.inverse",
            owner.tag,
            owner.parent,
            owner.next_batch(),
        );
        self.inner.latents_to_features_into(z, out);
        self.spans.push(owner.tracer.finish(open));
    }
}

impl Drop for TracedLatentSession<'_> {
    fn drop(&mut self) {
        self.owner.tracer.extend(std::mem::take(&mut self.spans));
    }
}

/// One traced attack: its outcome, wall time and latent decodes.
struct Traced {
    outcome: passflow_core::Result<AttackOutcome>,
    wall_s: f64,
    decodes: u64,
}

/// Runs `attack` through a [`TracedFlow`] under an `engine.attack` span
/// tagged `tag`.
fn traced<'a>(
    flow: &PassFlow,
    tracer: &Tracer,
    tag: &'static str,
    attack: impl FnOnce() -> Attack<'a>,
) -> Traced {
    let phase = tracer.open("engine.attack", tag, 0, 0);
    let wrapper = TracedFlow::new(flow, tracer, tag, phase.id());
    let start = Instant::now();
    let outcome = attack().run(&wrapper);
    let wall_s = start.elapsed().as_secs_f64();
    tracer.close(phase);
    Traced {
        outcome,
        wall_s,
        decodes: wrapper.latent_decodes(),
    }
}

/// The traced run: the attacks through [`TracedFlow`] with spans off and
/// with spans on, repeated until `seconds` have passed, and once through
/// the bare flow to check the outcomes. Per-layer values are medians over
/// the repetitions; `trace.overhead_s` is the median difference between
/// spans on and spans off.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) {
    let s = setup(seed);
    let dir = campaign_dir("traced");
    let bare_static = static_attack(&s.targets, seed, SHARDS).run(&s.flow);
    let bare_dynamic = dynamic_attack(&s.targets, seed, &dir).run(&s.flow);
    report.attempted += 2;
    let (Ok(bare_static), Ok(bare_dynamic)) = (bare_static, bare_dynamic) else {
        report.failed += 1;
        report.check("every attack succeeds", false);
        let _ = std::fs::remove_dir_all(&dir);
        return;
    };
    let attacks = |tracer: &Tracer| {
        let st = traced(&s.flow, tracer, "static", || {
            static_attack(&s.targets, seed, SHARDS)
        });
        let dy = traced(&s.flow, tracer, "dynamic_gs", || {
            dynamic_attack(&s.targets, seed, &dir)
        });
        (st, dy)
    };
    let mut rows: Vec<[f64; 13]> = Vec::new();
    let mut overhead = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rows.is_empty() || Instant::now() < deadline {
        // Alternate which goes first, so neither is always the colder run.
        let (off, tracer, (st, dy)) = if rows.len().is_multiple_of(2) {
            let off = attacks(&Tracer::disabled());
            let tracer = Tracer::new();
            let on = attacks(&tracer);
            (off, tracer, on)
        } else {
            let tracer = Tracer::new();
            let on = attacks(&tracer);
            (attacks(&Tracer::disabled()), tracer, on)
        };
        let all = tracer.take();
        let bytes_written = ["campaign.pfattack", "campaign.pfguess"]
            .iter()
            .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
            .map(|m| m.len() as f64)
            .sum::<f64>();

        report.attempted += 4;
        let (Ok(st_out), Ok(dy_out), Ok(_), Ok(_)) =
            (&st.outcome, &dy.outcome, &off.0.outcome, &off.1.outcome)
        else {
            report.failed += 1;
            report.check("every attack succeeds", false);
            break;
        };
        if rows.is_empty() {
            check_outcome(report, "traced static", st_out, &s.targets);
            check_outcome(report, "traced dynamic_gs", dy_out, &s.targets);
            report.check(
                "traced static outcome equals untraced",
                *st_out == bare_static,
            );
            report.check(
                "traced dynamic_gs outcome equals untraced",
                *dy_out == bare_dynamic,
            );
            report.check("dynamic_gs matches some target", matched_pct(dy_out) > 0.0);
            spans::publish("guess", seed, &all);
        }

        let totals = spans::layer_totals(&all);
        let t = |name, tag| totals.get(&(name, tag)).map_or(0.0, |v| v.0);
        let ratios = |o: &AttackOutcome| {
            let last = o.final_report();
            (
                last.unique as f64 / last.guesses as f64,
                last.matched as f64 / last.unique.max(1) as f64,
            )
        };
        let (st_unique, st_match) = ratios(st_out);
        let (dy_unique, dy_match) = ratios(dy_out);
        rows.push([
            t("prior.sample", "static"),
            t("fastpath.inverse", "static"),
            t("fastpath.inverse", "dynamic_gs"),
            t("encoding.decode", "static"),
            t("encoding.decode", "dynamic_gs"),
            t("engine.attack", "static"),
            t("engine.attack", "dynamic_gs"),
            st_unique,
            dy_unique,
            st_match,
            dy_match,
            dy.decodes as f64 / BUDGET as f64,
            bytes_written,
        ]);
        overhead.push(st.wall_s + dy.wall_s - off.0.wall_s - off.1.wall_s);
    }
    let _ = std::fs::remove_dir_all(&dir);

    const NAMES: [&str; 13] = [
        "prior.sample_s.static",
        "fastpath.inverse_s.static",
        "fastpath.inverse_s.dynamic_gs",
        "encoding.decode_s.static",
        "encoding.decode_s.dynamic_gs",
        "engine.self_s.static",
        "engine.self_s.dynamic_gs",
        "engine.unique_ratio.static",
        "engine.unique_ratio.dynamic_gs",
        "engine.match_ratio.static",
        "engine.match_ratio.dynamic_gs",
        "sample.decodes_per_guess.dynamic_gs",
        "store.bytes_written.dynamic_gs",
    ];
    for (i, name) in NAMES.iter().enumerate() {
        let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        report.set(name, median(&column));
    }
    report.set(
        "kernels.gemm_macs_per_guess",
        crate::flow_macs_per_row(s.flow.config()) as f64,
    );
    report.set("trace.overhead_s", median(&overhead));
    say("traced.repetitions", rows.len() as f64, "count");
}
