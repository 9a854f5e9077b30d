//! The common guessing interface, now shared with the flow.
//!
//! Baselines implement [`passflow_core::Guesser`] directly, so the unified
//! [`Attack`](passflow_core::Attack) engine drives them with the same
//! protocol as `PassFlow`.

pub use passflow_core::Guesser;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    struct Fixed;

    impl Guesser for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
            vec!["123456".to_string(); n]
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable_through_a_box() {
        let guessers: Vec<Box<dyn Guesser>> = vec![Box::new(Fixed)];
        let mut rng = passflow_nn::rng::seeded(1);
        let out = guessers[0].generate_batch(3, &mut rng);
        assert_eq!(out.len(), 3);
        assert_eq!(guessers[0].name(), "fixed");
    }
}
