//! Branch direction prediction: a gshare predictor with 2-bit counters.

/// A gshare branch predictor.
///
/// Global-history XOR PC indexing into a table of 2-bit saturating
/// counters. Biased branches are learned within a few executions; branches
/// with independent random outcomes converge to ≈50 % accuracy, which is
/// exactly the knob the trace profiles use to set mispredict rates.
///
/// # Examples
///
/// ```
/// use ramp_microarch::GsharePredictor;
/// // Bimodal mode (no history): an always-taken branch is learned quickly.
/// let mut p = GsharePredictor::bimodal(12);
/// for _ in 0..8 {
///     p.update(0x4000, true);
/// }
/// assert!(p.predict(0x4000));
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    history: u64,
    history_mask: u64,
    mask: u64,
    predictions: u64,
    mispredictions: u64,
}

impl GsharePredictor {
    /// Creates a predictor with `2^bits` counters and `bits` of global
    /// history.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 24`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        Self::with_history(bits, bits)
    }

    /// Creates a predictor with `2^bits` counters and `history_bits` of
    /// global history folded into the index. `history_bits = 0` yields a
    /// pure bimodal (per-PC) predictor — the right choice when global
    /// history carries no signal, as with statistically generated traces.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 24` and `history_bits <= bits`.
    #[must_use]
    pub fn with_history(bits: u32, history_bits: u32) -> Self {
        assert!((1..=24).contains(&bits), "predictor bits out of range");
        assert!(history_bits <= bits, "history wider than the table index");
        GsharePredictor {
            table: vec![1; 1 << bits], // weakly not-taken
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            mask: (1u64 << bits) - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Creates a bimodal (PC-indexed, history-free) predictor.
    #[must_use]
    pub fn bimodal(bits: u32) -> Self {
        Self::with_history(bits, 0)
    }

    fn index(&self, pc: u64) -> usize {
        // Multiplicative hash decorrelates regularly spaced branch PCs;
        // real predictors achieve the same with set-index bit selection.
        let hashed = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        ((hashed ^ (self.history & self.history_mask)) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        // ramp-lint:allow(panic-reach) -- `index()` masks into the table length
        self.table[self.index(pc)] >= 2
    }

    /// Updates predictor state with the actual outcome and records whether
    /// the preceding prediction was correct. Returns `true` if the
    /// prediction was correct.
    // ramp-lint: hot
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        // ramp-lint:allow(panic-reach) -- `index()` masks into the table length
        let predicted = self.table[idx] >= 2;
        let counter = &mut self.table[idx]; // ramp-lint:allow(panic-reach) -- `index()` masks into the table length
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        self.predictions += 1;
        if predicted != taken {
            self.mispredictions += 1;
        }
        predicted == taken
    }

    /// History bits folded into the index (0 for a bimodal predictor).
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_mask.count_ones()
    }

    /// Fraction of updates where the prediction was wrong.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Total branches predicted.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut p = GsharePredictor::new(10);
        for _ in 0..64 {
            p.update(0x1000, true);
        }
        // After warm-up the branch should be predicted near-perfectly.
        let before = p.mispredict_rate();
        for _ in 0..64 {
            p.update(0x1000, true);
        }
        assert!(p.mispredict_rate() <= before);
        assert!(p.predict(0x1000));
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = GsharePredictor::new(12);
        let mut correct = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            if p.update(0x2000, taken) && i > 200 {
                correct += 1;
            }
        }
        // History-based indexing should crack a strict alternation.
        assert!(correct > 1500, "correct after warm-up: {correct}");
    }

    #[test]
    fn random_branch_near_half_accuracy() {
        let mut p = GsharePredictor::new(12);
        let mut rng = ramp_trace::Rng::seed_from(99);
        for _ in 0..20_000 {
            p.update(0x3000, rng.chance(0.5));
        }
        let rate = p.mispredict_rate();
        assert!((0.4..0.6).contains(&rate), "mispredict rate {rate}");
    }

    #[test]
    #[should_panic(expected = "bits out of range")]
    fn rejects_oversized_table() {
        let _ = GsharePredictor::new(30);
    }
}
