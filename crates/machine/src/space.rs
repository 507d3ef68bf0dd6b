//! Work-space accounting.
//!
//! Every online algorithm in this reproduction reports its footprint
//! through a [`SpaceMeter`], so that the space columns of the experiment
//! tables (`EXPERIMENTS.md`) come from *measured* state, not from the
//! asymptotic claim being checked.

/// Tracks the current and peak work-space of a streaming computation, in
/// bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceMeter {
    current_bits: usize,
    peak_bits: usize,
}

impl SpaceMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        SpaceMeter::default()
    }

    /// Rebuilds a meter from trusted readings.
    ///
    /// # Panics
    /// If `peak_bits < current_bits` (no valid history produces that).
    /// Wire bytes must go through [`read_checkpoint`](Self::read_checkpoint)
    /// instead, which rejects such readings as a
    /// [`CheckpointError`](crate::session::CheckpointError).
    pub fn from_parts(current_bits: usize, peak_bits: usize) -> Self {
        assert!(
            peak_bits >= current_bits,
            "peak ({peak_bits}) below current ({current_bits})"
        );
        SpaceMeter {
            current_bits,
            peak_bits,
        }
    }

    /// Serializes the readings for a session checkpoint.
    pub fn write_checkpoint(&self, out: &mut Vec<u8>) {
        crate::session::put_usize(out, self.current_bits);
        crate::session::put_usize(out, self.peak_bits);
    }

    /// Restores a meter from checkpoint bytes, rejecting readings no
    /// valid history produces (a corrupted checkpoint must fail resume
    /// with an error, never a panic).
    pub fn read_checkpoint(
        r: &mut crate::session::ByteReader,
    ) -> Result<Self, crate::session::CheckpointError> {
        let current_bits = r.read_usize()?;
        let peak_bits = r.read_usize()?;
        if peak_bits < current_bits {
            return Err(crate::session::CheckpointError::Malformed(format!(
                "space meter peak ({peak_bits}) below current ({current_bits})"
            )));
        }
        Ok(SpaceMeter {
            current_bits,
            peak_bits,
        })
    }

    /// Records the *current* total footprint; the peak is updated
    /// automatically.
    pub fn record(&mut self, bits: usize) {
        self.current_bits = bits;
        self.peak_bits = self.peak_bits.max(bits);
    }

    /// Adds to the current footprint.
    pub fn grow(&mut self, bits: usize) {
        self.record(self.current_bits + bits);
    }

    /// Removes from the current footprint (saturating).
    pub fn shrink(&mut self, bits: usize) {
        self.current_bits = self.current_bits.saturating_sub(bits);
    }

    /// Current footprint in bits.
    #[inline]
    pub fn current_bits(&self) -> usize {
        self.current_bits
    }

    /// Peak footprint in bits — the quantity the paper's space bounds
    /// constrain ("space used on the worst coin flips").
    #[inline]
    pub fn peak_bits(&self) -> usize {
        self.peak_bits
    }

    /// Merges another meter's peak (parallel sub-procedures share the
    /// worst case additively: A1 ∥ A2 ∥ A3 all run at once).
    pub fn add_parallel(&mut self, other: &SpaceMeter) {
        self.current_bits += other.current_bits;
        self.peak_bits += other.peak_bits;
    }
}

/// Bits needed to store a value in `{0, …, n−1}`: `⌈log₂ n⌉` (0 for n ≤ 1).
pub fn bits_for_range(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Bits needed for a counter counting up to and including `max`.
pub fn bits_for_counter(max: usize) -> usize {
    bits_for_range(max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_checkpoint_round_trips_and_rejects_impossible_readings() {
        let mut m = SpaceMeter::new();
        m.record(10);
        m.record(4);
        let mut bytes = Vec::new();
        m.write_checkpoint(&mut bytes);
        let mut r = crate::session::ByteReader::new(&bytes);
        let back = SpaceMeter::read_checkpoint(&mut r).expect("valid readings");
        assert_eq!(back, m);
        // peak < current never arises from a real history: corrupted wire
        // bytes must fail with an error, not a panic.
        let mut corrupt = Vec::new();
        crate::session::put_usize(&mut corrupt, 12);
        crate::session::put_usize(&mut corrupt, 5);
        let mut r = crate::session::ByteReader::new(&corrupt);
        assert!(matches!(
            SpaceMeter::read_checkpoint(&mut r),
            Err(crate::session::CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn meter_tracks_peak() {
        let mut m = SpaceMeter::new();
        assert_eq!(m.peak_bits(), 0);
        m.record(10);
        m.record(4);
        assert_eq!(m.current_bits(), 4);
        assert_eq!(m.peak_bits(), 10);
        m.grow(20);
        assert_eq!(m.current_bits(), 24);
        assert_eq!(m.peak_bits(), 24);
        m.shrink(30);
        assert_eq!(m.current_bits(), 0);
        assert_eq!(m.peak_bits(), 24);
    }

    #[test]
    fn parallel_composition_adds() {
        let mut a = SpaceMeter::new();
        a.record(8);
        let mut b = SpaceMeter::new();
        b.record(5);
        b.record(3);
        a.add_parallel(&b);
        assert_eq!(a.peak_bits(), 13);
        assert_eq!(a.current_bits(), 11);
    }

    #[test]
    fn range_bits() {
        assert_eq!(bits_for_range(0), 0);
        assert_eq!(bits_for_range(1), 0);
        assert_eq!(bits_for_range(2), 1);
        assert_eq!(bits_for_range(3), 2);
        assert_eq!(bits_for_range(4), 2);
        assert_eq!(bits_for_range(5), 3);
        assert_eq!(bits_for_range(1 << 20), 20);
    }

    #[test]
    fn counter_bits() {
        assert_eq!(bits_for_counter(0), 0);
        assert_eq!(bits_for_counter(1), 1);
        assert_eq!(bits_for_counter(7), 3);
        assert_eq!(bits_for_counter(8), 4);
    }
}
