//! Procedure A1: the deterministic online format check (condition (i)).
//!
//! A1 verifies, in `O(k)` space, that the input has the shape
//! `1^k # (b^{2^{2k}} #)^{3·2^k}` — i.e. a `1^k#` prefix followed by
//! exactly `3·2^k` bit-blocks of length exactly `2^{2k}`, each terminated
//! by `#`, with nothing after the last one. It keeps three counters
//! (ones seen, position inside the current block, blocks completed), all
//! logarithmic in the input length.

use oqsc_lang::Sym;
use oqsc_machine::session::{put_u32, put_u8, put_usize};
use oqsc_machine::{
    bits_for_counter, ByteReader, CheckpointError, Checkpointable, SpaceMeter, StreamingDecider,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Reading the `1^k` prefix.
    Prefix,
    /// Inside block `blocks_done`, `block_pos` bits in.
    Block,
    /// All blocks consumed; any further symbol is an error.
    Done,
    /// Unrecoverable shape violation.
    Failed,
}

/// Streaming implementation of procedure A1.
#[derive(Clone, Debug)]
pub struct FormatChecker {
    phase: Phase,
    k: u32,
    m: usize,
    total_blocks: usize,
    block_pos: usize,
    blocks_done: usize,
    meter: SpaceMeter,
}

impl FormatChecker {
    /// A fresh checker (the parameter `k` is read off the stream itself).
    pub fn new() -> Self {
        FormatChecker {
            phase: Phase::Prefix,
            k: 0,
            m: 0,
            total_blocks: 0,
            block_pos: 0,
            blocks_done: 0,
            meter: SpaceMeter::new(),
        }
    }

    /// The prefix parameter, available once the first `#` has been read
    /// (0 before that).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// True once the stream has irrecoverably failed the shape check
    /// (lets a combined recognizer shortcut).
    pub fn failed(&self) -> bool {
        self.phase == Phase::Failed
    }

    /// Consumes one step of `feed_all`: a run of block bits, or one
    /// symbol.
    fn consume(&mut self, step: &[Sym]) {
        match self.phase {
            Phase::Failed => {}
            Phase::Prefix => match step[0] {
                Sym::One => {
                    if self.k >= 24 {
                        // A prefix this long means m = 2^{2k} overflows any
                        // realistic input; the word cannot be well formed.
                        self.phase = Phase::Failed;
                    } else {
                        self.k += 1;
                    }
                }
                Sym::Hash => {
                    if self.k == 0 {
                        self.phase = Phase::Failed;
                    } else {
                        self.m = 1usize << (2 * self.k);
                        self.total_blocks = 3 * (1usize << self.k);
                        self.phase = Phase::Block;
                    }
                }
                Sym::Zero => self.phase = Phase::Failed,
            },
            Phase::Block => match step[0] {
                Sym::Zero | Sym::One => {
                    // The bit that takes `block_pos` past `m` fails the
                    // word; the rest of the run is ignored.
                    let room = self.m.saturating_sub(self.block_pos);
                    if step.len() > room {
                        self.block_pos += room + 1;
                        self.phase = Phase::Failed;
                    } else {
                        self.block_pos += step.len();
                    }
                }
                Sym::Hash => {
                    if self.block_pos != self.m {
                        self.phase = Phase::Failed;
                    } else {
                        self.block_pos = 0;
                        self.blocks_done += 1;
                        if self.blocks_done == self.total_blocks {
                            self.phase = Phase::Done;
                        }
                    }
                }
            },
            Phase::Done => self.phase = Phase::Failed,
        }
    }

    fn remeter(&mut self) {
        // The live state: the three counters plus the constant-size phase
        // tag. `k` and `m` are derived from the ones-counter; we charge the
        // counters at their current magnitudes, as a real work tape would.
        let bits = bits_for_counter(self.k as usize)
            + bits_for_counter(self.m.max(self.block_pos))
            + bits_for_counter(self.total_blocks.max(self.blocks_done))
            + 2;
        self.meter.record(bits);
    }
}

impl Default for FormatChecker {
    fn default() -> Self {
        FormatChecker::new()
    }
}

impl StreamingDecider for FormatChecker {
    // Inlined so a per-symbol caller's loop keeps A1's few counter
    // updates in registers (measured 2× on a direct per-symbol run).
    #[inline]
    fn feed(&mut self, sym: Sym) {
        self.consume(std::slice::from_ref(&sym));
        self.remeter();
    }

    /// Consumes each bit run of a block in one step, re-metering once per
    /// step: only `block_pos` moves inside a run, so the metered bits
    /// never decrease there and one reading equals the per-symbol peak.
    fn feed_all(&mut self, word: &[Sym]) {
        let mut rest = word;
        while !rest.is_empty() {
            let step;
            (step, rest) = crate::split_step(rest, self.phase == Phase::Block);
            self.consume(step);
            self.remeter();
        }
    }

    fn decide(&mut self) -> bool {
        self.phase == Phase::Done
    }

    fn space_bits(&self) -> usize {
        self.meter.peak_bits()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(match self.phase {
            Phase::Prefix => 0,
            Phase::Block => 1,
            Phase::Done => 2,
            Phase::Failed => 3,
        });
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.block_pos as u64).to_le_bytes());
        out.extend_from_slice(&(self.blocks_done as u64).to_le_bytes());
        out
    }
}

impl Checkpointable for FormatChecker {
    const TYPE_TAG: &'static str = "FormatChecker";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self.phase {
                Phase::Prefix => 0,
                Phase::Block => 1,
                Phase::Done => 2,
                Phase::Failed => 3,
            },
        );
        put_u32(out, self.k);
        put_usize(out, self.m);
        put_usize(out, self.total_blocks);
        put_usize(out, self.block_pos);
        put_usize(out, self.blocks_done);
        self.meter.write_checkpoint(out);
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        let phase = match r.read_u8()? {
            0 => Phase::Prefix,
            1 => Phase::Block,
            2 => Phase::Done,
            3 => Phase::Failed,
            v => return Err(CheckpointError::Malformed(format!("bad A1 phase tag {v}"))),
        };
        let k = r.read_u32()?;
        let m = r.read_usize()?;
        let total_blocks = r.read_usize()?;
        let block_pos = r.read_usize()?;
        let blocks_done = r.read_usize()?;
        Ok(FormatChecker {
            phase,
            k,
            m,
            total_blocks,
            block_pos,
            blocks_done,
            meter: SpaceMeter::read_checkpoint(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_lang::gen::{malform, random_member, Malformation};
    use oqsc_lang::token::from_str;
    use oqsc_lang::{encoded_len, parse_shape};
    use oqsc_machine::run_decider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(s: &str) -> bool {
        let word = from_str(s).expect("valid symbols");
        run_decider(FormatChecker::new(), &word).accept
    }

    #[test]
    fn accepts_well_formed() {
        assert!(check("1#1010#0101#1010#1010#0101#1010#"));
    }

    #[test]
    fn rejects_shape_violations() {
        assert!(!check(""));
        assert!(!check("#"));
        assert!(!check("0#"));
        assert!(!check("1#"));
        assert!(!check("1#101#0101#1010#1010#0101#1010#")); // short block
        assert!(!check("1#10100#0101#1010#1010#0101#1010#")); // long block
        assert!(!check("1#1010#0101#1010#")); // too few blocks
        assert!(!check("1#1010#0101#1010#1010#0101#1010#1")); // trailing
        assert!(!check("1#1010#0101#1010#1010#0101#1010##")); // trailing #
    }

    #[test]
    fn agrees_with_reference_parser_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(70);
        for k in 1..=3u32 {
            let inst = random_member(k, &mut rng);
            let word = inst.encode();
            assert!(run_decider(FormatChecker::new(), &word).accept);
            assert!(parse_shape(&word).is_ok());
            for kind in [
                Malformation::MissingPrefix,
                Malformation::ShortBlock,
                Malformation::TrailingSymbol,
                Malformation::Truncated,
            ] {
                let bad = malform(&inst, kind, &mut rng);
                let a1 = run_decider(FormatChecker::new(), &bad).accept;
                assert!(!a1, "k={k} {kind:?}");
                assert!(parse_shape(&bad).is_err());
            }
            // Consistency corruptions keep the shape — A1 must still pass.
            for kind in [
                Malformation::ZCopyMismatch,
                Malformation::XDriftAcrossRounds,
                Malformation::YDriftAcrossRounds,
            ] {
                let bad = malform(&inst, kind, &mut rng);
                assert!(
                    run_decider(FormatChecker::new(), &bad).accept,
                    "k={k} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn space_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut prev_space = 0usize;
        for k in 1..=5u32 {
            let inst = random_member(k, &mut rng);
            let out = run_decider(FormatChecker::new(), &inst.encode());
            let (ok, space) = (out.accept, out.classical_bits);
            assert!(ok);
            let n = encoded_len(k);
            // O(log n): generous constant 10.
            assert!(
                space <= 10 * ((n as f64).log2().ceil() as usize),
                "k={k}: space {space} vs n={n}"
            );
            assert!(space >= prev_space, "space grows with k");
            prev_space = space;
        }
    }

    #[test]
    fn exposes_k_after_prefix() {
        let word = from_str("111#").expect("syms");
        let mut c = FormatChecker::new();
        c.feed_all(&word);
        assert_eq!(c.k(), 3);
        assert!(!c.failed());
    }

    #[test]
    fn snapshot_changes_with_state() {
        let mut a = FormatChecker::new();
        let mut b = FormatChecker::new();
        a.feed(Sym::One);
        assert_ne!(a.snapshot(), b.snapshot());
        b.feed(Sym::One);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn absurd_prefix_fails_fast() {
        let mut c = FormatChecker::new();
        for _ in 0..100 {
            c.feed(Sym::One);
        }
        assert!(c.failed());
    }
}
