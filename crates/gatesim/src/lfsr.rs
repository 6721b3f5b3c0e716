//! Linear-feedback shift registers.
//!
//! The test chip has an `en_LFSR` pin (Fig 2): an on-chip pattern
//! generator that feeds the AES core with plaintexts so encryption can
//! run back-to-back without waiting on the UART. The same primitive
//! generates T3's CDMA spreading code.

/// A Fibonacci LFSR over up to 64 bits.
///
/// # Example
///
/// ```
/// use psa_gatesim::lfsr::Lfsr;
/// // Maximal-length 31-bit LFSR.
/// let mut l = Lfsr::new_31bit(0xACE1);
/// let first = l.next_bit();
/// let _ = first;
/// assert_ne!(l.state(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u64,
    taps: u64,
    width: u32,
}

impl Lfsr {
    /// Creates an LFSR with the given tap mask and width (bits). The
    /// feedback bit is the parity of `state & taps` and is shifted into
    /// the MSB (Fibonacci form). A zero seed is silently replaced by 1
    /// (the all-zero state is a fixed point).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn new(seed: u64, taps: u64, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let state = seed & mask;
        Lfsr {
            state: if state == 0 { 1 } else { state },
            taps: taps & mask,
            width,
        }
    }

    /// Maximal-length 31-bit LFSR (polynomial x³¹+x²⁸+1, feedback =
    /// bit 0 ⊕ bit 3) — cheap and long.
    pub fn new_31bit(seed: u32) -> Self {
        Lfsr::new(seed as u64, 0b1001, 31)
    }

    /// The current register state.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one step and returns the output bit.
    pub fn next_bit(&mut self) -> bool {
        let fb = (self.state & self.taps).count_ones() & 1;
        let out = self.state & 1 == 1;
        self.state = (self.state >> 1) | ((fb as u64) << (self.width - 1));
        out
    }

    /// Returns the next `n` bits packed LSB-first into bytes.
    pub fn next_bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        for byte in &mut out {
            for bit in 0..8 {
                if self.next_bit() {
                    *byte |= 1 << bit;
                }
            }
        }
        out
    }

    /// Generates a 16-byte plaintext block.
    pub fn next_block(&mut self) -> [u8; 16] {
        let bytes = self.next_bytes(16);
        let mut block = [0u8; 16];
        block.copy_from_slice(&bytes);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximal-length 16-bit LFSR (polynomial x¹⁶+x¹⁴+x¹³+x¹¹+1, i.e.
    /// feedback = parity of bits 0, 2, 3, 5).
    fn lfsr16(seed: u16) -> Lfsr {
        Lfsr::new(seed as u64, 0b10_1101, 16)
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let l = Lfsr::new(0, 0b11, 4);
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn sixteen_bit_lfsr_has_maximal_period() {
        let mut l = lfsr16(0xACE1);
        let start = l.state();
        let mut period = 0u64;
        loop {
            l.next_bit();
            period += 1;
            if l.state() == start || period > 70_000 {
                break;
            }
        }
        assert_eq!(period, 65_535);
    }

    #[test]
    fn state_never_zero() {
        let mut l = lfsr16(1);
        for _ in 0..10_000 {
            l.next_bit();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn bytes_are_balanced() {
        // Rough balance check: ones fraction within 45-55 % over 4 kB.
        let mut l = Lfsr::new_31bit(0xDEADBEEF);
        let bytes = l.next_bytes(4096);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let frac = ones as f64 / (4096.0 * 8.0);
        assert!((0.45..0.55).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn blocks_differ() {
        let mut l = Lfsr::new_31bit(7);
        let a = l.next_block();
        let b = l.next_block();
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Lfsr::new_31bit(123);
        let mut b = Lfsr::new_31bit(123);
        for _ in 0..100 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Lfsr::new(1, 1, 0);
    }
}
