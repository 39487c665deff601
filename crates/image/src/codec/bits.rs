//! Bit-level I/O for the entropy coder.

use crate::{ImageError, Result};

/// Accumulates bits most-significant-first into a byte vector.
///
/// # Examples
///
/// ```
/// use bees_image::codec::bits::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), bees_image::ImageError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xFF);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits in the low `filled` bits; bits above them are stale.
    acc: u64,
    /// Number of pending bits, below 32 between calls.
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer whose bits follow `prefix` (a header, say), so
    /// [`into_bytes`](Self::into_bytes) returns prefix and bitstream in one
    /// vector, grown from `prefix`'s capacity. [`bit_len`](Self::bit_len)
    /// counts the prefix.
    pub(crate) fn with_prefix(prefix: Vec<u8>) -> Self {
        BitWriter {
            bytes: prefix,
            ..Self::default()
        }
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let count = u32::from(count);
        if count > 32 {
            self.push(value >> 32, count - 32);
            self.push(value, 32);
        } else {
            self.push(value, count);
        }
    }

    /// Appends the low `count` bits of `value`, `count` at most 32, and
    /// moves every 32 complete bits to the byte vector as one word.
    #[inline]
    fn push(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 32 && self.filled < 32);
        self.acc = (self.acc << count) | (value & ((1u64 << count) - 1));
        self.filled += count;
        if self.filled >= 32 {
            self.filled -= 32;
            let word = (self.acc >> self.filled) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.push(bit as u64, 1);
    }

    /// Number of complete bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    /// Flushes (zero-padding the final partial byte) and returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let word = ((self.acc << (32 - self.filled)) as u32).to_be_bytes();
        let tail = self.filled.div_ceil(8) as usize;
        self.bytes.extend_from_slice(&word[..tail]);
        self.bytes
    }
}

/// The error every read past the end of the input returns.
pub(crate) const END_OF_INPUT: ImageError = ImageError::CorruptBitstream {
    detail: "unexpected end of input",
};

/// Reads bits most-significant-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// The next 64 bits from the read position, most significant first,
    /// without consuming them; bits past the end of the input read as zero.
    #[inline]
    pub(crate) fn peek(&self) -> u64 {
        let (at, shift) = (self.pos / 8, self.pos % 8);
        let byte = |i: usize| u64::from(self.bytes.get(at + i).copied().unwrap_or(0));
        let head = match self.bytes.get(at..at + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
            None => (0..8).fold(0, |acc, i| (acc << 8) | byte(i)),
        };
        (head << shift) | (byte(8) << shift >> 8)
    }

    /// Consumes `count` bits, at most [`bits_remaining`](Self::bits_remaining).
    #[inline]
    pub(crate) fn skip(&mut self, count: usize) {
        debug_assert!(count <= self.bits_remaining());
        self.pos += count;
    }

    /// Reads `count` bits into the low bits of a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::CorruptBitstream`] if the input is exhausted;
    /// the bits that were left are consumed.
    pub fn read_bits(&mut self, count: u8) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let remaining = self.bits_remaining();
        if usize::from(count) > remaining {
            self.skip(remaining);
            return Err(END_OF_INPUT);
        }
        let value = match count {
            0 => 0,
            n => self.peek() >> (64 - n),
        };
        self.skip(count.into());
        Ok(value)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::CorruptBitstream`] if the input is exhausted.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = *self.bytes.get(self.pos / 8).ok_or(END_OF_INPUT)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.pos
    }

    /// Number of bits still available to read.
    pub fn bits_remaining(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u8)> = vec![
            (1, 1),
            (0, 1),
            (0b1011, 4),
            (0xABCD, 16),
            (u64::MAX >> 3, 61),
            (7, 3),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 10);
        assert_eq!(w.into_bytes().len(), 2);
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }
}
