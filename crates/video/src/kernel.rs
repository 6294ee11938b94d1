//! Word-wide frame-diff kernels: the raw-speed core of frame comparison.
//!
//! Every frame-matching question in the pipeline reduces to "how many
//! bytes of these two equal-length slices differ by more than `tol`?",
//! asked millions of times per study. On x86-64 the `sse2` module
//! answers it sixteen pixels per vector with three saturating
//! subtractions and a `movemask`/`popcount`; everywhere else the portable
//! kernels answer it eight pixels per `u64` using SWAR
//! (SIMD-within-a-register) arithmetic:
//!
//! * a word-level XOR fast path skips eight equal pixels in one compare —
//!   the overwhelmingly common case, since most of any two frames of the
//!   same UI is identical;
//! * for `tol == 0`, differing bytes of `x = a ^ b` are counted with the
//!   classic nonzero-byte mask `(((x & !H) + !H) | x) & H` and one
//!   `popcount`;
//! * for general `tol`, per-byte saturating comparisons are built from a
//!   borrow-free packed subtraction (`swar_sub`) and an unsigned
//!   per-byte less-than (`swar_lt`), so `|a − b| > tol` is evaluated for
//!   all eight lanes at once;
//! * the early-exit form gives up as soon as the mismatch budget is
//!   blown, checked once per word rather than once per pixel.
//!
//! Heads and tails that do not fill a word fall back to the scalar loop.
//! The pre-kernel per-pixel implementation is kept verbatim in
//! [`reference`](mod@reference); property tests (`tests/kernel_equivalence.rs`) pin the
//! kernels to it over random frames, tolerances and slice lengths, and
//! the `perf_trajectory` bench reports the speedup per PR.

/// High (sign) bit of every byte lane.
const HI: u64 = 0x8080_8080_8080_8080;
/// Low seven bits of every byte lane.
const L7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// Broadcasts a byte into all eight lanes.
const LO: u64 = 0x0101_0101_0101_0101;

/// Loads eight bytes as a little-endian word (no alignment requirement).
#[inline(always)]
fn load(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk of 8"))
}

/// Packed per-byte wrapping subtraction `x - y` with no borrow leaking
/// between lanes: each minuend byte is lifted to `>= 0x80` while each
/// subtrahend byte is clamped to `<= 0x7f`, so every lane subtracts
/// independently, and the XOR terms restore the true low-7-bit and sign
/// bits of the wrapping difference.
#[inline(always)]
fn swar_sub(x: u64, y: u64) -> u64 {
    ((x | HI) - (y & L7)) ^ ((x ^ !y) & HI)
}

/// Per-byte unsigned `x < y`: the high bit of each lane is set exactly
/// when that lane of `x` is less than the same lane of `y`. This is the
/// borrow-out of the lane-wise subtraction `x - y`, assembled from the
/// operands' sign bits and the difference's sign bit.
#[inline(always)]
fn swar_lt(x: u64, y: u64) -> u64 {
    ((!x & y) | ((!x | y) & swar_sub(x, y))) & HI
}

/// High bit set in each lane where the bytes of `x` differ at all; with
/// `x = a ^ b` this marks the lanes where `a` and `b` disagree.
#[inline(always)]
fn nonzero_bytes(x: u64) -> u64 {
    (((x & L7) + L7) | x) & HI
}

/// High bit set in each lane where `|a - b| > tol` (`tolx` is the
/// tolerance broadcast to all lanes). The two subtraction directions are
/// gated by which operand is larger, because the *wrapping* difference in
/// the wrong direction is a large byte that would false-trip `> tol`.
#[inline(always)]
fn over_mask(a: u64, b: u64, tolx: u64) -> u64 {
    (swar_lt(b, a) & swar_lt(tolx, swar_sub(a, b)))
        | (swar_lt(a, b) & swar_lt(tolx, swar_sub(b, a)))
}

/// Number of positions where `a` and `b` differ by more than `tol`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn count_over(a: &[u8], b: &[u8], tol: u8) -> u64 {
    assert_eq!(a.len(), b.len(), "diff kernels need equal-length slices");
    if tol == u8::MAX {
        // No byte pair can exceed the maximum possible difference.
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    return sse2::count_over(a, b, tol);
    #[cfg(not(target_arch = "x86_64"))]
    swar_count_over(a, b, tol)
}

/// The portable SWAR form of [`count_over`] (the x86-64 build dispatches
/// to [`sse2`] instead); the equivalence tests exercise it on every
/// architecture.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
pub(crate) fn swar_count_over(a: &[u8], b: &[u8], tol: u8) -> u64 {
    let mut over = 0u64;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    if tol == 0 {
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            let x = load(wa) ^ load(wb);
            if x != 0 {
                over += nonzero_bytes(x).count_ones() as u64;
            }
        }
    } else {
        let tolx = tol as u64 * LO;
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            let (x, y) = (load(wa), load(wb));
            if x != y {
                over += over_mask(x, y, tolx).count_ones() as u64;
            }
        }
    }
    for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
        if pa.abs_diff(pb) > tol {
            over += 1;
        }
    }
    over
}

/// `true` as soon as more than `limit` positions differ by more than
/// `tol` — the early-exit form of [`count_over`], deciding once per word
/// instead of visiting every remaining pixel.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn exceeds(a: &[u8], b: &[u8], tol: u8, limit: u64) -> bool {
    assert_eq!(a.len(), b.len(), "diff kernels need equal-length slices");
    if tol == u8::MAX {
        return false;
    }
    if tol == 0 && limit == 0 {
        // Bit-exact, zero budget: one memcmp decides it.
        return a != b;
    }
    #[cfg(target_arch = "x86_64")]
    return sse2::exceeds(a, b, tol, limit);
    #[cfg(not(target_arch = "x86_64"))]
    swar_exceeds(a, b, tol, limit)
}

/// The portable SWAR form of [`exceeds`] (the x86-64 build dispatches to
/// [`sse2`] instead); the equivalence tests exercise it on every
/// architecture.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
pub(crate) fn swar_exceeds(a: &[u8], b: &[u8], tol: u8, limit: u64) -> bool {
    let mut over = 0u64;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    if tol == 0 {
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            let x = load(wa) ^ load(wb);
            if x != 0 {
                over += nonzero_bytes(x).count_ones() as u64;
                if over > limit {
                    return true;
                }
            }
        }
    } else {
        let tolx = tol as u64 * LO;
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            let (x, y) = (load(wa), load(wb));
            if x != y {
                over += over_mask(x, y, tolx).count_ones() as u64;
                if over > limit {
                    return true;
                }
            }
        }
    }
    for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
        if pa.abs_diff(pb) > tol {
            over += 1;
            if over > limit {
                return true;
            }
        }
    }
    false
}

/// The 16-lane vector kernels used on x86-64, where SSE2 is part of the
/// baseline instruction set (no runtime feature detection needed).
///
/// The whole comparison is branch-free per vector: the saturating
/// subtractions `a ⊖ b` and `b ⊖ a` OR together into the true per-byte
/// `|a − b|`, a third saturating subtraction against the broadcast
/// tolerance leaves zero exactly in the lanes within budget, and one
/// compare-to-zero plus `movemask` turns the sixteen verdicts into a bit
/// mask counted with `popcount`.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_setzero_si128, _mm_subs_epu8,
    };

    /// Bits set where the 16 lanes of `wa`/`wb` differ by more than `tol`
    /// (`tolx` is the broadcast tolerance).
    ///
    /// # Safety
    ///
    /// `wa` and `wb` must be readable for 16 bytes. SSE2 itself is always
    /// present on x86-64.
    #[inline(always)]
    unsafe fn over_bits(wa: *const __m128i, wb: *const __m128i, tolx: __m128i) -> u32 {
        let (va, vb) = (_mm_loadu_si128(wa), _mm_loadu_si128(wb));
        let diff = _mm_or_si128(_mm_subs_epu8(va, vb), _mm_subs_epu8(vb, va));
        let within = _mm_cmpeq_epi8(_mm_subs_epu8(diff, tolx), _mm_setzero_si128());
        !_mm_movemask_epi8(within) as u32 & 0xffff
    }

    /// Vector [`count_over`](super::count_over); tails shorter than one
    /// vector fall back to the scalar loop.
    pub(super) fn count_over(a: &[u8], b: &[u8], tol: u8) -> u64 {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        let tolx = unsafe { _mm_set1_epi8(tol as i8) };
        let mut over = 0u64;
        let mut ca = a.chunks_exact(16);
        let mut cb = b.chunks_exact(16);
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            // SAFETY: chunks_exact guarantees 16 readable bytes each.
            over += unsafe { over_bits(wa.as_ptr().cast(), wb.as_ptr().cast(), tolx) }.count_ones()
                as u64;
        }
        for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
            over += (pa.abs_diff(pb) > tol) as u64;
        }
        over
    }

    /// Vector [`exceeds`](super::exceeds): the budget check runs once per
    /// vector, sixteen pixels at a time.
    pub(super) fn exceeds(a: &[u8], b: &[u8], tol: u8, limit: u64) -> bool {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        let tolx = unsafe { _mm_set1_epi8(tol as i8) };
        let mut over = 0u64;
        let mut ca = a.chunks_exact(16);
        let mut cb = b.chunks_exact(16);
        for (wa, wb) in (&mut ca).zip(&mut cb) {
            // SAFETY: chunks_exact guarantees 16 readable bytes each.
            over += unsafe { over_bits(wa.as_ptr().cast(), wb.as_ptr().cast(), tolx) }.count_ones()
                as u64;
            if over > limit {
                return true;
            }
        }
        for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
            if pa.abs_diff(pb) > tol {
                over += 1;
                if over > limit {
                    return true;
                }
            }
        }
        false
    }
}

/// The per-pixel implementations the kernels replaced, kept verbatim as
/// the ground truth for equivalence tests and the baseline the
/// `perf_trajectory` bench measures speedups against.
pub mod reference {
    /// Per-pixel [`count_over`](super::count_over): the PR-1 scalar diff.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn count_over(a: &[u8], b: &[u8], tol: u8) -> u64 {
        assert_eq!(a.len(), b.len(), "diff kernels need equal-length slices");
        a.iter().zip(b).filter(|(p, q)| p.abs_diff(**q) > tol).count() as u64
    }

    /// Per-pixel [`exceeds`](super::exceeds): the PR-1 scalar early-exit
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn exceeds(a: &[u8], b: &[u8], tol: u8, limit: u64) -> bool {
        assert_eq!(a.len(), b.len(), "diff kernels need equal-length slices");
        let mut over = 0u64;
        for (p, q) in a.iter().zip(b) {
            if p.abs_diff(*q) > tol {
                over += 1;
                if over > limit {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little deterministic byte generator for exhaustive-ish coverage.
    fn splat(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn swar_sub_matches_per_byte_wrapping_sub() {
        for (sa, sb) in [(1u64, 2u64), (3, 5), (8, 13), (21, 34)] {
            let a = load(&splat(sa, 8));
            let b = load(&splat(sb, 8));
            let got = swar_sub(a, b).to_le_bytes();
            for (i, lane) in got.into_iter().enumerate() {
                assert_eq!(lane, a.to_le_bytes()[i].wrapping_sub(b.to_le_bytes()[i]));
            }
        }
    }

    #[test]
    fn swar_lt_matches_per_byte_unsigned_lt() {
        for (sa, sb) in [(2u64, 7u64), (9, 4), (11, 11), (100, 200)] {
            let a = load(&splat(sa, 8));
            let b = load(&splat(sb, 8));
            let got = swar_lt(a, b).to_le_bytes();
            for (i, lane) in got.into_iter().enumerate() {
                let expect = if a.to_le_bytes()[i] < b.to_le_bytes()[i] { 0x80 } else { 0 };
                assert_eq!(lane, expect, "lane {i} of {a:#x} < {b:#x}");
            }
        }
    }

    #[test]
    fn count_over_agrees_with_reference_on_awkward_lengths() {
        // Lengths straddling the word boundary, incl. head/tail-only.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            for tol in [0u8, 1, 3, 127, 128, 200, 254, 255] {
                let a = splat(len as u64 + 1, len);
                let b = splat(len as u64 * 31 + 7, len);
                assert_eq!(
                    count_over(&a, &b, tol),
                    reference::count_over(&a, &b, tol),
                    "len {len} tol {tol}"
                );
            }
        }
    }

    #[test]
    fn large_tolerance_does_not_false_positive() {
        // tol=200 with |a-b|=10: the naive wrapping-sub-in-both-directions
        // check would see 246 > 200 and miscount.
        let a = [100u8; 24];
        let b = [110u8; 24];
        assert_eq!(count_over(&a, &b, 200), 0);
        assert_eq!(count_over(&a, &b, 9), 24);
        assert!(!exceeds(&a, &b, 200, 0));
        assert!(exceeds(&a, &b, 9, 23));
        assert!(!exceeds(&a, &b, 10, 0));
    }

    #[test]
    fn exceeds_honours_limit_edges() {
        let a = splat(3, 100);
        let b = splat(4, 100);
        for tol in [0u8, 2, 50, 255] {
            let n = count_over(&a, &b, tol);
            for limit in [0, n.saturating_sub(1), n, n + 1] {
                assert_eq!(exceeds(&a, &b, tol, limit), n > limit, "tol {tol} limit {limit}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        count_over(&[0; 4], &[0; 5], 0);
    }

    /// The portable SWAR bodies are not dispatched to on x86-64 builds;
    /// pin them to the reference here so every architecture's path stays
    /// covered by the same suite.
    #[test]
    fn portable_swar_path_matches_reference() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            for tol in [0u8, 1, 3, 127, 128, 200, 254] {
                let a = splat(len as u64 + 13, len);
                let b = splat(len as u64 * 17 + 5, len);
                let n = reference::count_over(&a, &b, tol);
                assert_eq!(swar_count_over(&a, &b, tol), n, "len {len} tol {tol}");
                for limit in [0, n.saturating_sub(1), n, n + 1, u64::MAX - 1] {
                    assert_eq!(
                        swar_exceeds(&a, &b, tol, limit),
                        n > limit,
                        "len {len} tol {tol} limit {limit}"
                    );
                }
            }
        }
    }
}
