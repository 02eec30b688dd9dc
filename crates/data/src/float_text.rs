//! Float text for the CSV codec: an `f64` written as `Display` writes it,
//! and a plain decimal read back with `str::parse`'s bits, both straight
//! on byte buffers.
//!
//! # Writing: Ryū in `Display`'s layout
//!
//! [`write_f64`] finds the shortest decimal digits that round-trip with
//! Ryū (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018) and
//! lays them out exactly as `<f64 as Display>` does: positional, never an
//! exponent, a `-` on every negative value including `-0`. One choice
//! follows `Display` rather than published Ryū: **exact ties round up.**
//! When the value lies exactly halfway between the two shortest
//! candidates, `Display` takes the upper one, so 2⁻²⁵ prints
//! `0.000000029802322387695313`; published Ryū rounds half to even and
//! gives `…5312`.
//!
//! # Reading: Clinger, then Eisel–Lemire
//!
//! [`parse_decimal`] reads the one spelling the CSV writers produce,
//! `-?digits[.digits]`, from the front of a byte slice. With at most 19
//! significant digits (every digit after the leading zeros counts) the
//! digits form an exact `u64` mantissa `w` and the value is `w·10⁻ᶠ`, `f`
//! the number of fraction digits. It is converted by one of two exact
//! methods, the ones `str::parse` itself starts with:
//!
//! * Clinger's fast path when `w ≤ 2⁵³` and `f ≤ 22`: both operands are
//!   exact doubles, so one IEEE division rounds correctly;
//! * otherwise Eisel–Lemire (Daniel Lemire, "Number Parsing at a Gigabyte
//!   per Second", 2021), which multiplies by a 128-bit power of five and
//!   gives up when the product is too close to a rounding boundary.
//!
//! Both methods round correctly, as `str::parse` does, so a value they
//! produce has `str::parse`'s bits. Anything else — a sign `+`, an
//! exponent, more than 19 significant digits, more than 342 fraction
//! digits, a case Eisel–Lemire leaves undecided, or no digit at all — gives
//! `None`, and the caller hands the text to `str::parse`.
//!
//! # Tables
//!
//! Both algorithms scale by powers of five. Their 128-bit tables are
//! derived once per process, at first use, by exact multi-limb integer
//! arithmetic: 5^q by repeated multiplication by five, and `⌊2ᴺ/5^q⌋` by
//! repeated floor division of 2ᴺ by five, which is exact because
//! `⌊⌊x/5⌋/5⌋ = ⌊x/25⌋`. Every entry is then a shift of one of those.

use std::sync::LazyLock;

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five in Ryū's tables.
const RYU_POW5_BITS: i32 = 125;
/// Ryū's largest index into the power-of-five table: the smallest binary
/// exponent, −1076, takes q = 751 and index 1076 − 751.
const RYU_POW5_MAX: usize = 325;
/// Ryū's largest index into the inverse table: the largest binary exponent,
/// 969, takes q = ⌊969·log₁₀2⌋ − 1.
const RYU_POW5_INV_MAX: usize = 290;
/// Eisel–Lemire's smallest power of ten: below it a 19-digit mantissa
/// rounds to zero.
const LEMIRE_MIN_POW10: i64 = -342;
/// 2ᴺ for the floor divisions: at least Eisel–Lemire's largest scale,
/// `2·bitlen(5³⁴²) + 128 = 1718` bits.
const DIVIDEND_BITS: u32 = 1792;

/// The powers of five both algorithms scale by.
struct Pow5Tables {
    /// Ryū's `5^i` to its leading 125 bits, truncated, for `i ≤ 325`.
    ryu_pow5: Vec<u128>,
    /// Ryū's `⌊2^(bitlen(5^q) + 124) / 5^q⌋ + 1`, for `q ≤ 290`: the
    /// leading 125 or 126 bits of `5^−q`, rounded up.
    ryu_pow5_inv: Vec<u128>,
    /// Eisel–Lemire's `5^−k` for `k ≤ 342`, normalized so bit 127 is set:
    /// `⌊2ᵇ/5ᵏ⌋ + 1` truncated to 128 bits, where `b = z + 127` for
    /// `k ≤ 27` and `b = 2z + 128` above, `z = bitlen(5ᵏ)` (fast_float's
    /// table).
    lemire_pow5_inv: Vec<u128>,
}

impl Pow5Tables {
    fn build() -> Self {
        let k_max = (-LEMIRE_MIN_POW10) as usize;
        let mut pow5 = vec![1u64];
        let mut quotient = vec![0u64; DIVIDEND_BITS as usize / 64 + 1];
        *quotient.last_mut().expect("nonempty") = 1;
        let mut tables = Pow5Tables {
            ryu_pow5: Vec::with_capacity(RYU_POW5_MAX + 1),
            ryu_pow5_inv: Vec::with_capacity(RYU_POW5_INV_MAX + 1),
            lemire_pow5_inv: Vec::with_capacity(k_max + 1),
        };
        // Step k holds pow5 = 5ᵏ and quotient = ⌊2ᴺ/5ᵏ⌋.
        for k in 0..=RYU_POW5_MAX.max(k_max) {
            let z = bit_len(&pow5);
            if k <= RYU_POW5_MAX {
                tables
                    .ryu_pow5
                    .push(leading_bits(&pow5, RYU_POW5_BITS as u32));
            }
            if k <= RYU_POW5_INV_MAX {
                let j = z + RYU_POW5_BITS as u32 - 1;
                tables
                    .ryu_pow5_inv
                    .push(shifted_down(&quotient, DIVIDEND_BITS - j) + 1);
            }
            if k <= k_max {
                // At k = 0 this is 2¹²⁸ + 1 truncated, 2¹²⁷.
                let b = if k <= 27 { z + 127 } else { 2 * z + 128 };
                let mut scaled = big_shr(&quotient, DIVIDEND_BITS - b);
                big_add_one(&mut scaled);
                tables.lemire_pow5_inv.push(leading_bits(&scaled, 128));
            }
            big_mul5(&mut pow5);
            big_div5(&mut quotient);
        }
        tables
    }
}

/// The tables, derived once per process on first use.
static POW5: LazyLock<Pow5Tables> = LazyLock::new(Pow5Tables::build);

/// Multiplies a little-endian multi-limb number by five.
fn big_mul5(n: &mut Vec<u64>) {
    let mut carry = 0u128;
    for limb in n.iter_mut() {
        let product = *limb as u128 * 5 + carry;
        *limb = product as u64;
        carry = product >> 64;
    }
    if carry != 0 {
        n.push(carry as u64);
    }
}

/// Replaces a little-endian multi-limb number by its floor fifth.
fn big_div5(n: &mut [u64]) {
    let mut remainder = 0u128;
    for limb in n.iter_mut().rev() {
        let current = (remainder << 64) | *limb as u128;
        *limb = (current / 5) as u64;
        remainder = current % 5;
    }
}

/// Adds one to a little-endian multi-limb number.
fn big_add_one(n: &mut Vec<u64>) {
    for limb in n.iter_mut() {
        let (sum, carry) = limb.overflowing_add(1);
        *limb = sum;
        if !carry {
            return;
        }
    }
    n.push(1);
}

/// `⌊n / 2ˢ⌋` as a multi-limb number.
fn big_shr(n: &[u64], s: u32) -> Vec<u64> {
    let (limbs, bits) = ((s / 64) as usize, s % 64);
    (limbs..n.len())
        .map(|i| {
            let high = match (bits, n.get(i + 1)) {
                (1..=63, Some(&next)) => next << (64 - bits),
                _ => 0,
            };
            (n[i] >> bits) | high
        })
        .collect()
}

/// Bit length of a multi-limb number (0 for zero).
fn bit_len(n: &[u64]) -> u32 {
    n.iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |i| 64 * i as u32 + 64 - n[i].leading_zeros())
}

/// `⌊n / 2ˢ⌋`, which must be below 2¹²⁸.
fn shifted_down(n: &[u64], s: u32) -> u128 {
    let (limb, bits) = ((s / 64) as usize, s % 64);
    let at = |i: usize| n.get(i).copied().unwrap_or(0) as u128;
    let low = at(limb) | (at(limb + 1) << 64);
    if bits == 0 {
        low
    } else {
        (low >> bits) | (at(limb + 2) << (128 - bits))
    }
}

/// The leading `bits` bits of a nonzero multi-limb number: shifted up
/// exactly when it is shorter, truncated when it is longer.
fn leading_bits(n: &[u64], bits: u32) -> u128 {
    let len = bit_len(n);
    if len >= bits {
        shifted_down(n, len - bits)
    } else {
        shifted_down(n, 0) << (bits - len)
    }
}

/// Two decimal digits per entry, `00` to `99`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `value`'s `Display` text to `out`. `value` must be finite: the
/// CSV writers refuse the others, or format them through `Display`.
pub(crate) fn write_f64(out: &mut Vec<u8>, value: f64) {
    debug_assert!(value.is_finite(), "write_f64 takes finite values");
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let exponent_bits = ((bits >> MANTISSA_BITS) & 0x7FF) as u32;
    let mantissa_bits = bits & ((1 << MANTISSA_BITS) - 1);
    if exponent_bits == 0 && mantissa_bits == 0 {
        out.push(b'0');
        return;
    }
    let (digits, exponent) = shortest(mantissa_bits, exponent_bits);
    let mut buf = [0u8; 20];
    let start = write_digits(digits, &mut buf);
    let digits = &buf[start..];
    let n = digits.len() as i32;
    // The value is 0.digits × 10^point.
    let point = exponent + n;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < n {
        let (integer, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(integer);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - n) as usize, b'0');
    }
}

/// Writes `v`'s decimal digits right-aligned into `buf` and returns the
/// index of the first.
fn write_digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    let mut push_pair = |at: &mut usize, pair: u32| {
        *at -= 2;
        let pair = 2 * pair as usize;
        buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    };
    // Eight digits at a time in 32-bit arithmetic.
    while v >= 100_000_000 {
        let mut low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        for _ in 0..4 {
            push_pair(&mut at, low % 100);
            low /= 100;
        }
    }
    let mut v = v as u32;
    while v >= 100 {
        push_pair(&mut at, v % 100);
        v /= 100;
    }
    if v >= 10 {
        push_pair(&mut at, v);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// `⌈log₂ 5ᵉ⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2ᵉ⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5ᵉ⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5ᵖ` divides `v` (nonzero).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m·mul / 2ʲ⌋` for a 125- or 126-bit `mul` and `64 ≤ j < 192`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryū: the shortest digits `d` and exponent `e` with `d·10ᵉ` inside the
/// rounding interval of the positive finite nonzero value with these
/// fields, the one nearest the value, exact ties rounded up.
fn shortest(mantissa_bits: u64, exponent_bits: u32) -> (u64, i32) {
    let tables = &*POW5;
    // The value is m2·2^e2; e2 carries two extra bits for the bounds.
    let (e2, m2) = if exponent_bits == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, mantissa_bits)
    } else {
        (
            exponent_bits as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa_bits,
        )
    };
    // Round-half-even parsing maps both bounds to an even mantissa.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower half-gap is half as wide below a power of two, except
    // below the smallest normal value, whose neighbour is subnormal.
    let mm_shift = u64::from(mantissa_bits != 0 || exponent_bits <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = RYU_POW5_BITS + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = tables.ryu_pow5_inv[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - RYU_POW5_BITS;
        let j = q as i32 - k;
        let mul = tables.ryu_pow5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mm has a trailing zero bit exactly when mm_shift is 1.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while a shorter number still fits in the interval.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The lower bound is exact and accepted: rare.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Exact powers of ten for Clinger's fast path.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Reads `-?digits[.digits]` from the front of `s`, with at least one
/// digit, and returns its value with `str::parse`'s bits and the number of
/// bytes read; the caller checks what follows. `None` leaves the text to
/// `str::parse`: no digit, more than 19 significant digits, more than 342
/// fraction digits, or a value Eisel–Lemire cannot decide.
pub(crate) fn parse_decimal(s: &[u8]) -> Option<(f64, usize)> {
    let negative = s.first() == Some(&b'-');
    let mut i = usize::from(negative);
    let integer_start = i;
    i = skip_zeros(s, i);
    let mut w = 0u64;
    let digits_start = i;
    i = read_digits(s, i, &mut w);
    let mut significant = i - digits_start;
    let mut any_digit = i > integer_start;
    let mut fraction = 0;
    if s.get(i) == Some(&b'.') {
        i += 1;
        let fraction_start = i;
        if significant == 0 {
            i = skip_zeros(s, i);
        }
        let digits_start = i;
        i = read_digits(s, i, &mut w);
        significant += i - digits_start;
        fraction = i - fraction_start;
        any_digit |= i > fraction_start;
    }
    if !any_digit || significant > 19 {
        return None;
    }
    let magnitude = if w <= 1 << 53 && fraction < POW10.len() {
        // Clinger: w and 10^fraction are exact, so the quotient rounds once.
        w as f64 / POW10[fraction]
    } else {
        eisel_lemire(w, -(fraction as i64))?
    };
    Some((if negative { -magnitude } else { magnitude }, i))
}

/// Skips ASCII zeros from `i`.
fn skip_zeros(s: &[u8], mut i: usize) -> usize {
    while s.get(i) == Some(&b'0') {
        i += 1;
    }
    i
}

/// Accumulates the ASCII digits from `i` into `w` (wrapping past 19
/// digits, which the caller refuses) and returns where they end.
fn read_digits(s: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(&b) = s.get(i) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        *w = w.wrapping_mul(10).wrapping_add(u64::from(digit));
        i += 1;
    }
    i
}

/// Eisel–Lemire: `w·10^q` for `q ≤ 0`, correctly rounded, or `None` when
/// the 128-bit product cannot decide the rounding (or `q < −342`).
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    if w == 0 {
        return Some(0.0);
    }
    if q < LEMIRE_MIN_POW10 {
        return None;
    }
    // Normalize so the top bit is set, then take the leading 64 bits of
    // w·5^q, with a second product only when the first leaves the low
    // bits that decide the rounding all ones.
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = POW5.lemire_pow5_inv[(-q) as usize];
    let first = w as u128 * (pow5 >> 64);
    let (mut low, mut high) = (first as u64, (first >> 64) as u64);
    const PRECISION_MASK: u64 = u64::MAX >> (MANTISSA_BITS + 3);
    if high & PRECISION_MASK == PRECISION_MASK {
        let second = ((w as u128 * (pow5 as u64) as u128) >> 64) as u64;
        low = low.wrapping_add(second);
        if second > low {
            high += 1;
        }
    }
    // Past 5²⁷ the truncated table entry can hide a carry.
    if low == u64::MAX && q < -27 {
        return None;
    }
    let upper_bit = (high >> 63) as i32;
    let mut mantissa = high >> (upper_bit + 64 - MANTISSA_BITS as i32 - 3);
    // ⌊q·log₂10⌋ + 63, the binary exponent of 10^q's normalized product.
    let power = ((q as i32).wrapping_mul(152_170 + 65_536) >> 16) + 63;
    let mut biased = power + upper_bit - lz as i32 + EXPONENT_BIAS;
    if biased <= 0 {
        // Subnormal, or zero past 64 bits below the smallest exponent.
        if -biased + 1 >= 64 {
            return Some(0.0);
        }
        mantissa >>= -biased + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding up may reach the smallest normal value.
        let biased = u64::from(mantissa >= 1 << MANTISSA_BITS);
        return Some(f64::from_bits(mantissa | (biased << MANTISSA_BITS)));
    }
    // An exact halfway product rounds to even, not up; only small powers
    // can give one.
    if low <= 1
        && (-4..=0).contains(&q)
        && mantissa & 3 == 1
        && (mantissa << (upper_bit + 64 - MANTISSA_BITS as i32 - 3)) == high
    {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        biased += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    Some(f64::from_bits(
        mantissa | ((biased as u64) << MANTISSA_BITS),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use randrecon_stats::rng::seeded_rng;

    /// `write_f64`'s text of `v`.
    fn written(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    /// Checks `write_f64` against `Display` on `v`, then `parse_decimal`
    /// against `str::parse` on that text; returns whether the text took
    /// the fast path.
    fn assert_matches_std(v: f64) -> bool {
        let text = written(v);
        let display = format!("{v}");
        assert!(
            text == display,
            "{:#018x}: wrote {text}, Display {display}",
            v.to_bits()
        );
        let std = display.parse::<f64>().expect("Display text parses");
        assert_eq!(std.to_bits(), v.to_bits(), "{display} does not round-trip");
        assert_parses_like_std(&display)
    }

    /// Checks `parse_decimal` against `str::parse` on `text`; returns
    /// whether it took the fast path (reading all of `text`).
    fn assert_parses_like_std(text: &str) -> bool {
        let Some((value, len)) = parse_decimal(text.as_bytes()) else {
            return false;
        };
        assert_eq!(len, text.len(), "{text}: read {len} bytes");
        let std = text.parse::<f64>().expect("plain decimal parses");
        assert!(
            value.to_bits() == std.to_bits(),
            "{text}: read {value:e} ({:#018x}), str::parse {std:e} ({:#018x})",
            value.to_bits(),
            std.to_bits()
        );
        true
    }

    /// `2ᵉ` for `−1074 ≤ e ≤ 1023`, from its bits.
    fn pow2(e: i32) -> f64 {
        if e >= -1022 {
            f64::from_bits(((e + EXPONENT_BIAS) as u64) << MANTISSA_BITS)
        } else {
            f64::from_bits(1 << (e + 1074))
        }
    }

    /// The fixed edge values: signed zeros, the subnormal and normal
    /// extremes, every power of two, every power of ten ±1 ulp, integers
    /// near 2⁵³, and digit strings at every decimal-point position from
    /// far left of the digits to far right, on both sides of each layout
    /// boundary.
    fn edge_values() -> Vec<f64> {
        let mut values = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            f64::MAX,
            f64::MAX.next_down(),
            0.1 + 0.2,
        ];
        values.extend((-1074..=1023).map(pow2));
        for k in -323..=308 {
            let ten = format!("1e{k}").parse::<f64>().unwrap();
            values.extend([ten.next_down(), ten, ten.next_up()]);
        }
        for base in [2f64.powi(53), 2f64.powi(54), 1e15, 1e16, 1e17] {
            values.extend((-20..=20).map(|d| base + d as f64));
        }
        for digits in ["1", "5", "12", "125", "123456789", "12345678901234567"] {
            for k in -40..=40 {
                values.push(format!("{digits}e{k}").parse().unwrap());
            }
        }
        let negatives: Vec<f64> = values.iter().map(|v| -v).collect();
        values.extend(negatives);
        values
    }

    /// `a·b` as (low 128 bits, high bits).
    fn wide_mul(a: u128, b: u64) -> (u128, u128) {
        let low = (a as u64 as u128) * b as u128;
        let high = (a >> 64) * b as u128;
        let sum = low.wrapping_add(high << 64);
        (sum, (high >> 64) + u128::from(sum < low))
    }

    /// Whether `entry = ⌊2ʲ/d⌋ + 1`, i.e. `(entry − 1)·d ≤ 2ʲ < entry·d`.
    fn is_floor_quotient_plus_one(entry: u128, j: u32, d: u64) -> bool {
        let power = if j < 128 {
            (0, 1u128 << j)
        } else {
            (1u128 << (j - 128), 0)
        };
        let order = |(low, high): (u128, u128)| (high, low);
        order(wide_mul(entry - 1, d)) <= power && power < order(wide_mul(entry, d))
    }

    #[test]
    fn csv_codec_tables_hold_exact_powers_of_five() {
        let tables = &*POW5;
        assert_eq!(tables.ryu_pow5.len(), RYU_POW5_MAX + 1);
        assert_eq!(tables.ryu_pow5_inv.len(), RYU_POW5_INV_MAX + 1);
        assert_eq!(tables.lemire_pow5_inv.len(), 343);
        // Every entry whose 5^q fits in a u128, against the exact power.
        for q in 0..=55u32 {
            let exact = 5u128.pow(q);
            let len = 128 - exact.leading_zeros();
            assert_eq!(pow5_bits(q as i32) as u32, len, "bit length of 5^{q}");
            let leading = if len >= 125 {
                exact >> (len - 125)
            } else {
                exact << (125 - len)
            };
            assert_eq!(tables.ryu_pow5[q as usize], leading, "Ryū 5^{q}");
        }
        assert_eq!(tables.lemire_pow5_inv[0], 1 << 127);
        // Where 5^q fits in a u64, each inverse entry is its defining floor
        // quotient plus one.
        for q in 1..=27u32 {
            let power = 5u64.pow(q);
            let z = 64 - power.leading_zeros();
            let ryu = tables.ryu_pow5_inv[q as usize];
            assert!(
                is_floor_quotient_plus_one(ryu, z + 124, power),
                "Ryū 5^-{q}"
            );
            let lemire = tables.lemire_pow5_inv[q as usize];
            assert!(lemire >> 127 == 1, "Eisel–Lemire 5^-{q} not normalized");
            assert!(
                is_floor_quotient_plus_one(lemire, z + 127, power),
                "Eisel–Lemire 5^-{q}"
            );
        }
        // Entries from the published tables (Ryū's DOUBLE_POW5_SPLIT and
        // DOUBLE_POW5_INV_SPLIT, fast_float's first entry) and, at the
        // ends and where Eisel–Lemire's rule switches, from an independent
        // arbitrary-precision computation.
        let split = |high: u64, low: u64| (high as u128) << 64 | low as u128;
        assert_eq!(tables.ryu_pow5[1], split(1441151880758558720, 0));
        assert_eq!(
            tables.ryu_pow5[325],
            split(1780059086805761106, 8710297504448807696)
        );
        assert_eq!(tables.ryu_pow5_inv[0], split(2305843009213693952, 1));
        assert_eq!(
            tables.ryu_pow5_inv[2],
            split(1475739525896764129, 5165088340638674453)
        );
        assert_eq!(
            tables.ryu_pow5_inv[290],
            split(1797693134862315907, 13453306206113055875)
        );
        let lemire = |q: usize| tables.lemire_pow5_inv[q];
        assert_eq!(lemire(1), split(0xcccccccccccccccc, 0xcccccccccccccccd));
        assert_eq!(lemire(27), split(0x9e74d1b791e07e48, 0x775ea264cf55347e));
        assert_eq!(lemire(28), split(0xfd87b5f28300ca0d, 0x8bca9d6e188853fc));
        assert_eq!(lemire(341), split(0x9558b4661b6565f8, 0x4ac7ca59a424c507));
        assert_eq!(lemire(342), split(0xeef453d6923bd65a, 0x113faa2906a13b3f));
    }

    #[test]
    fn csv_codec_float_text_matches_std_on_edge_values() {
        let values = edge_values();
        let fast = values.iter().filter(|&&v| assert_matches_std(v)).count();
        // Only long integers and far subnormals leave the fast path.
        assert!(fast * 2 > values.len(), "{fast} of {}", values.len());
    }

    #[test]
    fn csv_codec_writer_rounds_exact_ties_up() {
        // 2⁻²⁵ = 2.98023223876953125e-8 lies halfway between two 17-digit
        // candidates; `Display` takes the upper one.
        assert_eq!(written(pow2(-25)), "0.000000029802322387695313");
        assert_eq!(written(-pow2(-25)), "-0.000000029802322387695313");
        assert_eq!(written(-0.0), "-0");
        assert_eq!(written(1e21), "1000000000000000000000");
        assert_eq!(written(1.5e-7), "0.00000015");
    }

    #[test]
    fn csv_codec_reader_matches_std_on_edge_spellings() {
        let long_zeros = "0".repeat(300);
        let fast = [
            "1.".to_string(),
            ".5".to_string(),
            "-.5".to_string(),
            "-0".to_string(),
            "-0.000".to_string(),
            "0".to_string(),
            // 2⁵³ + 1 takes Eisel–Lemire and rounds to even, down.
            "9007199254740993".to_string(),
            "9007199254740992".to_string(),
            "9007199254740995".to_string(),
            // 19 significant digits, the most the fast path reads.
            "1234567890123456789".to_string(),
            "9999999999999999999".to_string(),
            "0.1234567890123456789".to_string(),
            "-123456789.0123456789".to_string(),
            // More than 22 fraction digits, past Clinger's path.
            "0.00000000000000000000012345".to_string(),
            "-0.000000000000000000000000001".to_string(),
            // Long runs of leading zeros, in front of and after the point.
            format!("{long_zeros}1.5"),
            format!("0.{long_zeros}17"),
            format!("-0.{long_zeros}{long_zeros}"),
            // A subnormal, and a value that rounds to zero.
            format!("0.{}4940656458412465", "0".repeat(323)),
            format!("0.{}2", "0".repeat(330)),
        ];
        for text in &fast {
            assert!(assert_parses_like_std(text), "{text} left the fast path");
        }
        // Twenty significant digits (trailing zeros count), 343 fraction
        // digits, and anything that is not `-?digits[.digits]` go to
        // `str::parse`.
        let refused = [
            "12345678901234567890".to_string(),
            "0.12345678901234567890".to_string(),
            "1.0000000000000000000".to_string(),
            format!("0.{}1", "0".repeat(342)),
            "+1".to_string(),
            " 1".to_string(),
            "inf".to_string(),
            "NaN".to_string(),
            ".".to_string(),
            "-".to_string(),
            "-.".to_string(),
            String::new(),
        ];
        for text in &refused {
            assert_eq!(parse_decimal(text.as_bytes()), None, "{text}");
        }
        // The fast path stops where the spelling does; the caller sees the
        // rest.
        assert_eq!(parse_decimal(b"1e5"), Some((1.0, 1)));
        assert_eq!(parse_decimal(b"-2.5,3"), Some((-2.5, 4)));
        assert_eq!(parse_decimal(b"1.5.3"), Some((1.5, 3)));
    }

    /// Random finite values: uniform bit patterns, then bit patterns whose
    /// exponent is drawn from `1e-3..1e4`, the magnitudes the CSV data
    /// hold.
    fn check_random_bits(cases: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        let mut checked = 0;
        while checked < cases {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                assert_matches_std(v);
                checked += 1;
            }
        }
        let mut fast = 0;
        for _ in 0..cases {
            let bits = rng.next_u64();
            let exponent = 1013 + (bits >> 52) % 24;
            let v = f64::from_bits((bits & 0x800F_FFFF_FFFF_FFFF) | exponent << 52);
            fast += usize::from(assert_matches_std(v));
        }
        // Eisel–Lemire leaves almost nothing of this range undecided.
        assert!(
            fast * 1000 >= cases * 999,
            "{fast} of {cases} on the fast path"
        );
    }

    #[test]
    fn csv_codec_float_text_matches_std_on_random_bits() {
        check_random_bits(100_000, 0xF10A7);
    }

    /// The same check on 10⁷ random values of each kind; slow in debug
    /// builds, so it runs in the release `--ignored` job.
    #[test]
    #[ignore]
    fn csv_codec_float_text_matches_std_on_ten_million_random_bits() {
        check_random_bits(10_000_000, 0x7E57);
    }
}
