//! The two-state Keccak-f\[1600\] kernel: AVX-512VL on xmm registers.
//!
//! Compiled only on x86_64; selected once per process by
//! [`crate::keccak`] when CPUID reports AVX-512F and AVX-512VL and the soft
//! path has not been forced (`ORAM_CRYPTO_FORCE_SOFT`).  The scalar loop in
//! [`crate::keccak`] stays the fallback and the reference the kernel is
//! tested against.
//!
//! The 25 lanes of the state live in 25 xmm registers, indexed `x + 5*y`
//! as in FIPS-202 and the scalar loop.  Each register's two 64-bit lanes
//! hold two independent states, so one pass permutes both in the time one
//! permutation takes (XKCP's "times-2" arrangement); a single state runs
//! with the upper lane idle.  AVX-512VL's three-input `vpternlogq` does
//! θ's five-way column XOR in two instructions, folds θ's column effect
//! into each lane in one, and computes χ's `b ^ (!c & d)` in one; `vprolq`
//! does ρ's rotations by immediates.  Nothing in a round depends on the
//! state's value, so the kernel is constant-time.
//!
//! One of the crate's audited unsafe islands: the one call into the
//! `#[target_feature]` rounds, guarded by the runtime CPUID check at the
//! dispatch site.

#![allow(unsafe_code)]

use crate::keccak::{RC, RHO, STATE_LANES};
use core::arch::x86_64::{
    _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_extract_epi64, _mm_rol_epi64, _mm_set1_epi64x,
    _mm_set_epi64x, _mm_setzero_si128, _mm_ternarylogic_epi64, _mm_xor_si128,
};

/// `vpternlogq` truth table of `a ^ b ^ c`.
const XOR3: i32 = 0x96;
/// `vpternlogq` truth table of `a ^ (!b & c)`, χ's lane function.
const CHI: i32 = 0xD2;

/// Whether the CPU runs the kernel: AVX-512F for `vpternlogq` and
/// `vprolq`, AVX-512VL for their 128-bit forms.
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

/// Applies Keccak-f\[1600\] to `state` with the upper register lane idle.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`detected`] returned `true`.
// lint: ct-scope, no-alloc
pub(crate) fn permute(state: &mut [u64; STATE_LANES]) {
    // SAFETY: the dispatch site verified AVX-512F and AVX-512VL support via
    // `detected()`; the rounds touch memory only through `state`.
    unsafe { permute_impl(state) }
}
// lint: end

/// Applies Keccak-f\[1600\] to `a` and `b` in one pass, one state per
/// register lane.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`detected`] returned `true`.
// lint: ct-scope, no-alloc
pub(crate) fn permute_x2(a: &mut [u64; STATE_LANES], b: &mut [u64; STATE_LANES]) {
    // SAFETY: the dispatch site verified AVX-512F and AVX-512VL support via
    // `detected()`; the rounds touch memory only through the two arrays.
    unsafe { permute_x2_impl(a, b) }
}
// lint: end

/// Invokes `$step!(args; x, y)` for every lane of the 5×5 state.
macro_rules! each_lane {
    ($step:ident; $($arg:ident),*) => {
        each_lane!(@row $step; $($arg),*; 0);
        each_lane!(@row $step; $($arg),*; 1);
        each_lane!(@row $step; $($arg),*; 2);
        each_lane!(@row $step; $($arg),*; 3);
        each_lane!(@row $step; $($arg),*; 4);
    };
    (@row $step:ident; $($arg:ident),*; $y:literal) => {
        $step!($($arg),*; 0, $y);
        $step!($($arg),*; 1, $y);
        $step!($($arg),*; 2, $y);
        $step!($($arg),*; 3, $y);
        $step!($($arg),*; 4, $y);
    };
}

/// θ's parity of column `x`.
macro_rules! parity {
    ($s:ident; $x:literal) => {
        _mm_ternarylogic_epi64::<XOR3>(
            _mm_ternarylogic_epi64::<XOR3>($s[$x], $s[$x + 5], $s[$x + 10]),
            $s[$x + 15],
            $s[$x + 20],
        )
    };
}

/// θ: lane `(x, y)` takes the parity of column `x - 1` and the rotated
/// parity of column `x + 1`.
macro_rules! theta {
    ($s:ident, $c:ident, $r:ident; $x:literal, $y:literal) => {
        $s[$x + 5 * $y] =
            _mm_ternarylogic_epi64::<XOR3>($s[$x + 5 * $y], $c[($x + 4) % 5], $r[($x + 1) % 5]);
    };
}

/// ρ and π: lane `(x, y)`, rotated by its offset, moves to
/// `(y, 2x + 3y)`.
macro_rules! rho_pi {
    ($s:ident, $b:ident; $x:literal, $y:literal) => {
        $b[$y + 5 * ((2 * $x + 3 * $y) % 5)] =
            _mm_rol_epi64::<{ RHO[$x][$y] as i32 }>($s[$x + 5 * $y]);
    };
}

/// χ: lane `(x, y)` becomes `b[x] ^ (!b[x + 1] & b[x + 2])` along its row.
macro_rules! chi {
    ($s:ident, $b:ident; $x:literal, $y:literal) => {
        $s[$x + 5 * $y] = _mm_ternarylogic_epi64::<CHI>(
            $b[$x + 5 * $y],
            $b[($x + 1) % 5 + 5 * $y],
            $b[($x + 2) % 5 + 5 * $y],
        );
    };
}

/// One round of Keccak-f\[1600\] on the register state `$s`, ending with ι's
/// round constant `$rc`.
macro_rules! round {
    ($s:ident, $rc:expr) => {{
        let c = [
            parity!($s; 0),
            parity!($s; 1),
            parity!($s; 2),
            parity!($s; 3),
            parity!($s; 4),
        ];
        let r = [
            _mm_rol_epi64::<1>(c[0]),
            _mm_rol_epi64::<1>(c[1]),
            _mm_rol_epi64::<1>(c[2]),
            _mm_rol_epi64::<1>(c[3]),
            _mm_rol_epi64::<1>(c[4]),
        ];
        each_lane!(theta; $s, c, r);
        let mut b = [_mm_setzero_si128(); STATE_LANES];
        each_lane!(rho_pi; $s, b);
        each_lane!(chi; $s, b);
        $s[0] = _mm_xor_si128($s[0], _mm_set1_epi64x($rc as i64));
    }};
}

#[target_feature(enable = "avx512f,avx512vl")]
fn permute_impl(state: &mut [u64; STATE_LANES]) {
    let mut s = [_mm_setzero_si128(); STATE_LANES];
    for (lane, x) in s.iter_mut().zip(state.iter()) {
        *lane = _mm_cvtsi64_si128(*x as i64);
    }
    for rc in RC {
        round!(s, rc);
    }
    for (lane, x) in s.iter().zip(state.iter_mut()) {
        *x = _mm_cvtsi128_si64(*lane) as u64;
    }
}

#[target_feature(enable = "avx512f,avx512vl")]
fn permute_x2_impl(a: &mut [u64; STATE_LANES], b: &mut [u64; STATE_LANES]) {
    let mut s = [_mm_setzero_si128(); STATE_LANES];
    for ((lane, x), y) in s.iter_mut().zip(a.iter()).zip(b.iter()) {
        *lane = _mm_set_epi64x(*y as i64, *x as i64);
    }
    for rc in RC {
        round!(s, rc);
    }
    for ((lane, x), y) in s.iter().zip(a.iter_mut()).zip(b.iter_mut()) {
        *x = _mm_cvtsi128_si64(*lane) as u64;
        *y = _mm_extract_epi64::<1>(*lane) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak_f1600_scalar;

    /// Seeded random state pairs: each register lane must come out as the
    /// scalar loop permutes it, whichever lane it rode in and whatever the
    /// other lane held (equal, unrelated or all-zero); and a lone state,
    /// with the upper lane idle, likewise.
    #[test]
    fn two_state_kernel_matches_scalar_loop() {
        if !detected() {
            eprintln!("skipping the avx512vl-x2 Keccak kernel: this CPU does not support it");
            return;
        }
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..64 {
            let x: [u64; STATE_LANES] = std::array::from_fn(|_| rng());
            let y: [u64; STATE_LANES] = match round % 3 {
                0 => x,
                1 => [0; STATE_LANES],
                _ => std::array::from_fn(|_| rng()),
            };
            let (mut ex, mut ey) = (x, y);
            keccak_f1600_scalar(&mut ex);
            keccak_f1600_scalar(&mut ey);
            let mut one = x;
            permute(&mut one);
            assert_eq!(one, ex, "round {round}: one state");
            let (mut a, mut b) = (x, y);
            permute_x2(&mut a, &mut b);
            assert_eq!(a, ex, "round {round}: low lane");
            assert_eq!(b, ey, "round {round}: high lane");
            let (mut a, mut b) = (y, x);
            permute_x2(&mut a, &mut b);
            assert_eq!(a, ey, "round {round}: low lane, swapped");
            assert_eq!(b, ex, "round {round}: high lane, swapped");
        }
    }
}
