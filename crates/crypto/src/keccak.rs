//! The Keccak-f\[1600\] permutation underlying SHA-3 (FIPS-202).
//!
//! PMMAC (§6) instantiates its MAC with SHA3-224; this module provides the
//! sponge permutation, and [`crate::sha3`] builds the hash on top of it.
//!
//! Two kernels sit behind [`keccak_f1600`] and the paired sponge of
//! [`crate::sha3`], chosen once per process:
//!
//! * **AVX-512VL** (the private `keccak_avx512` module, x86_64 with
//!   AVX-512F and AVX-512VL, runtime detected) keeps the state in 25 xmm
//!   registers and permutes two independent states per pass, one per
//!   64-bit register lane; a single state runs with the other lane idle.
//! * **Scalar** — the portable loop below, the fallback and the reference
//!   the kernel is tested against.  Two states take two calls.
//!
//! Setting `ORAM_CRYPTO_FORCE_SOFT` to anything but `0`/empty selects the
//! scalar loop, as it selects the soft AES engine.  [`kernel_label`]
//! reports the decision.

/// Number of 64-bit lanes in the Keccak-f\[1600\] state (5×5).
pub const STATE_LANES: usize = 25;
/// Number of rounds of Keccak-f\[1600\].
pub const ROUNDS: usize = 24;

/// Round constants for the iota step.
pub(crate) const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for the rho step, indexed `[x][y]`.
pub(crate) const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// A Keccak-f\[1600\] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Two states per pass in xmm registers (x86_64 with AVX-512F and
    /// AVX-512VL).
    Avx512Vl,
    /// The portable loop, one state per call.
    Scalar,
}

impl Kernel {
    /// Human-readable kernel name (for logs and benchmark labels).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Kernel::Avx512Vl => "avx512vl-x2",
            Kernel::Scalar => "scalar",
        }
    }

    /// Whether this CPU runs the kernel.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vl => crate::keccak_avx512::detected(),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512Vl => false,
            Kernel::Scalar => true,
        }
    }

    /// Applies the permutation to `state`.  The kernel must be
    /// [`Self::supported`], as [`selected`] and [`host_kernels`] ensure.
    pub(crate) fn permute(self, state: &mut [u64; STATE_LANES]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vl => crate::keccak_avx512::permute(state),
            _ => keccak_f1600_scalar(state),
        }
    }

    /// Applies the permutation to `a` and to `b`: one pass under
    /// [`Kernel::Avx512Vl`], two calls under [`Kernel::Scalar`].  The kernel
    /// must be [`Self::supported`].
    pub(crate) fn permute_x2(self, a: &mut [u64; STATE_LANES], b: &mut [u64; STATE_LANES]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vl => crate::keccak_avx512::permute_x2(a, b),
            _ => {
                keccak_f1600_scalar(a);
                keccak_f1600_scalar(b);
            }
        }
    }
}

/// The kernel this process runs: AVX-512VL when the CPU reports it and the
/// soft path is not forced, else the scalar loop.  Decided on first use.
pub(crate) fn selected() -> Kernel {
    static KERNEL: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *KERNEL.get_or_init(|| {
        if !crate::aes::force_soft() && Kernel::Avx512Vl.supported() {
            Kernel::Avx512Vl
        } else {
            Kernel::Scalar
        }
    })
}

/// Every kernel this host runs.  Each one it does not run is named on
/// stderr with the reason it is skipped.
#[cfg(test)]
pub(crate) fn host_kernels() -> Vec<Kernel> {
    [Kernel::Avx512Vl, Kernel::Scalar]
        .into_iter()
        .filter(|kernel| {
            let supported = kernel.supported();
            if !supported {
                eprintln!(
                    "skipping the {} Keccak kernel: this CPU does not support it",
                    kernel.label()
                );
            }
            supported
        })
        .collect()
}

/// The name of the Keccak-f\[1600\] kernel this process runs
/// (`avx512vl-x2` or `scalar`), for logs and benchmark labels.
pub fn kernel_label() -> &'static str {
    selected().label()
}

/// Applies the full 24-round Keccak-f\[1600\] permutation to `state`.
///
/// Lanes are indexed `state[x + 5*y]` as in FIPS-202.
pub fn keccak_f1600(state: &mut [u64; STATE_LANES]) {
    selected().permute(state);
}

/// The portable permutation: the scalar fallback and the reference every
/// kernel is tested against.
pub(crate) fn keccak_f1600_scalar(state: &mut [u64; STATE_LANES]) {
    for rc in RC.iter() {
        // Theta
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // Rho and Pi combined
        let mut b = [0u64; STATE_LANES];
        for y in 0..5 {
            for x in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(RHO[x][y]);
            }
        }

        // Chi
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // Iota
        state[0] ^= rc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: Keccak-f\[1600\] applied to the all-zero state,
    /// under every kernel this host runs, one state and two at a time.
    /// Lanes of the result per the XKCP reference implementation.
    #[test]
    fn permutation_of_zero_state() {
        let check = |state: &[u64; STATE_LANES], what: &str| {
            assert_eq!(state[0], 0xF1258F7940E1DDE7, "{what}");
            assert_eq!(state[1], 0x84D5CCF933C0478A, "{what}");
            assert_eq!(state[24], 0xEAF1FF7B5CECA249, "{what}");
        };
        for kernel in host_kernels() {
            let mut state = [0u64; STATE_LANES];
            kernel.permute(&mut state);
            check(&state, kernel.label());
            let (mut a, mut b) = ([0u64; STATE_LANES], [0u64; STATE_LANES]);
            kernel.permute_x2(&mut a, &mut b);
            check(&a, kernel.label());
            check(&b, kernel.label());
        }
        let mut state = [0u64; STATE_LANES];
        keccak_f1600(&mut state);
        check(&state, kernel_label());
    }

    #[test]
    fn permutation_is_not_identity_and_is_deterministic() {
        let mut s1 = [0x1234_5678_9abc_def0u64; STATE_LANES];
        let mut s2 = s1;
        keccak_f1600(&mut s1);
        keccak_f1600(&mut s2);
        assert_eq!(s1, s2);
        assert_ne!(s1, [0x1234_5678_9abc_def0u64; STATE_LANES]);
    }
}
