//! CRC-64/XZ: the write-ahead log's torn-write detector.
//!
//! Two implementations behind one function, chosen once per process:
//!
//! * **CLMUL** (the private `clmul` module, x86_64 only) — a PCLMULQDQ
//!   folding kernel over four 128-bit lanes, used for inputs of at least one
//!   64-byte block when the CPU reports the instruction;
//! * **slicing-by-8 tables** — the portable fallback and the reference the
//!   kernel is tested against.  Short inputs (a log header) always take it.
//!
//! `ORAM_CRYPTO_FORCE_SOFT` (any value but empty or `0`) forces the tables,
//! exactly as it forces the bitsliced AES engine.  Both give the same value
//! for every input; the choice is a speed decision only.
//!
//! The checksum detects torn writes, not tampering: it is unkeyed, and the
//! bytes it guards are ciphertext the bucket cipher's own MAC already
//! authenticates.

/// CRC-64/XZ generator polynomial, bit-reflected.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[t][b]` extends it so eight input bytes fold into the
/// running CRC with eight independent lookups per 64-bit word instead of
/// eight serial ones.
static TABLES: [[u64; 256]; 8] = tables();

const fn tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Runs the table CRC over `bytes` from register `crc` (no pre- or
/// post-inversion).
fn table_update(mut crc: u64, bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        // Every index is masked to (or shifted into) 8 bits, so no lookup
        // can leave its table.
        let word = u64::from_le_bytes(*word) ^ crc;
        crc = TABLES[7][(word & 0xFF) as usize]
            ^ TABLES[6][((word >> 8) & 0xFF) as usize]
            ^ TABLES[5][((word >> 16) & 0xFF) as usize]
            ^ TABLES[4][((word >> 24) & 0xFF) as usize]
            ^ TABLES[3][((word >> 32) & 0xFF) as usize]
            ^ TABLES[2][((word >> 40) & 0xFF) as usize]
            ^ TABLES[1][((word >> 48) & 0xFF) as usize]
            ^ TABLES[0][(word >> 56) as usize];
    }
    for &b in tail {
        crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-64/XZ through the tables alone: the fallback and the reference.
pub(crate) fn crc64_table(bytes: &[u8]) -> u64 {
    !table_update(!0, bytes)
}

/// Finishes a folded 128-bit remainder and the bytes after it: the
/// remainder's CRC from a zero register is the register the folded chunks
/// leave, and the table carries on from there.
#[cfg(target_arch = "x86_64")]
pub(crate) fn finish_fold(remainder: [u8; 16], tail: &[u8]) -> u64 {
    table_update(table_update(0, &remainder), tail)
}

/// Whether this process runs the CLMUL kernel: the CPU has it and the soft
/// path is not forced.  Decided on first use.
#[cfg(target_arch = "x86_64")]
fn use_clmul() -> bool {
    static USE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *USE.get_or_init(|| !crate::aes::force_soft() && crate::clmul::detected())
}

/// CRC-64/XZ of `bytes` (polynomial `0x42F0E1EBA9EA3693`, reflected, with
/// the register initialised to and finished by all ones).
///
/// # Examples
///
/// ```
/// use oram_crypto::crc64::crc64;
///
/// assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
/// ```
// lint: ct-scope, no-alloc
pub fn crc64(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let (chunks, tail) = bytes.as_chunks::<{ crate::clmul::CHUNK_BYTES }>();
        if chunks.len() >= crate::clmul::LANES && use_clmul() {
            return !finish_fold(crate::clmul::fold(!0, chunks), tail);
        }
    }
    crc64_table(bytes)
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_xz_check_vector_on_both_paths() {
        // The standard CRC-64/XZ check value for the ASCII digits 1-9.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_table(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // Long enough for the kernel where it is selected: the dispatched
        // value must equal the table's.
        let long = b"123456789".repeat(100);
        assert_eq!(crc64(&long), crc64_table(&long));
    }

    #[test]
    fn crc64_sliced_agrees_with_byte_at_a_time() {
        fn crc64_bytewise(bytes: &[u8]) -> u64 {
            let mut crc = !0u64;
            for &b in bytes {
                crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        }
        // Lengths straddling the 8-byte slicing boundary and a record-sized
        // buffer, with non-trivial content.
        for len in [1usize, 7, 8, 9, 15, 16, 17, 255, 256, 4096, 6999] {
            let data: Vec<u8> = (0..len)
                .map(|i| (i.wrapping_mul(131) % 251) as u8)
                .collect();
            assert_eq!(crc64_table(&data), crc64_bytewise(&data), "length {len}");
            assert_eq!(crc64(&data), crc64_bytewise(&data), "length {len}");
        }
    }
}
