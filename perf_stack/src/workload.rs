//! The design point, the six workloads, their input generators and the
//! oracles that check every reply.
//!
//! Every generator is a pure function of `(seed, i)`: the same seed gives the
//! same inputs, and a thread that only knows `i` (the open-loop receiver)
//! regenerates request `i` without sharing state with the sender.

/// Blocks of the block-level workloads (2^20 × 64 B, the paper's 64 MiB point).
pub const NUM_BLOCKS: u64 = 1 << 20;
pub const BLOCK_BYTES: usize = 64;
pub const Z: usize = 4;
/// Seed of every `OramBuilder`: keys and leaf choices are the same in every
/// run, only the request trace follows `--seed`.
pub const BUILDER_SEED: u64 = 7;

/// Oblivious-map design point (YCSB's 100-byte records under 24-byte keys).
pub const MAP_KEY_BYTES: usize = 24;
pub const MAP_VALUE_MAX: usize = 256;
pub const MAP_RECORD_BYTES: usize = 100;
pub const MAP_BLOCK_BYTES: usize = 128;
pub const MAP_CAPACITY: u64 = 65_536;
pub const MAP_PRELOAD: u64 = 16_384;
pub const ZIPF_THETA: f64 = 0.99;

/// WAL flush policy of `file_wal`, stated in the output.
pub const WAL_BATCH: u32 = 64;
pub const FLUSH_POLICY: &str = "wal fdatasync every 64 records, checkpoint every 1024 records";

/// Offered rate of the open-loop workload, requests per second.
pub const OPEN_LOOP_RATE: u64 = 4_000;

/// Share of the timed count run first, untimed, on every fresh stack.
pub const WARMUP_FRACTION: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemUniform,
    MemScan,
    FileWal,
    TcpSerial,
    TcpOpen,
    OmapYcsbA,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MemUniform,
        Workload::MemScan,
        Workload::FileWal,
        Workload::TcpSerial,
        Workload::TcpOpen,
        Workload::OmapYcsbA,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemUniform => "mem_uniform",
            Workload::MemScan => "mem_scan",
            Workload::FileWal => "file_wal",
            Workload::TcpSerial => "tcp_serial",
            Workload::TcpOpen => "tcp_open",
            Workload::OmapYcsbA => "omap_ycsb_a",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per `--seconds` second.  Counts are fixed (not a timer) so
    /// that every count metric repeats exactly for a seed; the constants are
    /// the sandbox's pinned rates rounded down, so a run of `--seconds S`
    /// measures for about `S` seconds there.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::MemUniform => 40_000,
            Workload::MemScan => 100_000,
            Workload::FileWal => 6_000,
            Workload::TcpSerial => 24_000,
            Workload::TcpOpen => OPEN_LOOP_RATE,
            Workload::OmapYcsbA => 7_500,
        }
    }

    /// Whether the workload is CPU-bound from end to end, so that its timings
    /// follow the core clock and are read at the reference clock (see
    /// `crate::clock`).  The other two mostly wait, on the disk or a timer.
    pub fn follows_core_clock(self) -> bool {
        !matches!(self, Workload::FileWal | Workload::TcpOpen)
    }

    /// Timed operations of a `--seconds seconds` run (a multiple of the
    /// window count, at least one operation per window).
    pub fn timed_ops(self, seconds: f64) -> u64 {
        let windows = crate::stats::WINDOWS as u64;
        let raw = (self.ops_per_second() as f64 * seconds) as u64;
        (raw / windows).max(1) * windows
    }
}

pub fn warmup_ops(timed: u64) -> u64 {
    ((timed as f64 * WARMUP_FRACTION) as u64).max(1)
}

/// Independent random streams drawn from one seed.
#[derive(Clone, Copy)]
enum Stream {
    Addr = 1,
    Payload = 2,
    Key = 3,
    Preload = 4,
    ScanStart = 5,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(seed: u64, stream: Stream, i: u64) -> u64 {
    splitmix(splitmix(seed ^ (stream as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)) ^ i)
}

fn fill(seed: u64, stream: Stream, i: u64, out: &mut [u8]) {
    for (word, chunk) in out.chunks_mut(8).enumerate() {
        let bytes = draw(seed, stream, i * 64 + word as u64).to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// Independent uniform addresses: PLB-miss-heavy.
    Uniform,
    /// Consecutive addresses from a seed-chosen start: PLB hits.
    Scan,
}

pub fn block_addr(pattern: AddrPattern, seed: u64, i: u64, num_blocks: u64) -> u64 {
    match pattern {
        AddrPattern::Uniform => draw(seed, Stream::Addr, i) % num_blocks,
        AddrPattern::Scan => (draw(seed, Stream::ScanStart, 0) % num_blocks + i) % num_blocks,
    }
}

/// Reads and writes alternate; Path ORAM makes them cost-identical.
pub fn is_write(i: u64) -> bool {
    i % 2 == 1
}

pub fn block_payload(seed: u64, i: u64, out: &mut [u8]) {
    fill(seed, Stream::Payload, i, out);
}

/// Model of the block store: for each address the index of the request that
/// last wrote it, from which the expected bytes are regenerated.  Four bytes
/// per block, so the oracle stays out of the way of `peak_rss_mib`.
pub struct BlockOracle {
    seed: u64,
    /// `0` = never written (reads as zeros), else writer index + 1.
    last_write: Vec<u32>,
    expected: Vec<u8>,
}

impl BlockOracle {
    pub fn new(seed: u64, num_blocks: u64, block_bytes: usize) -> Self {
        BlockOracle {
            seed,
            last_write: vec![0; num_blocks as usize],
            expected: vec![0; block_bytes],
        }
    }

    fn slot(addr: u64) -> usize {
        usize::try_from(addr).expect("block address fits usize")
    }

    pub fn note_write(&mut self, addr: u64, i: u64) {
        self.last_write[Self::slot(addr)] = u32::try_from(i + 1).expect("request index fits u32");
    }

    pub fn read_matches(&mut self, addr: u64, got: &[u8]) -> bool {
        match self.last_write[Self::slot(addr)] {
            0 => self.expected.fill(0),
            writer => block_payload(self.seed, u64::from(writer) - 1, &mut self.expected),
        }
        got == self.expected.as_slice()
    }
}

/// Zipfian ranks over `n` keys by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(ZIPF_THETA);
            cdf.push(total);
        }
        for entry in &mut cdf {
            *entry /= total;
        }
        Zipf { cdf }
    }

    pub fn key_id(&self, seed: u64, i: u64) -> u64 {
        let u = (draw(seed, Stream::Key, i) >> 11) as f64 / (1u64 << 53) as f64;
        (self.cdf.partition_point(|&p| p < u)).min(self.cdf.len() - 1) as u64
    }
}

/// 24-byte key of record `id` (YCSB's `user<id>` shape).
pub fn map_key(id: u64) -> Vec<u8> {
    let mut key = format!("user{id:020}").into_bytes();
    key.truncate(MAP_KEY_BYTES);
    key
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSource {
    Preload(u64),
    Op(u64),
}

pub fn map_value(seed: u64, source: ValueSource, out: &mut [u8]) {
    match source {
        ValueSource::Preload(id) => fill(seed, Stream::Preload, id, out),
        ValueSource::Op(i) => fill(seed, Stream::Payload, i, out),
    }
}

/// Model of the map: every key is preloaded, so each key id maps to the
/// source of its current value.
pub struct MapOracle {
    seed: u64,
    current: Vec<ValueSource>,
    expected: Vec<u8>,
}

impl MapOracle {
    pub fn preloaded(seed: u64, keys: u64) -> Self {
        MapOracle {
            seed,
            current: (0..keys).map(ValueSource::Preload).collect(),
            expected: vec![0; MAP_RECORD_BYTES],
        }
    }

    pub fn note_insert(&mut self, key_id: u64, i: u64) {
        self.current[key_id as usize] = ValueSource::Op(i);
    }

    pub fn get_matches(&mut self, key_id: u64, got: Option<&[u8]>) -> bool {
        map_value(self.seed, self.current[key_id as usize], &mut self.expected);
        got == Some(self.expected.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(f: impl Fn(u64) -> u64) -> Vec<u64> {
        (0..256).map(f).collect()
    }

    #[test]
    fn generators_are_pure_functions_of_seed_and_index() {
        let zipf = Zipf::new(1024);
        type Gen<'a> = Box<dyn Fn(u64, u64) -> u64 + 'a>;
        let generators: Vec<(&str, Gen)> = vec![
            (
                "uniform",
                Box::new(|s, i| block_addr(AddrPattern::Uniform, s, i, NUM_BLOCKS)),
            ),
            (
                "scan",
                Box::new(|s, i| block_addr(AddrPattern::Scan, s, i, NUM_BLOCKS)),
            ),
            ("zipf", Box::new(|s, i| zipf.key_id(s, i))),
            (
                "payload",
                Box::new(|s, i| {
                    let mut out = [0u8; BLOCK_BYTES];
                    block_payload(s, i, &mut out);
                    u64::from_le_bytes(out[56..].try_into().unwrap())
                }),
            ),
            (
                "map_value",
                Box::new(|s, i| {
                    let mut out = [0u8; MAP_RECORD_BYTES];
                    map_value(s, ValueSource::Op(i), &mut out);
                    u64::from(out[99]) << 8 | u64::from(out[0])
                }),
            ),
        ];
        for (name, generate) in &generators {
            let a = sequence(|i| generate(11, i));
            assert_eq!(a, sequence(|i| generate(11, i)), "{name}: same seed");
            assert_ne!(a, sequence(|i| generate(12, i)), "{name}: other seed");
        }
    }

    #[test]
    fn scan_is_consecutive_and_uniform_covers_the_range() {
        let start = block_addr(AddrPattern::Scan, 3, 0, NUM_BLOCKS);
        assert_eq!(
            block_addr(AddrPattern::Scan, 3, NUM_BLOCKS + 5, NUM_BLOCKS),
            (start + 5) % NUM_BLOCKS
        );
        let hits = sequence(|i| block_addr(AddrPattern::Uniform, 3, i, 4));
        assert!((0..4).all(|a| hits.contains(&a)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1024);
        let low = (0..4096).filter(|&i| zipf.key_id(9, i) < 16).count();
        assert!(
            low > 4096 / 4,
            "only {low} of 4096 draws in the top 16 ranks"
        );
        assert!((0..4096).all(|i| zipf.key_id(9, i) < 1024));
    }

    #[test]
    fn oracles_track_the_last_writer() {
        let mut blocks = BlockOracle::new(5, 8, BLOCK_BYTES);
        assert!(blocks.read_matches(3, &[0; BLOCK_BYTES]));
        blocks.note_write(3, 41);
        let mut want = [0u8; BLOCK_BYTES];
        block_payload(5, 41, &mut want);
        assert!(blocks.read_matches(3, &want));
        assert!(!blocks.read_matches(3, &[0; BLOCK_BYTES]));

        let mut map = MapOracle::preloaded(5, 4);
        let mut value = [0u8; MAP_RECORD_BYTES];
        map_value(5, ValueSource::Preload(2), &mut value);
        assert!(map.get_matches(2, Some(&value)));
        assert!(!map.get_matches(2, None));
        map.note_insert(2, 7);
        assert!(!map.get_matches(2, Some(&value)));
    }

    #[test]
    fn timed_counts_scale_with_seconds_and_fill_whole_windows() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.timed_ops(2.0) % crate::stats::WINDOWS as u64, 0);
            assert!(w.timed_ops(0.000_001) >= crate::stats::WINDOWS as u64);
            assert!(w.timed_ops(4.0) > w.timed_ops(2.0));
        }
    }
}
