//! Deterministic inputs: batch frames and open-loop query schedules,
//! all derived from the benchmark's `--seed`. The serving stack only
//! ever sees what these functions produce.

use ivl_service::ObjectKind;
use ivl_sketch::stream::ZipfStream;

/// Items per `BATCH2` frame, in every workload.
pub const BATCH_ITEMS: usize = 32;

/// Frames pre-generated per ingest stream; a run cycles through them.
pub const FRAME_POOL: usize = 2048;

/// The served roster: `(name, kind, share of frames and reads)` —
/// `cm=8,hll=1,morris=1`. Object ids are roster indices.
pub const ROSTER: [(&str, ObjectKind, u64); 3] = [
    ("cm", ObjectKind::CountMin, 8),
    ("hll", ObjectKind::Hll, 1),
    ("morris", ObjectKind::Morris, 1),
];

/// Sum of the roster shares.
const ROSTER_WEIGHT: u64 = 10;

/// A Zipf key distribution: ranks `0..keys` with exponent `s`. The
/// rank is the key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeyDist {
    /// Alphabet size.
    pub keys: usize,
    /// Zipf exponent.
    pub s: f64,
}

/// One batch frame as the generator sends it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Target object id (roster index).
    pub object: u32,
    /// `(key, weight)` items.
    pub items: Vec<(u64, u64)>,
}

impl Frame {
    /// Total update weight the frame carries.
    pub fn weight(&self) -> u64 {
        self.items.iter().map(|&(_, w)| w).sum()
    }
}

/// One scheduled point query: due `due_ns` after the window opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledQuery {
    /// Offset of the scheduled send time from the window start.
    pub due_ns: u64,
    /// Target object id.
    pub object: u32,
    /// Queried key (only meaningful for the CountMin).
    pub key: u64,
}

/// splitmix64: derives independent stream seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic weighted pick over the roster: every 10 consecutive
/// sequence numbers hit `cm` 8 times and the others once each.
pub fn pick_object(seq: u64) -> u32 {
    let mut slot = seq % ROSTER_WEIGHT;
    for (id, &(_, _, share)) in ROSTER.iter().enumerate() {
        if slot < share {
            return id as u32;
        }
        slot -= share;
    }
    0
}

/// The frame pool of ingest stream `stream`: `n` frames of
/// [`BATCH_ITEMS`] Zipf keys, weight `1 + key % 3` each, routed over
/// the roster by weighted rotation (offset per stream so concurrent
/// streams do not synchronize on one object).
pub fn frame_pool(seed: u64, stream: u64, dist: KeyDist, n: usize) -> Vec<Frame> {
    let mut keys = ZipfStream::new(dist.keys, dist.s, mix(seed, stream));
    let offset = mix(seed, stream ^ 0x0b1e) % ROSTER_WEIGHT;
    (0..n)
        .map(|i| Frame {
            object: pick_object(i as u64 + offset),
            items: (0..BATCH_ITEMS)
                .map(|_| {
                    let key = keys.next_item();
                    (key, 1 + key % 3)
                })
                .collect(),
        })
        .collect()
}

/// An open-loop query schedule: `n` queries at a fixed `rate_per_s`,
/// keys from `dist`, objects by weighted rotation.
pub fn query_schedule(
    seed: u64,
    stream: u64,
    dist: KeyDist,
    rate_per_s: f64,
    n: usize,
) -> Vec<ScheduledQuery> {
    let mut keys = ZipfStream::new(dist.keys, dist.s, mix(seed, stream));
    let period_ns = 1e9 / rate_per_s;
    (0..n)
        .map(|i| ScheduledQuery {
            due_ns: (i as f64 * period_ns) as u64,
            object: pick_object(i as u64),
            key: keys.next_item(),
        })
        .collect()
}
