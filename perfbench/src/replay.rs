//! Per-layer costs, measured by replaying a run's own frames through
//! each layer's public functions in-process: the wire codec
//! (`protocol`), the served objects on a twin registry (`objects`), the
//! CountMin shard kernel (`concurrent`), and the mergeable-state layer
//! (`merge`). No sockets are involved, so what a replayed layer costs
//! is separable from what the end-to-end span spends waiting.

use crate::gen::{pick_object, Frame, ROSTER};
use ivl_concurrent::BatchScratch;
use ivl_service::objects::{ObjectConfig, ObjectRegistry, ObjectWriter};
use ivl_service::protocol::{decode_batch_into, FrameDecoder, DEFAULT_MAX_FRAME_LEN};
use ivl_service::{
    merge_states, MergePolicy, Metrics, Request, Response, ServerConfig, SnapshotDelta,
};
use std::hint::black_box;
use std::time::Instant;

/// What one replay measured. Per-kind arrays are in roster order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCosts {
    /// `Request::encode` of a batch frame, ns.
    pub encode_ns: f64,
    /// `FrameDecoder` + `decode_batch_into` of a batch frame, ns.
    pub decode_ns: f64,
    /// `Response::Ack` encode plus client-side decode, ns.
    pub ack_ns: f64,
    /// `ServedObject::writer().apply_batch` per frame, ns, per kind.
    pub apply_ns: [f64; 3],
    /// Frame-mix mean of `apply_ns`.
    pub apply_mix_ns: f64,
    /// `ShardLease::apply_batch` with a `BatchScratch`, per CountMin
    /// frame, ns.
    pub kernel_ns: f64,
    /// Distinct keys over items, CountMin frames.
    pub distinct_per_item: f64,
    /// `ServedObject::query`, ns, per kind.
    pub query_ns: [f64; 3],
    /// Read-mix mean of `query_ns`.
    pub query_mix_ns: f64,
    /// `Response::Envelope` encode plus client-side decode of a query
    /// answer, ns (read-mix mean).
    pub reply_ns: f64,
    /// `ServedObject::snapshot_since` against the previous read's
    /// epoch, ns (read-mix mean).
    pub snapshot_since_ns: f64,
    /// `Response::decode` of those `SNAPSHOT_DELTA_REPLY` frames, ns.
    pub delta_decode_ns: f64,
    /// `merge_states` of two partitioned twins' states, ns, per kind.
    pub merge_ns: [f64; 3],
    /// Read-mix mean of `merge_ns`.
    pub merge_mix_ns: f64,
}

fn twin_registry() -> ObjectRegistry {
    let cfg = ServerConfig::default();
    let configs: Vec<ObjectConfig> = ROSTER
        .iter()
        .map(|&(name, kind, _)| ObjectConfig::new(name, kind))
        .collect();
    ObjectRegistry::build(
        &configs,
        cfg.alpha,
        cfg.delta,
        cfg.shards,
        cfg.write_buffer,
        cfg.seed,
    )
}

fn writers<'a>(reg: &'a ObjectRegistry, metrics: &'a Metrics) -> Vec<Box<dyn ObjectWriter + 'a>> {
    (0..ROSTER.len() as u32)
        .map(|id| {
            let mut w = reg.get(id).expect("roster object").writer(metrics);
            w.ensure_ready().expect("a fresh twin has free shards");
            w
        })
        .collect()
}

fn per(total_ns: u128, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// Mean over the roster shares.
fn roster_mix(per_kind: &[f64; 3]) -> f64 {
    let total: u64 = ROSTER.iter().map(|r| r.2).sum();
    ROSTER
        .iter()
        .zip(per_kind)
        .map(|(r, ns)| r.2 as f64 * ns)
        .sum::<f64>()
        / total as f64
}

/// Replays `frames` (in send order) through every layer. A
/// `snapshot_since` read is modelled every `frames_per_read` frames, the
/// run's own frame/read mix; a run with no reads in its window models
/// none, and its snapshot figures are 0.
pub fn replay(frames: &[Frame], frames_per_read: usize) -> LayerCosts {
    let mut c = LayerCosts::default();
    if frames.is_empty() {
        return c;
    }
    let n = frames.len();

    // protocol: client encode, server decode, ack round.
    let requests: Vec<Request> = frames
        .iter()
        .map(|f| Request::Batch {
            object: f.object,
            items: f.items.clone(),
        })
        .collect();
    let mut buf = Vec::new();
    let t = Instant::now();
    for r in &requests {
        buf.clear();
        r.encode(&mut buf);
        black_box(&buf);
    }
    c.encode_ns = per(t.elapsed().as_nanos(), n);
    let wire: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    let mut items = Vec::new();
    let t = Instant::now();
    for bytes in &wire {
        decoder.feed(bytes);
        let payload = decoder
            .next_frame()
            .expect("well-formed frame")
            .expect("whole frame");
        black_box(decode_batch_into(payload, &mut items).expect("batch frame"));
    }
    c.decode_ns = per(t.elapsed().as_nanos(), n);
    let t = Instant::now();
    for i in 0..n {
        buf.clear();
        Response::Ack { applied: i as u64 }.encode(&mut buf);
        decoder.feed(&buf);
        let payload = decoder.next_frame().expect("ack frame").expect("whole");
        black_box(Response::decode(payload).expect("ack decodes"));
    }
    c.ack_ns = per(t.elapsed().as_nanos(), n);

    // objects: apply per kind on a twin registry, then point queries.
    let reg = twin_registry();
    let metrics = Metrics::new();
    let mut ws = writers(&reg, &metrics);
    for (kind, w) in ws.iter_mut().enumerate() {
        let mine: Vec<&Frame> = frames.iter().filter(|f| f.object == kind as u32).collect();
        let t = Instant::now();
        for f in &mine {
            w.apply_batch(&f.items);
        }
        c.apply_ns[kind] = per(t.elapsed().as_nanos(), mine.len());
    }
    c.apply_mix_ns = roster_mix(&c.apply_ns);
    for kind in 0..ROSTER.len() {
        let obj = reg.get(kind as u32).expect("roster object");
        let t = Instant::now();
        for f in frames {
            black_box(obj.query(f.items[0].0));
        }
        c.query_ns[kind] = per(t.elapsed().as_nanos(), n);
    }
    c.query_mix_ns = roster_mix(&c.query_ns);
    let answers: Vec<_> = (0..n)
        .map(|i| {
            reg.get(pick_object(i as u64))
                .expect("roster object")
                .query(frames[i].items[0].0)
        })
        .collect();
    let t = Instant::now();
    for env in &answers {
        buf.clear();
        Response::Envelope(env.clone()).encode(&mut buf);
        decoder.feed(&buf);
        let payload = decoder.next_frame().expect("reply frame").expect("whole");
        black_box(Response::decode(payload).expect("reply decodes"));
    }
    c.reply_ns = per(t.elapsed().as_nanos(), n);
    drop(ws);

    // concurrent: the CountMin shard kernel alone.
    let reg = twin_registry();
    let cm = reg.cm(0).expect("object 0 is a CountMin");
    let mut lease = cm.sketch().lease().expect("fresh twin has a free shard");
    let mut scratch = BatchScratch::new(cm.params().depth);
    let cm_frames: Vec<&Frame> = frames.iter().filter(|f| f.object == 0).collect();
    let t = Instant::now();
    for f in &cm_frames {
        lease.apply_batch(&f.items, &mut scratch);
    }
    c.kernel_ns = per(t.elapsed().as_nanos(), cm_frames.len());
    let (mut distinct, mut total) = (0usize, 0usize);
    for f in &cm_frames {
        scratch.coalesce(&f.items);
        distinct += scratch.len();
        total += f.items.len();
    }
    c.distinct_per_item = if total == 0 {
        0.0
    } else {
        distinct as f64 / total as f64
    };
    drop(lease);

    // objects + merge: delta reads between runs of frames.
    let reg = twin_registry();
    let mut ws = writers(&reg, &metrics);
    let mut bases = [u64::MAX; 3];
    let (mut since_ns, mut decode_ns, mut reads) = (0u128, 0u128, 0usize);
    let every = frames_per_read.max(1);
    for (i, f) in frames.iter().enumerate() {
        ws[f.object as usize].apply_batch(&f.items);
        if (i + 1) % every != 0 {
            continue;
        }
        let id = pick_object(reads as u64);
        let obj = reg.get(id).expect("roster object");
        let t = Instant::now();
        let (epoch, change, envelope) = obj.snapshot_since(bases[id as usize]);
        since_ns += t.elapsed().as_nanos();
        bases[id as usize] = epoch;
        buf.clear();
        Response::SnapshotDelta(SnapshotDelta {
            object: id,
            kind: obj.kind(),
            epoch,
            change,
            envelope,
        })
        .encode(&mut buf);
        decoder.feed(&buf);
        let payload = decoder.next_frame().expect("reply frame").expect("whole");
        let t = Instant::now();
        black_box(Response::decode(payload).expect("reply decodes"));
        decode_ns += t.elapsed().as_nanos();
        reads += 1;
    }
    c.snapshot_since_ns = per(since_ns, reads);
    c.delta_decode_ns = per(decode_ns, reads);
    drop(ws);

    // merge: two partitioned twins, states merged per kind.
    let (a, b) = (twin_registry(), twin_registry());
    {
        let (mut wa, mut wb) = (writers(&a, &metrics), writers(&b, &metrics));
        for f in frames {
            let side = |parity| -> Vec<(u64, u64)> {
                f.items
                    .iter()
                    .copied()
                    .filter(|&(k, _)| k % 2 == parity)
                    .collect()
            };
            let (even, odd) = (side(0), side(1));
            wa[f.object as usize].apply_batch(&even);
            wb[f.object as usize].apply_batch(&odd);
        }
    }
    for kind in 0..ROSTER.len() {
        let (sa, _) = a.get(kind as u32).expect("roster object").snapshot();
        let (sb, _) = b.get(kind as u32).expect("roster object").snapshot();
        let reps = 64;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(merge_states(MergePolicy::Add, &[&sa, &sb]).expect("twins merge"));
        }
        c.merge_ns[kind] = per(t.elapsed().as_nanos(), reps);
    }
    c.merge_mix_ns = roster_mix(&c.merge_ns);
    c
}
