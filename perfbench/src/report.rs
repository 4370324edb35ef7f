//! Turns a run's [`Outcome`] (and, when traced, its replayed
//! [`LayerCosts`]) into named metrics with units, the human-readable
//! report, and the one-line JSON result.

use crate::ledger::Checks;
use crate::procfs::GroupDelta;
use crate::replay::LayerCosts;
use crate::stats::median_f64;
use crate::trace;
use crate::workload::{Outcome, SubWindow, Workload};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (ops, answers, set-ups, frames replayed).
    pub samples: u64,
    /// Whether the metric is declared in `BENCHMARK.json` and goes
    /// into the JSON result; the others are printed for reading only.
    pub declared: bool,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
        declared: true,
    }
}

/// A metric printed in the report but not declared in the JSON.
fn note(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        declared: false,
        ..m(name, unit, value, samples)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// End-to-end metrics of one run: the gated ones first, then those
/// printed for reading but not gated (tails, failure and miss
/// fractions, which are 0 on a healthy run).
pub fn end_to_end(w: Workload, o: &Outcome) -> Vec<Metric> {
    let (batch, read) = (&o.batch_ns, &o.read_ns);
    let ops = o.items + o.window_reads;
    let subs = o.subs.len() as u64;
    // Median over the sub-windows of a figure of each.
    let over_subs =
        |f: &dyn Fn(&SubWindow) -> f64| median_f64(&o.subs.iter().map(f).collect::<Vec<_>>());
    let have_cpu = o.subs.iter().all(|s| s.cpu_ns_per_op.is_some());
    let mut v = vec![
        m(
            "setup_s",
            "s",
            median_f64(&o.setup_medians),
            o.setup_s.len() as u64,
        ),
        m(
            "updates_per_rtt",
            "1/rtt",
            over_subs(&|s| s.updates_per_s * s.probe_ns / 1e9),
            subs,
        ),
        m(
            "batch_p50_rtt",
            "rtt",
            over_subs(&|s| s.batch_ns / s.probe_ns),
            subs,
        ),
        m(
            "read_p50_rtt",
            "rtt",
            over_subs(&|s| s.read_ns / s.probe_ns),
            subs,
        ),
    ];
    if have_cpu {
        v.push(m(
            "cpu_per_op_rtt",
            "rtt",
            over_subs(&|s| s.cpu_ns_per_op.unwrap_or(0.0) / s.probe_ns),
            subs,
        ));
    }
    v.push(m(
        "envelope_rel_width_p50",
        "ratio",
        o.checks.rel_widths.median(),
        o.checks.rel_widths.len(),
    ));
    if let Some(kib) = o.peak_rss_kib {
        v.push(m("peak_rss_mib", "MiB", kib as f64 / 1024.0, 1));
    }
    let probe = over_subs(&|s| s.probe_ns) / 1e3;
    v.push(note("probe_rtt_p50_us", "us", probe, subs));
    v.push(note(
        "ingest_updates_per_s",
        "1/s",
        over_subs(&|s| s.updates_per_s),
        subs,
    ));
    v.push(note("batch_p50_us", "us", batch.us(0.5), batch.len()));
    v.push(note("read_p50_us", "us", read.us(0.5), read.len()));
    if have_cpu {
        v.push(note(
            "cpu_ns_per_op",
            "ns",
            over_subs(&|s| s.cpu_ns_per_op.unwrap_or(0.0)),
            subs,
        ));
    }
    let (read_name, read_tail) = match w {
        Workload::Replicated => ("merged_read", "merged_read_p99_us"),
        Workload::Ingest | Workload::Mixed => ("query", "query_p99_us"),
    };
    v.push(note("batch_p99_us", "us", batch.us(0.99), batch.len()));
    v.push(note(
        format!("{read_name}_p50_us"),
        "us",
        read.us(0.5),
        read.len(),
    ));
    v.push(note(read_tail, "us", read.us(0.99), read.len()));
    v.push(note(
        "read_service_p50_us",
        "us",
        o.service_ns.us(0.5),
        o.service_ns.len(),
    ));
    v.push(note(
        "window_updates_per_s",
        "1/s",
        ratio(o.items as f64, o.window_s),
        o.items,
    ));
    if let Some((user, sys)) = o.cpu_ns {
        v.push(note(
            "window_cpu_ns_per_op",
            "ns",
            ratio((user + sys) as f64, ops as f64),
            ops,
        ));
    }
    v.push(note(
        "failed_frac",
        "ratio",
        ratio(o.failed as f64, o.attempted as f64),
        o.attempted,
    ));
    v.push(note(
        "envelope_miss_frac",
        "ratio",
        o.checks.miss_frac(),
        o.checks.checked,
    ));
    v
}

/// Per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome, c: &LayerCosts) -> Vec<Metric> {
    let have_proc = o.server_proc.is_some() && o.client_proc.is_some();
    let client = o.client_proc.clone().unwrap_or_default();
    let groups = o.server_proc.clone().unwrap_or_default();
    let server = groups[0].clone();
    let ops = (o.items + o.window_reads) as f64;
    let frames = o.frames as f64;
    let reads = o.window_reads.max(1) as f64;
    let mut v = Vec::new();
    let mut proc_metrics = |prefix: &str, g: &GroupDelta, frames_seen: f64| {
        if !have_proc {
            return;
        }
        v.push(m(
            format!("{prefix}.cpu_ns_per_op"),
            "ns",
            ratio(g.cpu_ns() as f64, ops),
            ops as u64,
        ));
        v.push(m(
            format!("{prefix}.vcsw_per_frame"),
            "count",
            ratio(g.vcsw as f64, frames_seen),
            frames_seen as u64,
        ));
        if prefix == "server" {
            v.push(m(
                "server.sys_share",
                "ratio",
                g.sys_share(),
                g.threads as u64,
            ));
        }
    };
    proc_metrics("client", &client, frames);
    proc_metrics("server", &server, o.stats.frames as f64);
    let s = &o.stats;
    v.push(m(
        "client.bytes_out_per_update",
        "B",
        ratio(o.wire.0 as f64, o.items as f64),
        o.items,
    ));
    v.push(m(
        "client.bytes_in_per_op",
        "B",
        ratio(o.wire.1 as f64, frames + o.window_reads as f64),
        o.frames + o.window_reads,
    ));
    v.push(m(
        "server.updates_per_frame",
        "count",
        ratio(s.updates as f64, s.batches as f64),
        s.batches,
    ));
    v.push(m(
        "server.wakeups_per_frame",
        "count",
        ratio(s.wakeups as f64, s.frames as f64),
        s.frames,
    ));
    v.push(m("server.ready_peak", "count", s.ready_peak as f64, 1));
    v.push(m(
        "server.busy_rejections",
        "count",
        s.busy_rejections as f64,
        s.frames,
    ));
    // Coarse log2 bucket edges from STATS: they repeat exactly from run
    // to run, so they are printed, not declared.
    v.push(note(
        "server.update_p50_ns",
        "ns",
        s.update_p50_ns as f64,
        s.updates,
    ));
    v.push(note(
        "server.query_p50_ns",
        "ns",
        s.query_p50_ns as f64,
        s.queries,
    ));
    if have_proc {
        for (name, g) in ["conn", "reactor", "accept"].iter().zip(&groups[1..]) {
            let name = format!("server.{name}.cpu_ns_per_op");
            v.push(note(
                name,
                "ns",
                ratio(g.cpu_ns() as f64, ops),
                g.threads as u64,
            ));
        }
    }

    let n = o.sent_frames.len() as u64;
    v.push(m("protocol.encode_ns_per_frame", "ns", c.encode_ns, n));
    v.push(m("protocol.decode_ns_per_frame", "ns", c.decode_ns, n));
    v.push(m("protocol.ack_ns_per_frame", "ns", c.ack_ns, n));
    for (i, kind) in ["cm", "hll", "morris"].iter().enumerate() {
        v.push(m(
            format!("objects.apply_ns_per_frame.{kind}"),
            "ns",
            c.apply_ns[i],
            n,
        ));
    }
    for (i, kind) in ["cm", "hll", "morris"].iter().enumerate() {
        v.push(m(
            format!("objects.query_ns.{kind}"),
            "ns",
            c.query_ns[i],
            n,
        ));
    }
    v.push(m("objects.snapshot_since_ns", "ns", c.snapshot_since_ns, n));
    v.push(m("concurrent.apply_ns_per_frame", "ns", c.kernel_ns, n));
    v.push(m(
        "concurrent.distinct_per_item",
        "ratio",
        c.distinct_per_item,
        n,
    ));

    let d = o.delta.unwrap_or_default();
    let rt = d.reads.max(1) as f64;
    v.push(m(
        "replica.unchanged_rate",
        "ratio",
        ratio(d.unchanged as f64, rt),
        d.reads,
    ));
    v.push(m(
        "replica.delta_rate",
        "ratio",
        ratio(d.deltas as f64, rt),
        d.reads,
    ));
    v.push(m(
        "replica.full_rate",
        "ratio",
        ratio(d.fulls as f64, rt),
        d.reads,
    ));
    v.push(m(
        "replica.bytes_out_per_read",
        "B",
        ratio(d.bytes_out as f64, reads),
        o.window_reads,
    ));
    v.push(m(
        "replica.bytes_in_per_read",
        "B",
        ratio(d.bytes_in as f64, reads),
        o.window_reads,
    ));
    v.push(m("replica.failures", "count", o.replica_failures as f64, 1));
    for (i, kind) in ["cm", "hll", "morris"].iter().enumerate() {
        v.push(m(
            format!("merge.merge_states_ns.{kind}"),
            "ns",
            c.merge_ns[i],
            64,
        ));
    }
    v.push(m("merge.decode_ns", "ns", c.delta_decode_ns, n));

    // How late reads were issued against their schedule (the
    // closed-loop `ingest` sweep is due when sent, so near zero).
    let lateness = &o.lateness_ns;
    v.push(m(
        "gen.lateness_p99_us",
        "us",
        lateness.us(0.99),
        lateness.len(),
    ));
    v.extend(attribution(o, c));
    // Tracing overhead within the one traced rig: batch p50 of the
    // periods with spans over that of the periods without, minus 1.
    let [off, on] = &o.batch_split;
    v.push(m(
        "trace.overhead_batch_p50_frac",
        "ratio",
        ratio(on.us(0.5) - off.us(0.5), off.us(0.5)),
        on.len().min(off.len()),
    ));
    v
}

/// Splits the mean batch span and the mean read span into the layer
/// parts replay measured plus a named remainder, so the parts add up
/// to the span mean exactly.
pub fn attribution(o: &Outcome, c: &LayerCosts) -> Vec<Metric> {
    let (batch_span, read_span) = if o.delta.is_some() {
        ("replica.batch", "replica.query")
    } else {
        ("client.batch", "client.query")
    };
    let mut v = Vec::new();
    // Server-side batch frames per client frame: 1 for a direct
    // connection, the route-split fan-out through a group.
    let sub = ratio(o.stats.batches as f64, o.frames as f64).max(1.0);
    if let Some((mean, n)) = trace::mean_us(&o.spans, batch_span) {
        let parts = [
            ("attr.batch.client_encode_us", sub * c.encode_ns / 1e3),
            ("attr.batch.server_decode_us", sub * c.decode_ns / 1e3),
            ("attr.batch.objects_apply_us", c.apply_mix_ns / 1e3),
            ("attr.batch.ack_codec_us", sub * c.ack_ns / 1e3),
        ];
        v.push(m("attr.batch.span_us_mean", "us", mean, n));
        let known: f64 = parts.iter().map(|p| p.1).sum();
        for (name, us) in parts {
            v.push(m(name, "us", us, n));
        }
        v.push(m("server.transport_us_per_frame", "us", mean - known, n));
    }
    if let Some((mean, n)) = trace::mean_us(&o.spans, read_span) {
        let (server, client) = match o.delta {
            Some(d) => {
                // Every reply is built and decoded; the accumulator
                // merges at most once per read, when some reply changed.
                let replies = ratio(d.reads as f64, o.window_reads as f64);
                let merges = ratio((d.deltas + d.fulls) as f64, o.window_reads as f64).min(1.0);
                (
                    replies * c.snapshot_since_ns / 1e3,
                    (replies * c.delta_decode_ns + merges * c.merge_mix_ns) / 1e3,
                )
            }
            None => (c.query_mix_ns / 1e3, c.reply_ns / 1e3),
        };
        v.push(m("attr.read.span_us_mean", "us", mean, n));
        v.push(m("attr.read.server_us", "us", server, n));
        v.push(m("attr.read.client_us", "us", client, n));
        v.push(m("attr.read.transport_us", "us", mean - server - client, n));
    }
    v
}

/// The per-sub-window table: each rig's raw figures beside its host
/// probe (the inputs of the gated `*_rtt` metrics), and its batch
/// latency and read service time in probe round trips.
pub fn render_subs(subs: &[SubWindow]) -> String {
    let mut out = String::from(
        "  sub cpu  probe_us  updates_per_s  batch_us   read_us  service_us  cpu_ns/op | batch_rtt service_rtt\n",
    );
    for (k, s) in subs.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {k:>3} {:>3} {:>9.3} {:>14.0} {:>9.3} {:>9.3} {:>11.3} {:>10.1} | {:>9.3} {:>11.3}",
            s.cpu,
            s.probe_ns / 1e3,
            s.updates_per_s,
            s.batch_ns / 1e3,
            s.read_ns / 1e3,
            s.service_ns / 1e3,
            s.cpu_ns_per_op.unwrap_or(0.0),
            s.batch_ns / s.probe_ns,
            s.service_ns / s.probe_ns,
        );
    }
    out
}

/// The human-readable report block for a list of metrics.
pub fn render(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {title}\n");
    for x in metrics {
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<6} (n={}){}",
            x.name,
            format_value(x.value),
            x.unit,
            x.samples,
            if x.declared { "" } else { "  [printed only]" }
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The final result line: `{"correct", "attempted", "failed",
/// "metrics"}`, the declared metrics keyed by name with value and unit.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|x| x.declared)
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A one-line summary of the answer checks.
pub fn render_checks(c: &Checks) -> String {
    format!(
        "answers checked: {} ({} probabilistic-side misses, {} deterministic-side misses)",
        c.checked, c.prob_misses, c.det_misses
    )
}
