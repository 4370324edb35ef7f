//! The benchmark's own tests: deterministic inputs, every declared
//! metric printed with its unit, and planted wrong answers caught.

use ivl_service::{Envelope, ErrorEnvelope, Request};
use perfbench::ledger::{check, Checks, Truth, Verdict};
use perfbench::workload::{Params, Workload};
use std::process::Command;

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes");
        rest[open..open + close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs the benchmark binary; returns its standard output.
fn run_binary(workload: Workload, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            &workload.to_string(),
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn same_seed_gives_byte_identical_frames_and_query_schedules() {
    for w in Workload::ALL {
        let bytes = |seed| {
            let p = Params::new(w, seed, 2.0);
            let mut wire = Vec::new();
            for pool in p.pools() {
                for frame in pool {
                    Request::Batch {
                        object: frame.object,
                        items: frame.items,
                    }
                    .encode(&mut wire);
                }
            }
            (wire, p.schedule())
        };
        assert_eq!(bytes(7), bytes(7), "{w}: same seed, same inputs");
        assert_ne!(bytes(7).0, bytes(8).0, "{w}: another seed, other frames");
        if w != Workload::Ingest {
            assert_ne!(bytes(7).1, bytes(8).1, "{w}: another seed, other queries");
        }
    }
}

#[test]
fn a_tiny_run_of_each_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for w in Workload::ALL {
            let stdout = run_binary(w, trace);
            let json = stdout.lines().last().expect("a result line");
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert_eq!(
                json.matches("\"unit\":").count(),
                metrics.len(),
                "{w}: exactly the declared {section} metrics in {json}"
            );
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&key)
                    .unwrap_or_else(|| panic!("{w}: {name} missing from {json}"));
                let rest = &json[at + key.len()..];
                let unit_at = rest.find("\"unit\": \"").expect("unit follows") + 9;
                assert!(
                    rest[unit_at..].starts_with(&format!("{unit}\"")),
                    "{w}: {name} not in {unit}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(name.as_str())
                            && l.split_whitespace().nth(2) == Some(unit.as_str())
                            && l.contains("(n=")),
                    "{w}: report prints {name} with its unit and sample count"
                );
            }
        }
    }
}

fn frequency(estimate: u64, stream_len: u64, lag: u64) -> ErrorEnvelope {
    ErrorEnvelope::Frequency(Envelope::new(7, estimate, stream_len, 0.01, 0.01, lag))
}

fn truth(obj: (u64, u64), key: (u64, u64)) -> Truth {
    Truth {
        obj_start: obj.0,
        obj_end: obj.1,
        key_start: key.0,
        key_end: key.1,
    }
}

#[test]
fn planted_bad_envelopes_are_reported_as_misses() {
    // ε = ⌈0.01 · 1000⌉ = 10.
    let good = frequency(50, 1000, 0);
    assert_eq!(check(&good, truth((990, 1000), (45, 50))), Verdict::Covered);
    // Below the completed frequency: impossible for a correct server.
    assert_eq!(
        check(&frequency(40, 1000, 0), truth((990, 1000), (45, 50))),
        Verdict::DeterministicMiss
    );
    // Write-buffer lag widens the lower side.
    assert_eq!(
        check(&frequency(40, 1000, 5), truth((990, 1000), (45, 50))),
        Verdict::Covered
    );
    // Above f_end + ε: the probability-δ side.
    assert_eq!(
        check(&frequency(61, 1000, 0), truth((990, 1000), (45, 50))),
        Verdict::ProbabilisticMiss
    );
    // Observed weight outside the completed..invoked interval.
    assert_eq!(
        check(&good, truth((1001, 1100), (45, 50))),
        Verdict::DeterministicMiss
    );
    let morris = ErrorEnvelope::ApproxCount {
        estimate: 100.0,
        a: 0.1,
        exponent: 20,
        observed: 120,
    };
    assert_eq!(check(&morris, truth((100, 130), (0, 0))), Verdict::Covered);
    assert_eq!(
        check(&morris, truth((121, 130), (0, 0))),
        Verdict::DeterministicMiss
    );

    let mut tally = Checks::default();
    tally.record(&good, truth((990, 1000), (45, 50)));
    tally.record(&frequency(40, 1000, 0), truth((990, 1000), (45, 50)));
    tally.record(&frequency(61, 1000, 0), truth((990, 1000), (45, 50)));
    tally.record(&morris, truth((100, 130), (0, 0)));
    assert_eq!(
        (tally.checked, tally.det_misses, tally.prob_misses),
        (4, 1, 1)
    );
    assert_eq!(tally.miss_frac(), 0.5);
    assert_eq!(tally.rel_widths.len(), 3);
}
