//! Guards for the harness itself: deterministic inputs, the two
//! subscription pitfalls of the reactor protocol, and the percentile rule.

use std::collections::HashSet;

use perfbench::gen::{fresh_fence, generate, Params, WORKLOADS};
use perfbench::stats::{chunked_percentile, percentile, Metrics};
use psguard_crypto::{prf, Token};
use psguard_model::Filter;
use psguard_routing::SecureFilter;
use psguard_siena::wire::filter_crc;

fn tokens(n: usize) -> Vec<Token> {
    (0..n)
        .map(|t| prf(b"harness", format!("t{t}").as_bytes()))
        .collect()
}

#[test]
fn same_seed_gives_identical_inputs() {
    for w in WORKLOADS {
        let p = Params::named(w, true).expect("known workload");
        let a = generate(&p, 7, 2.0);
        let b = generate(&p, 7, 2.0);
        assert_eq!(a.interests, b.interests, "{w}");
        assert_eq!(a.topics, b.topics, "{w}");
        assert_eq!(a.xs, b.xs, "{w}");
        assert_eq!(a.matches, b.matches, "{w}");
        assert_eq!(a.due_ns, b.due_ns, "{w}");
        assert_eq!(a.churn, b.churn, "{w}");
        let c = generate(&p, 8, 2.0);
        assert_ne!(a.xs, c.xs, "{w}: another seed must give other inputs");
    }
}

/// Pitfall (b): the broker keeps one entry per (connection, filter), so
/// two principals with equal filters on the gateway connection would
/// collapse into one and a single unsubscribe would remove both.
#[test]
fn generated_filters_are_distinct_per_connection() {
    for w in WORKLOADS {
        for smoke in [true, false] {
            let p = Params::named(w, smoke).expect("known workload");
            let inputs = generate(&p, 3, 10.0);
            let t = tokens(p.topics);
            let filters: HashSet<SecureFilter> = inputs.secure_filters(&t).collect();
            assert_eq!(filters.len(), inputs.interests.len(), "{w} smoke={smoke}");
        }
    }
}

/// Pitfall (a): `subscribe_acked` matches acks by `filter_crc`; a fence
/// repeating an earlier filter's crc returns on the earlier ack.
#[test]
fn fence_skips_candidates_whose_crc_is_taken() {
    let t = tokens(4);
    let candidate =
        |k: u64| SecureFilter::from_filter(t[k as usize % 4], &Filter::for_topic("fence"));
    let existing = vec![candidate(0), candidate(1)];
    let fence = fresh_fence(existing.clone(), candidate);
    assert_eq!(fence, candidate(2));
    let taken: HashSet<u32> = existing.iter().map(filter_crc).collect();
    assert!(!taken.contains(&filter_crc(&fence)));
}

#[test]
fn fence_crc_is_unique_for_every_workload() {
    for w in WORKLOADS {
        let p = Params::named(w, true).expect("known workload");
        let inputs = generate(&p, 5, 2.0);
        let t = tokens(p.topics);
        let fence = fresh_fence(inputs.secure_filters(&t), |k| {
            SecureFilter::from_filter(prf(b"fence", &k.to_le_bytes()), &Filter::for_topic("fence"))
        });
        let crcs: HashSet<u32> = inputs.secure_filters(&t).map(|f| filter_crc(&f)).collect();
        assert!(!crcs.contains(&filter_crc(&fence)), "{w}");
    }
}

#[test]
fn oracle_matches_brute_force() {
    let p = Params::named("steady_churn", true).expect("known workload");
    let inputs = generate(&p, 9, 2.0);
    for seq in 0..inputs.len() {
        let brute: Vec<u32> = (0..inputs.interests.len() as u32)
            .filter(|&q| inputs.interests[q as usize].covers(inputs.topics[seq], inputs.xs[seq]))
            .collect();
        assert_eq!(inputs.matching(seq), brute.as_slice(), "event {seq}");
    }
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let v: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 beyond p99");
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v[..19], 0.5), None);
    assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn chunked_tail_is_the_median_of_chunk_tails() {
    // Three chunks of 1000 whose p99s are 990, 1990 and 2990.
    let v: Vec<f64> = (1..=3000).map(f64::from).collect();
    assert_eq!(chunked_percentile(&v, 0.99, 1000), Some(1990.0));
    // A stall in one chunk moves that chunk's tail by one rank, and the
    // median of the three tails only as far.
    let mut w = v.clone();
    w[1500] = 1e9;
    assert_eq!(chunked_percentile(&w, 0.99, 1000), Some(1991.0));
}

#[test]
fn metrics_state_their_sample_count() {
    let mut m = Metrics::default();
    m.put("latency_p99_ms", 1.5, "ms", 1000);
    assert_eq!(
        m.to_json(true),
        r#"{"latency_p99_ms": {"value": 1.5, "unit": "ms", "samples": 1000}}"#
    );
    assert_eq!(
        m.to_json(false),
        r#"{"latency_p99_ms": {"value": 1.5, "unit": "ms"}}"#
    );
}

/// Runs the benchmark binary on a smoke-sized workload and returns its
/// last stdout line.
fn run_smoke(workload: &str, trace: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_run_reports_every_end_to_end_metric() {
    let line = run_smoke("steady_churn", "0");
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert!(line.contains(r#""failed": 0,"#), "{line}");
    for m in [
        "setup_s",
        "throughput_eps",
        "latency_p50_ms",
        "latency_p99_ms",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m} missing: {line}"
        );
    }
}

#[test]
fn smoke_traced_run_reports_per_layer_metrics() {
    let line = run_smoke("ticker", "1");
    for m in [
        "psguard.publisher.us_p99",
        "psguard.subscriber.us_p99",
        "keys.kdc.grant_us_p99",
        "siena.broker.match_us_p99",
        "siena.reactor.transit_ms_p99",
        "siena.log.append_us_p99",
        "bench.trace.unattributed_frac",
    ] {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m} missing: {line}"
        );
    }
}
