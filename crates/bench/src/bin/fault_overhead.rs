//! Cost of the overlay's zero-fault path.
//!
//! `Engine::run` is the `run_faulty` event loop under
//! `FaultConfig::none`, so the two can no longer be timed against each
//! other. Instead the zero-fault median is held to at most 1.05x the
//! `Engine::run` median of the earlier two-loop engine on the same
//! workload (`TWO_LOOP_RUN_MS_MEDIAN`). Also records a
//! lossy-with-recovery run for context. Results go to
//! `BENCH_fault.json` in the current directory; `--smoke` runs three
//! repeats, skips the wall-clock bound and writes to
//! `target/bench-smoke/`.

use std::time::Instant;

use psguard_bench::support::{write_bench_json, Json};
use psguard_model::{Event, Filter};
use psguard_net::{FaultPlan, LinkFaults};
use psguard_siena::{CostModel, Engine, EngineConfig, FaultConfig, RecoveryConfig};

const BROKERS: u32 = 14;
const SUBSCRIBERS: u32 = 16;
const RATE_EPS: f64 = 1_000.0;
const DURATION_S: f64 = 2.0;
/// Median `Engine::run` wall time (ms) of the two-loop engine on this
/// workload: the median of 14 invocations of this bin at that revision,
/// each the median of 11 runs, on a 2-vCPU Intel Xeon VM (invocations
/// ranged 24.2–41.2 ms). The bound only means something on comparable
/// hardware, so it is asserted in full mode only.
const TWO_LOOP_RUN_MS_MEDIAN: f64 = 26.5;
/// The zero-fault path may cost at most this multiple of the reference.
const ZERO_FAULT_CEILING: f64 = 1.05;

fn engine() -> Engine<Filter> {
    let mut eng = Engine::new(EngineConfig {
        broker_nodes: BROKERS,
        subscribers: SUBSCRIBERS,
        seed: 42,
    });
    for c in 0..SUBSCRIBERS {
        eng.subscribe(c, Filter::for_topic("t"));
    }
    eng
}

fn workload() -> Vec<Event> {
    (0..32)
        .map(|i| {
            Event::builder("t")
                .attr("x", i as i64)
                .payload(vec![0u8; 64])
                .build()
        })
        .collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let repeats = if smoke { 3 } else { 31 };
    let events = workload();
    let cost = CostModel::plain();
    let mut eng = engine();

    let mut run_ms = Vec::with_capacity(repeats);
    let mut delivered = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        delivered = eng.run(&events, RATE_EPS, DURATION_S, &cost).delivered;
        run_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let zero_fault = median(&mut run_ms);
    let ratio = zero_fault / TWO_LOOP_RUN_MS_MEDIAN;
    println!(
        "zero-fault run: {zero_fault:.2} ms median ({ratio:.3}x the two-loop reference {TWO_LOOP_RUN_MS_MEDIAN:.2} ms)"
    );

    // Context: the same workload over 20%-lossy links with recovery on.
    let plan = FaultPlan::new(9).with_default_link_faults(LinkFaults {
        drop_p: 0.2,
        dup_p: 0.05,
        jitter_us: 5_000,
    });
    let mut cfg = FaultConfig::with_recovery(plan);
    cfg.recovery = Some(RecoveryConfig::no_heartbeats());
    let start = Instant::now();
    let lossy = eng.run_faulty(&events, RATE_EPS, DURATION_S, &cost, &mut cfg);
    let lossy_ms = start.elapsed().as_secs_f64() * 1e3;
    let expected = lossy.published * SUBSCRIBERS as u64;
    println!(
        "lossy 20% + recovery: delivery {:.4}, {} retransmissions, {} dups suppressed, {lossy_ms:.2} ms",
        lossy.delivery_fraction(expected),
        lossy.retransmissions,
        lossy.duplicates_suppressed
    );

    // Same keys the hand-rolled encoder emitted, now through the shared
    // support builder (one JSON writer for every BENCH artifact).
    let doc = Json::obj()
        .field("bench", Json::str("fault_overhead"))
        .field(
            "config",
            Json::obj()
                .field("brokers", Json::Int(BROKERS as u64))
                .field("subscribers", Json::Int(SUBSCRIBERS as u64))
                .field("rate_eps", Json::Float(RATE_EPS, 0))
                .field("duration_s", Json::Float(DURATION_S, 0))
                .field("repeats", Json::Int(repeats as u64)),
        )
        .field("smoke", Json::Bool(smoke))
        .field(
            "zero_fault",
            Json::obj()
                .field("run_ms_median", Json::Float(zero_fault, 3))
                .field(
                    "two_loop_run_ms_median",
                    Json::Float(TWO_LOOP_RUN_MS_MEDIAN, 3),
                )
                .field("ratio", Json::Float(ratio, 3))
                .field("ceiling", Json::Float(ZERO_FAULT_CEILING, 2))
                .field("delivered", Json::Int(delivered)),
        )
        .field(
            "lossy_with_recovery",
            Json::obj()
                .field("drop_p", Json::Float(0.2, 1))
                .field("dup_p", Json::Float(0.05, 2))
                .field(
                    "delivery_fraction",
                    Json::Float(lossy.delivery_fraction(expected), 5),
                )
                .field("retransmissions", Json::Int(lossy.retransmissions))
                .field(
                    "duplicates_suppressed",
                    Json::Int(lossy.duplicates_suppressed),
                )
                .field("abandoned", Json::Int(lossy.abandoned))
                .field("run_ms", Json::Float(lossy_ms, 3)),
        );
    write_bench_json("BENCH_fault.json", &doc);

    if smoke {
        println!("smoke mode: skipping the zero-fault wall-clock bound");
        return;
    }
    assert!(
        ratio <= ZERO_FAULT_CEILING,
        "zero-fault path must cost <= {ZERO_FAULT_CEILING}x the two-loop run \
         ({TWO_LOOP_RUN_MS_MEDIAN} ms), got {zero_fault:.2} ms ({ratio:.3}x)"
    );
}
