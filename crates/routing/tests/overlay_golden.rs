//! Golden pins for the overlay engine behind Figures 9–11: the
//! `RunReport` of every cell of a fixed grid, bit for bit
//! (`f64::to_bits`). `run` and `run_poisson` share one loop with
//! `run_faulty`, so comparing them with each other guards nothing; these
//! pins were captured from the earlier two-loop engine that produced the
//! published figures. A mismatch means the queueing model changed.

use psguard_crypto::{prf, Token};
use psguard_model::{Constraint, Event, Filter, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{CostModel, Engine, EngineConfig, IndexableFilter};

const BROKERS: [u32; 5] = [0, 2, 6, 14, 30];
const TOPICS: u32 = 4;

/// `(cost model, rate_eps, duration_s)` per cell.
fn cells() -> [(CostModel, f64, f64); 2] {
    let psguard = CostModel {
        publisher_us: 650,
        broker_match_us: 11,
        broker_forward_us: 800,
        subscriber_us: 1_400,
    };
    [(CostModel::plain(), 90.0, 1.0), (psguard, 2_500.0, 0.4)]
}

fn token(topic: u32) -> Token {
    prf(b"golden-master", format!("topic{topic}").as_bytes())
}

/// 32 subscribers over four topics; the range floors make some filters
/// cover others on the way up the tree.
fn plain_subs() -> Vec<Filter> {
    (0..32u32)
        .map(|c| {
            Filter::for_topic(format!("topic{}", c % TOPICS))
                .with(Constraint::new("x", Op::Ge(i64::from(c % 8) * 10)))
        })
        .collect()
}

fn secure_subs() -> Vec<SecureFilter> {
    plain_subs()
        .iter()
        .enumerate()
        .map(|(c, f)| SecureFilter::from_filter(token(c as u32 % TOPICS), f))
        .collect()
}

fn plain_events() -> Vec<Event> {
    (0..24u32)
        .map(|i| {
            Event::builder(format!("topic{}", i % TOPICS))
                .attr("x", i64::from(i) * 3)
                .build()
        })
        .collect()
}

fn secure_events() -> Vec<SecureEvent> {
    (0..24u32)
        .map(|i| {
            let mut nonce = [0u8; 16];
            nonce[..4].copy_from_slice(&i.to_le_bytes());
            SecureEvent {
                tag: RoutableTag::with_nonce(&token(i % TOPICS), nonce),
                event: Event::builder("").attr("x", i64::from(i) * 3).build(),
                iv: [0u8; 16],
                epoch: 0,
                mac: [0u8; 20],
            }
        })
        .collect()
}

/// `(published, delivered, mean_latency_ms, p99_latency_ms,
/// max_utilization, saturated)` with the floats as `to_bits`.
type Pin = (u64, u64, u64, u64, u64, bool);

/// Checks every grid cell, each run on a fresh engine (so probe memos
/// and broker stats never carry across cells).
fn check<F: IndexableFilter>(subs: &[F], events: &[F::Event], want: &[Pin])
where
    F::Event: Eq,
{
    let mut want = want.iter();
    for poisson in [false, true] {
        for brokers in BROKERS {
            for (cost, rate, duration) in cells() {
                let mut eng: Engine<F> = Engine::new(EngineConfig::paper(brokers, 9));
                for (c, f) in subs.iter().enumerate() {
                    eng.subscribe(c as u32, f.clone());
                }
                let r = if poisson {
                    eng.run_poisson(events, rate, duration, &cost)
                } else {
                    eng.run(events, rate, duration, &cost)
                };
                let got: Pin = (
                    r.published,
                    r.delivered,
                    r.mean_latency_ms.to_bits(),
                    r.p99_latency_ms.to_bits(),
                    r.max_utilization.to_bits(),
                    r.saturated,
                );
                let label = format!("poisson={poisson} brokers={brokers} rate={rate}");
                assert_eq!(Some(&got), want.next(), "{label}: {r:?}");
            }
        }
    }
    assert!(want.next().is_none(), "unused pins");
}

#[test]
fn plain_overlay_reports_match_golden_pins() {
    check(&plain_subs(), &plain_events(), PLAIN);
}

#[test]
fn secure_overlay_reports_match_golden_pins() {
    check(&secure_subs(), &secure_events(), SECURE);
}

// Grid order: arrival model (run, run_poisson) → brokers → cell.
#[rustfmt::skip]
const PLAIN: &[Pin] = &[
    (90, 348, 0x40406272bc2e3ba7, 0x404f7645a1cac083, 0x3fd3a2df9378ee28, false),
    (1000, 3980, 0x409b7cd26ac59568, 0x40aafbd70a3d70a4, 0x4023479c0ebedfa4, true),
    (90, 348, 0x404cb1e27b057013, 0x40537ba5e353f7cf, 0x3fc26351deefe500, false),
    (1000, 3980, 0x4089ca528998c6d5, 0x4098995810624dd3, 0x4013563f141205bc, true),
    (90, 348, 0x40562e548269b214, 0x405de3126e978d50, 0x3fc054ef459d9903, false),
    (1000, 3980, 0x4088ab49cec947c4, 0x409713cbc6a7ef9e, 0x401202ccf6be37df, true),
    (90, 348, 0x405d46c7f361e760, 0x4062bf9db22d0e56, 0x3fbe9f2778140dd4, false),
    (1000, 3980, 0x408807e8a97cea68, 0x4096087df3b645a2, 0x40110600d1b71759, true),
    (90, 348, 0x40627bc0109283af, 0x406986872b020c4a, 0x3fc0895d0b73d189, false),
    (1000, 3980, 0x408a8ca53ab677b0, 0x409816cfdf3b645a, 0x401206e58a32f449, true),
    (102, 396, 0x4041331072310723, 0x40505d4fdf3b645a, 0x3fd65625a682b628, false),
    (984, 3936, 0x409b322b7e3184b0, 0x40aa9c9ba5e353f8, 0x40230cdc8754f377, true),
    (102, 396, 0x404ced76444edbbc, 0x40537c28f5c28f5c, 0x3fc4f82f51266341, false),
    (984, 3936, 0x40898a4e118cade5, 0x4098420e56041893, 0x40130dce5b4245f6, true),
    (102, 396, 0x405646b6d49ea07d, 0x405de3126e978d50, 0x3fc2745bf26f1dc5, false),
    (984, 3936, 0x4088712108acc3be, 0x4096baf9db22d0e5, 0x4011c28d64d7f0ed, true),
    (102, 396, 0x405d58af4257c0f3, 0x4062bf9db22d0e56, 0x3fc1550ca1cef241, false),
    (984, 3936, 0x4087d1f733000cca, 0x4095af6b851eb852, 0x4010c7cd898b2e9d, true),
    (102, 396, 0x406282cb94587501, 0x406998b439581062, 0x3fc2a8c9b845564b, false),
    (984, 3936, 0x408a525689d50237, 0x4097b7e45a1cac08, 0x4011c28d64d7f0ed, true),
];

#[rustfmt::skip]
const SECURE: &[Pin] = &[
    (90, 348, 0x4040628dda7a1462, 0x404f753f7ced9168, 0x3fd3a3a8e71476b0, false),
    (1000, 3980, 0x409b6af5049ab9d4, 0x40aae8483126e979, 0x40233ae19b90ea9e, true),
    (90, 348, 0x404cb218b79d218b, 0x40537b22d0e56042, 0x3fc264e48626f60e, false),
    (1000, 3980, 0x4089a6874d420a50, 0x409872189374bc6a, 0x40133cca2db61bb0, true),
    (90, 348, 0x40562e72a4134d90, 0x405de189374bc6a8, 0x3fc05681ecd4aa11, false),
    (1000, 3980, 0x408887661e9b56d9, 0x4096ecb126e978d5, 0x4011e95810624dd3, true),
    (90, 348, 0x405d46b9a3648a53, 0x4062be978d4fdf3b, 0x3fbea24cc6822ff1, false),
    (1000, 3980, 0x4087e3efbf6b46ae, 0x4095e1dc28f5c28f, 0x4010ec8beb5b2d4d, true),
    (90, 348, 0x40627ba12e117783, 0x4069889374bc6a7f, 0x3fc08aefb2aae297, false),
    (1000, 3980, 0x408a689730d64af8, 0x4097efc8b4395810, 0x4011ed70a3d70a3d, true),
    (102, 396, 0x4041338f8bd29257, 0x40505c49ba5e353f, 0x3fd6555c52e72da1, false),
    (984, 3936, 0x409b208c10fbc10f, 0x40aa892e978d4fdf, 0x4023005bc01a36e3, true),
    (102, 396, 0x404cedbb1cdbb1ce, 0x40537eb851eb851f, 0x3fc4f765fd8adaba, false),
    (984, 3936, 0x408966fec11c85ab, 0x40981b3439581062, 0x4012f4cccccccccd, true),
    (102, 396, 0x405646c908f51918, 0x405de7ae147ae148, 0x3fc272c94b380cb7, false),
    (984, 3936, 0x40884db956551565, 0x409693f2b020c49c, 0x4011a98bd66277c4, true),
    (102, 396, 0x405d588ed277dc17, 0x4062be978d4fdf3b, 0x3fc15379fa97e133, false),
    (984, 3936, 0x4087ae7a4a7e7175, 0x409588e560418937, 0x4010aecbfb15b574, true),
    (102, 396, 0x4062829ebaf7c98d, 0x40699a45a1cac083, 0x3fc2a737110e453d, false),
    (984, 3936, 0x408a2ec485894859, 0x409790bb645a1cac, 0x4011a98bd66277c4, true),
];
