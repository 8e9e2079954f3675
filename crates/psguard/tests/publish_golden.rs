//! Golden pin for `Publisher::publish`: the wire bytes of every envelope
//! a fixed-seed deployment produces, plus the publisher's op count and
//! key-cache statistics. The op count feeds the Figure 9–10 cost model
//! through `psguard_bench::perf`. A mismatch means the encrypt path
//! changed its keys, its iv/nonce stream or its derivation cost.

use psguard::{PsGuard, PsGuardConfig};
use psguard_crypto::{Digest, Sha1};
use psguard_keys::{CacheStats, Schema};
use psguard_model::{Event, IntRange};
use psguard_siena::Wire;

const TOPICS: [&str; 3] = ["quotes", "trades", "news"];
const SYMBOLS: [&str; 5] = ["GOOG", "GOOGL", "IBM", "INTC", "AAPL"];
const EVENTS: usize = 60;

// Captured from the two-path publisher (serial `publish` next to the
// batch stack) that this encrypt path replaced.

/// SHA-1 over the concatenated wire encodings of all envelopes.
const DIGEST: &str = "3bd3b4cb4718f2a011eb3eae709da7781753b2f8";
const OPS_TOTAL: u64 = 769;
const CACHE: CacheStats = CacheStats {
    hits: 0,
    misses: 6,
    partial_hits: 54,
    hash_ops_saved: 251,
    evictions: 0,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Event `i`: topics and epochs interleave, prices drift by small steps so
/// the NAKT cache sees locality, and every third event omits the keyword.
fn event(i: usize) -> (Event, u64) {
    let price = ((i * 37) % 200 + (i % 7)) as i64;
    let mut b = Event::builder(TOPICS[i % 3]).attr("price", price);
    if i % 3 != 2 {
        b = b.attr("sym", SYMBOLS[(i / 3) % SYMBOLS.len()]);
    }
    let payload = (0..(i * 7) % 50).map(|j| (i + j) as u8).collect();
    (b.payload(payload).build(), ((i / 2) % 2) as u64)
}

#[test]
fn publish_output_and_cost_are_pinned() {
    let schema = Schema::builder()
        .numeric("price", IntRange::new(0, 1023).expect("valid"), 1)
        .expect("valid nakt")
        .str_prefix("sym", 8)
        .build();
    let ps = PsGuard::new(b"publish-golden", schema, PsGuardConfig::default());
    let mut publisher = ps.publisher("golden-pub");
    for topic in TOPICS {
        for epoch in [0, 1] {
            ps.authorize_publisher(&mut publisher, topic, epoch);
        }
    }

    let mut digest = Sha1::new();
    for i in 0..EVENTS {
        let (e, epoch) = event(i);
        let secure = publisher.publish(&e, epoch).expect("publishable");
        digest.update(&secure.to_bytes());
    }

    assert_eq!(hex(&digest.finalize()), DIGEST);
    assert_eq!(publisher.ops().total(), OPS_TOTAL);
    assert_eq!(publisher.cache_stats(), CACHE);
}
