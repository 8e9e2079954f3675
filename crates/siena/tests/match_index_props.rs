//! Property tests pinning the `MatchIndex` fast path to the linear-scan
//! reference: for any table built from random subscriptions (with churn),
//! `matching_peers` must return exactly what the original O(n) scan
//! returns, in the same order, `MatchIndex` must hand out and recycle
//! entry ids exactly as a LIFO free list does, and `insert`'s covering
//! verdict must agree with the brute-force covering test.

use proptest::prelude::*;
use psguard_model::{AttrValue, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::{EntryId, MatchIndex, Peer, SubscriptionTable};

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (-20i64..60).prop_map(Op::Ge),
        (-20i64..60).prop_map(Op::Le),
        (-20i64..60).prop_map(Op::Gt),
        (-20i64..60).prop_map(Op::Lt),
        (-20i64..60).prop_map(|v| Op::Eq(AttrValue::Int(v))),
        (-20i64..40, 0i64..25)
            .prop_map(|(lo, w)| Op::InRange(IntRange::new(lo, lo + w).expect("lo <= hi"))),
        "[ab]{0,3}".prop_map(Op::StrPrefix),
        "[ab]{0,3}".prop_map(Op::StrSuffix),
        "[ab]{0,3}".prop_map(|s| Op::Eq(AttrValue::Str(s))),
    ]
    .boxed()
}

/// Topics t0..t3 plus the wildcard; attributes drawn from {a, b} so
/// constraints and events collide often enough to exercise every path.
fn filter_strategy() -> BoxedStrategy<Filter> {
    (0u8..5, prop::collection::vec(("[ab]", op_strategy()), 0..4))
        .prop_map(|(topic, constraints)| {
            let mut f = if topic < 4 {
                Filter::for_topic(format!("t{topic}"))
            } else {
                Filter::any()
            };
            for (name, op) in constraints {
                f = f.with(Constraint::new(name, op));
            }
            f
        })
        .boxed()
}

fn value_strategy() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        (-25i64..65).prop_map(AttrValue::Int),
        "[ab]{0,3}".prop_map(AttrValue::Str),
    ]
    .boxed()
}

fn event_strategy() -> BoxedStrategy<Event> {
    (
        0u8..5,
        prop::collection::vec(("[ab]", value_strategy()), 0..3),
    )
        .prop_map(|(topic, attrs)| {
            let mut b = Event::builder(format!("t{topic}"));
            for (name, value) in attrs {
                b = b.attr(name, value);
            }
            b.build()
        })
        .boxed()
}

/// Linear-scan model of `MatchIndex`: live entries in registration
/// (seq) order, and the entry free list as a stack.
#[derive(Default)]
struct Mirror {
    /// `(id, peer, filter)` in seq order; a reinsert gets a fresh seq,
    /// so it is appended.
    live: Vec<(EntryId, Peer, Filter)>,
    /// Freed ids; the next insert reuses the most recently freed one.
    free: Vec<EntryId>,
    /// First id never handed out.
    next_id: EntryId,
}

impl Mirror {
    fn insert(&mut self, peer: Peer, filter: Filter) -> EntryId {
        let id = self.free.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        self.live.push((id, peer, filter));
        id
    }

    fn remove(&mut self, id: EntryId) {
        let pos = self.live.iter().position(|e| e.0 == id).expect("live id");
        self.live.remove(pos);
        self.free.push(id);
    }

    /// Distinct matching peers, deduped by first occurrence in seq order.
    fn query(&self, event: &Event) -> Vec<Peer> {
        let mut peers = Vec::new();
        for (_, peer, filter) in &self.live {
            if filter.matches(event) && !peers.contains(peer) {
                peers.push(*peer);
            }
        }
        peers
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn index_agrees_with_linear_scan(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 0..40),
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let mut table: SubscriptionTable<Filter> = SubscriptionTable::new();
        for (peer, filter) in subs {
            table.insert(Peer::Child(peer), filter);
        }
        for event in &events {
            let fast = table.matching_peers(event);
            let reference = table.matching_peers_linear(event);
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn index_agrees_after_churn(
        subs in prop::collection::vec((0u32..5, filter_strategy()), 1..30),
        removal_mask in any::<u64>(),
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let mut table: SubscriptionTable<Filter> = SubscriptionTable::new();
        let mut inserted: Vec<(Peer, Filter)> = Vec::new();
        for (peer, filter) in subs {
            let peer = Peer::Child(peer);
            table.insert(peer, filter.clone());
            inserted.push((peer, filter));
        }
        for (i, (peer, filter)) in inserted.iter().enumerate() {
            if removal_mask >> (i % 64) & 1 == 1 {
                table.remove(*peer, filter);
            }
        }
        // A full peer disconnect on top of the selective removals.
        table.remove_peer(Peer::Child(0));
        for event in &events {
            let fast = table.matching_peers(event);
            let reference = table.matching_peers_linear(event);
            prop_assert_eq!(fast, reference);
        }
        // Reinsertion after churn still agrees (slab slots are reused).
        for (peer, filter) in inserted {
            table.insert(peer, filter);
        }
        for event in &events {
            let fast = table.matching_peers(event);
            let reference = table.matching_peers_linear(event);
            prop_assert_eq!(fast, reference);
        }
    }

    /// The arena layout against the linear-scan [`Mirror`]: `query`
    /// must return the mirror's peers in exact first-seen registration
    /// order, and every `insert` must return the id the mirror's LIFO
    /// free list predicts. Churn + reinsertion exercises the entry free
    /// list, chunk recycling and boundary-range reuse; starting the
    /// generation counter near `u32::MAX` drives the stamp wraparound
    /// sweep mid-sequence.
    #[test]
    fn arena_index_agrees_with_linear_oracle(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 1..40),
        removal_mask in any::<u64>(),
        near_wraparound in any::<bool>(),
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let mut arena: MatchIndex<Filter> = MatchIndex::new();
        if near_wraparound {
            // Few enough queries remain that the run crosses the wrap.
            arena.set_generation_for_tests(u32::MAX - 2);
        }
        let mut mirror = Mirror::default();
        let mut ids = Vec::new();
        for (peer, filter) in &subs {
            let peer = Peer::Child(*peer);
            let id = arena.insert(peer, filter.clone());
            prop_assert_eq!(id, mirror.insert(peer, filter.clone()), "fresh id");
            ids.push(id);
        }
        let mut removed = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if removal_mask >> (i % 64) & 1 == 1 {
                arena.remove(id);
                mirror.remove(id);
                removed.push(i);
            }
        }
        for event in &events {
            prop_assert_eq!(arena.query(event), mirror.query(event), "after removals");
        }
        // Reinsert the removed entries: each must land in the most
        // recently freed slot and match after every earlier entry.
        for i in removed {
            let (peer, filter) = (Peer::Child(subs[i].0), subs[i].1.clone());
            let id = arena.insert(peer, filter.clone());
            prop_assert_eq!(id, mirror.insert(peer, filter), "recycled id");
        }
        for event in &events {
            prop_assert_eq!(arena.query(event), mirror.query(event), "after reinsertion");
        }
    }

    #[test]
    fn insert_covering_verdict_matches_brute_force(
        subs in prop::collection::vec((0u32..4, filter_strategy()), 0..25),
    ) {
        let mut table: SubscriptionTable<Filter> = SubscriptionTable::new();
        let mut mirror: Vec<(Peer, Filter)> = Vec::new();
        for (peer, filter) in subs {
            let peer = Peer::Child(peer);
            let duplicate = mirror.iter().any(|(p, f)| *p == peer && *f == filter);
            let covered = mirror.iter().any(|(_, f)| f.covers(&filter));
            let forwarded = table.insert(peer, filter.clone());
            if duplicate {
                prop_assert!(!forwarded, "duplicate must never forward");
            } else {
                prop_assert_eq!(forwarded, !covered);
                mirror.push((peer, filter));
            }
            prop_assert_eq!(table.len(), mirror.len());
        }
    }
}
