//! The publisher: derives event keys from topic keys and encrypts
//! payloads before events enter the (untrusted) broker overlay.

use std::collections::HashMap;

use psguard_crypto::DeriveKey;
use psguard_crypto::{cbc_encrypt, Aes128, PrfContext, Token};
use psguard_keys::{
    combine_master, event_key_addresses, mac_key, part_from_topic_key, AuthKey, EpochId,
    EventKeyAddress, KeyCache, KeyScope, Ktid, OpCounter, Schema,
};
use psguard_model::Event;
use psguard_routing::{RoutableTag, SecureEvent};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::PublishError;

/// KH label separating the per-topic IV-derivation key from every other
/// use of the topic key.
const IV_SEED_LABEL: &[u8] = b"psguard-iv-seed";

/// A per-(topic, epoch) publishing credential issued by the KDC: the
/// topic key `K(w)` (or `K_P(w)`) and the routing token `T(w)`.
#[derive(Debug, Clone)]
pub struct PublisherCredential {
    /// The topic `w`.
    pub topic: String,
    /// The epoch the key is valid for.
    pub epoch: u64,
    /// The topic key rooting every per-attribute hierarchy.
    pub topic_key: DeriveKey,
    /// The routing token used to tag events.
    pub token: Token,
}

/// One installed credential, with the IV-derivation context built once at
/// install time.
#[derive(Debug)]
struct Installed {
    topic_key: DeriveKey,
    token: Token,
    /// A PRF keyed under `KH(K(w), "psguard-iv-seed")`. Brokers never hold
    /// `K(w)`, so the iv/nonce stream this context seeds is unpredictable
    /// to them.
    iv_ctx: PrfContext,
}

/// One event's private iv/nonce RNG, seeded by the topic's secret IV
/// context over ⟨publisher id ‖ stream ‖ index ‖ half⟩.
///
/// The PRF is keyed under `K(w)`-derived material, so brokers (who see
/// only tokens and ciphertext) cannot predict any iv or nonce. The
/// publisher id and index sit in separate 8-byte fields — injective,
/// unlike a 64-bit fold, so no two events of one publisher can collide
/// onto the same seed. The 8-byte stream field is always zero; it keeps
/// the 25-byte input, and so every iv and nonce, stable. The last byte
/// selects which of two PRF calls stretches the output to the full
/// 32-byte `StdRng` seed.
fn event_rng(iv_ctx: &PrfContext, base: u64, idx: u64) -> StdRng {
    let mut input = [0u8; 25];
    input[..8].copy_from_slice(&base.to_be_bytes());
    input[16..24].copy_from_slice(&idx.to_be_bytes());
    let mut seed = [0u8; 32];
    seed[..20].copy_from_slice(iv_ctx.prf(&input).as_bytes());
    input[24] = 1;
    seed[20..].copy_from_slice(&iv_ctx.prf(&input).as_bytes()[..12]);
    StdRng::from_seed(seed)
}

/// A publishing principal.
///
/// Obtain via [`crate::PsGuard::publisher`] and authorize per topic with
/// [`crate::PsGuard::authorize_publisher`].
#[derive(Debug)]
pub struct Publisher {
    name: String,
    schema: Schema,
    /// Installed credentials by topic, then epoch, so a publish looks its
    /// credential up by `&str` without allocating.
    credentials: HashMap<String, HashMap<u64, Installed>>,
    seed_base: u64,
    ops: OpCounter,
    cache: KeyCache,
    /// Publishes so far; the index in every event's RNG seed.
    seq: u64,
}

impl Publisher {
    pub(crate) fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        // The name hash only separates publishers that share a topic
        // credential (and keeps tests reproducible). Unpredictability of
        // ivs and nonces toward brokers comes from `event_rng`, whose PRF
        // is keyed under secret topic-key material.
        let seed = psguard_crypto::h(name.as_bytes());
        let mut seed8 = [0u8; 8];
        seed8.copy_from_slice(&seed[..8]);
        let seed_base = u64::from_be_bytes(seed8);
        Publisher {
            name,
            schema,
            credentials: HashMap::new(),
            seed_base,
            ops: OpCounter::new(),
            // Publisher-side derived-key cache (§3.2.3 applies to
            // "the KDC, the publishers and the subscribers").
            cache: KeyCache::new(64 * 1024),
            seq: 0,
        }
    }

    /// Publisher-side key-cache statistics.
    pub fn cache_stats(&self) -> psguard_keys::CacheStats {
        self.cache.stats()
    }

    /// Derives one per-attribute key part, routing numeric parts through
    /// the publisher's key cache (consecutive events with nearby values
    /// share long NAKT prefixes).
    fn derive_part(
        schema: &Schema,
        cache: &mut KeyCache,
        ops: &mut OpCounter,
        topic_key: &DeriveKey,
        epoch: u64,
        addr: &EventKeyAddress,
    ) -> DeriveKey {
        if let EventKeyAddress::Numeric { attr, ktid } = addr {
            ops.add_kh(1);
            let auth = AuthKey {
                scope: KeyScope::Numeric {
                    attr: attr.clone(),
                    ktid: Ktid::root(),
                },
                key: topic_key.kh(attr.as_bytes()),
                epoch: EpochId(epoch),
            };
            if let Some(k) = cache.derive_numeric_cached(&auth, ktid, ops) {
                return k;
            }
        }
        part_from_topic_key(topic_key, schema, addr, ops)
    }

    /// The publisher's principal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a credential (called by the service facade).
    pub fn install_credential(&mut self, credential: PublisherCredential) {
        let PublisherCredential {
            topic,
            epoch,
            topic_key,
            token,
        } = credential;
        let iv_ctx = PrfContext::new(topic_key.kh(IV_SEED_LABEL).as_bytes());
        self.credentials.entry(topic).or_default().insert(
            epoch,
            Installed {
                topic_key,
                token,
                iv_ctx,
            },
        );
    }

    /// Cumulative key-derivation cost since creation.
    pub fn ops(&self) -> OpCounter {
        self.ops
    }

    /// Encrypts and tags an event for dissemination during `epoch`.
    ///
    /// The returned [`SecureEvent`] carries the routable attributes in the
    /// clear (brokers match on them), the topic only as a pseudonymous
    /// tag, and the payload as AES-128-CBC ciphertext under `K(e)`.
    ///
    /// # Errors
    ///
    /// * [`PublishError::UnknownTopic`] without a credential for
    ///   `(topic, epoch)`;
    /// * [`PublishError::EventKey`] when the event violates the schema.
    pub fn publish(&mut self, event: &Event, epoch: u64) -> Result<SecureEvent, PublishError> {
        let Publisher {
            schema,
            credentials,
            seed_base,
            ops,
            cache,
            seq,
            ..
        } = self;
        let credential = credentials
            .get(event.topic())
            .and_then(|by_epoch| by_epoch.get(&epoch))
            .ok_or_else(|| PublishError::UnknownTopic {
                topic: event.topic().to_owned(),
            })?;

        // K(e): fold the per-attribute event keys (numeric parts go
        // through the publisher's key cache).
        let addrs = event_key_addresses(schema, event)?;
        let parts: Vec<DeriveKey> = addrs
            .iter()
            .map(|a| Self::derive_part(schema, cache, ops, &credential.topic_key, epoch, a))
            .collect();
        let master = combine_master(&parts, ops);
        let key = master.content_key();

        // iv and nonce come from a per-event RNG keyed under the topic
        // key — deterministic for a seeded KDC, unpredictable to brokers.
        let mut rng = event_rng(&credential.iv_ctx, *seed_base, *seq);
        *seq += 1;

        // Encrypt the payload, then MAC ⟨iv ‖ ciphertext⟩ so receivers can
        // verify key agreement and integrity before decrypting.
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        let ciphertext = cbc_encrypt(&Aes128::new(key.as_bytes()), &iv, event.payload());
        let mk = mac_key(&master, ops);
        let mut mac_input = iv.to_vec();
        mac_input.extend_from_slice(&ciphertext);
        ops.add_kh(1);
        let mac = psguard_crypto::kh(mk.as_bytes(), &mac_input);

        // Strip the plaintext topic; brokers see only the tag.
        let mut routed = Event::builder("")
            .id(event.id())
            .publisher(event.publisher());
        for (name, value) in event.attrs() {
            routed = routed.attr(name.clone(), value.clone());
        }
        let routed = routed.payload(ciphertext).build();

        Ok(SecureEvent {
            tag: RoutableTag::new(&credential.token, &mut rng),
            event: routed,
            iv,
            epoch,
            mac,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_keys::{EpochId, Kdc, TopicScope};
    use psguard_model::IntRange;

    fn publisher_with_credential() -> (Publisher, Kdc) {
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let kdc = Kdc::from_seed(b"seed");
        let mut p = Publisher::new("P", schema);
        let mut ops = OpCounter::new();
        p.install_credential(PublisherCredential {
            topic: "w".into(),
            epoch: 0,
            topic_key: kdc.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops),
            token: kdc.routing_token("w"),
        });
        (p, kdc)
    }

    #[test]
    fn publish_encrypts_and_strips_topic() {
        let (mut p, kdc) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 30i64)
            .payload(b"top secret".to_vec())
            .build();
        let secure = p.publish(&e, 0).unwrap();
        assert_eq!(secure.event.topic(), "");
        assert_ne!(secure.event.payload(), b"top secret");
        assert!(secure.event.payload().len() >= 16);
        // Tag matches the topic token.
        assert!(secure.tag.matches(&kdc.routing_token("w")));
        // Routable attribute remains visible for in-network matching.
        assert_eq!(secure.event.attr("age").and_then(|v| v.as_int()), Some(30));
    }

    #[test]
    fn missing_credential_is_an_error() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("other").payload(vec![1]).build();
        assert!(matches!(
            p.publish(&e, 0),
            Err(PublishError::UnknownTopic { .. })
        ));
        // Also wrong epoch for a known topic.
        let e = Event::builder("w").payload(vec![1]).build();
        assert!(matches!(
            p.publish(&e, 7),
            Err(PublishError::UnknownTopic { .. })
        ));
    }

    #[test]
    fn schema_violation_is_an_error() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", "not numeric")
            .payload(vec![1])
            .build();
        assert!(matches!(p.publish(&e, 0), Err(PublishError::EventKey(_))));
    }

    #[test]
    fn distinct_events_get_distinct_ivs_and_nonces() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 1i64)
            .payload(vec![7])
            .build();
        let a = p.publish(&e, 0).unwrap();
        let b = p.publish(&e, 0).unwrap();
        assert_ne!(a.iv, b.iv);
        assert_ne!(a.tag.nonce, b.tag.nonce);
        assert_ne!(a.tag.tag, b.tag.tag);
    }

    #[test]
    fn publisher_cache_kicks_in_on_locality() {
        let (mut p, _) = publisher_with_credential();
        for v in [100i64, 101, 100, 102, 101] {
            let e = Event::builder("w").attr("age", v).payload(vec![1]).build();
            p.publish(&e, 0).unwrap();
        }
        let stats = p.cache_stats();
        assert!(stats.hits + stats.partial_hits > 0, "{stats:?}");
        assert!(stats.hash_ops_saved > 0);
    }

    #[test]
    fn cached_and_uncached_publishes_agree() {
        // The same event published twice (cache cold, then warm) must
        // produce ciphertexts that decrypt under the same grant.
        use crate::{PsGuard, PsGuardConfig};
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let ps = PsGuard::new(b"seed2", schema, PsGuardConfig::default());
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &psguard_model::Filter::for_topic("w"), 0)
            .unwrap();
        let e = Event::builder("w")
            .attr("age", 77i64)
            .payload(b"x".to_vec())
            .build();
        let first = publisher.publish(&e, 0).unwrap();
        let second = publisher.publish(&e, 0).unwrap();
        assert_eq!(sub.decrypt(&first).unwrap().payload(), b"x");
        assert_eq!(sub.decrypt(&second).unwrap().payload(), b"x");
    }

    #[test]
    fn ops_accumulate() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 1i64)
            .payload(vec![7])
            .build();
        p.publish(&e, 0).unwrap();
        assert!(p.ops().total() > 0);
    }

    #[test]
    fn publishers_with_distinct_names_draw_distinct_ivs() {
        let events: Vec<Event> = (0..4)
            .map(|i| {
                Event::builder("w")
                    .attr("age", i64::from(i))
                    .payload(vec![i; 48])
                    .build()
            })
            .collect();
        let mut outs = Vec::new();
        for name in ["P1", "P2"] {
            let schema = Schema::builder()
                .numeric("age", IntRange::new(0, 255).unwrap(), 1)
                .unwrap()
                .build();
            let kdc = Kdc::from_seed(b"seed");
            let mut p = Publisher::new(name, schema);
            let mut ops = OpCounter::new();
            p.install_credential(PublisherCredential {
                topic: "w".into(),
                epoch: 0,
                topic_key: kdc.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops),
                token: kdc.routing_token("w"),
            });
            let out: Vec<SecureEvent> = events.iter().map(|e| p.publish(e, 0).unwrap()).collect();
            outs.push(out);
        }
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            assert_ne!(a.iv, b.iv);
            assert_ne!(a.tag.nonce, b.tag.nonce);
        }
    }
}
