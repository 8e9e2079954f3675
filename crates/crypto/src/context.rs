//! Reusable keyed crypto contexts that amortize per-key setup across events.
//!
//! The one-shot APIs (`prf`, `hmac_sha1`) redo key setup on every call:
//! HMAC hashes the padded key block twice (two compression-function calls)
//! before touching the message. On the broker's hot path the *same*
//! key is used for thousands of events — a subscription token probes every
//! event in a batch, a publisher seeds every event's iv/nonce stream under
//! the same topic key. The contexts here precompute the keyed state once:
//!
//! * [`HmacContext`] — keyed inner/outer digest states per RFC 2104,
//!   cloned per MAC instead of re-deriving the pads;
//! * [`PrfContext`] — the same idea specialized to the tokenization PRF
//!   `F` (HMAC-SHA1), with an allocation-free verify path: two SHA-1
//!   compressions per probe instead of four, and zero heap traffic.
//!
//! Both hold key-equivalent material (pad-absorbed digest states are as
//! good as the key for forging MACs), so they wipe themselves on drop,
//! print redacted `Debug` forms, and are on the psguard-xtask
//! secret-hygiene taint list.

use crate::ct::ct_eq;
use crate::digest::Digest;
use crate::hmac::{keyed_pads, Hmac};
use crate::prf::Token;
use crate::sha1::Sha1;

/// A reusable HMAC key context: the inner/outer digest states with the
/// padded key block already absorbed.
///
/// Creating the context costs the same as one [`Hmac::new`]; every
/// subsequent [`mac`](Self::mac) skips the key-block preparation and the
/// two pad-absorbing compression calls.
///
/// # Example
///
/// ```
/// use psguard_crypto::{hmac_sha1, HmacContext, Sha1};
///
/// let ctx = HmacContext::<Sha1>::new(b"key");
/// for msg in [b"first".as_slice(), b"second"] {
///     assert_eq!(ctx.mac(msg), hmac_sha1(b"key", msg).to_vec());
/// }
/// ```
#[derive(Clone)]
pub struct HmacContext<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> std::fmt::Debug for HmacContext<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacContext").finish_non_exhaustive()
    }
}

impl<D: Digest> HmacContext<D> {
    /// Precomputes the keyed pad states for `key` (RFC 2104 key prep).
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = keyed_pads::<D>(key);
        Self { inner, outer }
    }

    /// One-shot MAC over `message`, reusing the precomputed pad states.
    pub fn mac(&self, message: &[u8]) -> Vec<u8> {
        let mut mac = self.streaming();
        mac.update(message);
        mac.finalize()
    }

    /// A streaming [`Hmac`] resumed from the precomputed pad states.
    pub fn streaming(&self) -> Hmac<D> {
        Hmac::from_parts(self.inner.clone(), self.outer.clone())
    }
}

impl<D: Digest> Drop for HmacContext<D> {
    fn drop(&mut self) {
        // The pad-absorbed states are key-equivalent: wipe them.
        self.inner.wipe();
        self.outer.wipe();
    }
}

/// A reusable context for the tokenization PRF `F` (HMAC-SHA1), keyed by a
/// subscription token or PRF key.
///
/// This is the broker's matching hot path: with `n` subscriptions sharing a
/// token, every event probe recomputes `F_tok(r)`. The context holds the
/// pad-absorbed SHA-1 states, cutting each probe from four compression
/// calls (two pads + nonce block + outer block) to two, and the
/// [`Sha1::finalize_fixed`] path keeps the probe entirely allocation-free.
///
/// Output is byte-identical to the one-shot [`crate::prf`] /
/// [`crate::prf_verify`] for every input (asserted against the RFC 2202
/// vectors in this module's tests).
///
/// # Example
///
/// ```
/// use psguard_crypto::{prf, PrfContext};
///
/// let token = prf(b"rk(KDC)", b"cancerTrail");
/// let ctx = PrfContext::for_token(&token);
/// let tag = prf(token.as_bytes(), b"nonce");
/// assert!(ctx.verify(b"nonce", &tag));
/// assert_eq!(ctx.prf(b"nonce"), tag);
/// ```
#[derive(Clone)]
pub struct PrfContext {
    inner: Sha1,
    outer: Sha1,
}

impl std::fmt::Debug for PrfContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrfContext").finish_non_exhaustive()
    }
}

impl PrfContext {
    /// Precomputes the keyed pad states for a raw PRF key.
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = keyed_pads::<Sha1>(key);
        Self { inner, outer }
    }

    /// Context keyed by a subscription token `T(w)`, for probing event
    /// tags `⟨r, F_{T(w)}(r)⟩`.
    pub fn for_token(token: &Token) -> Self {
        Self::new(token.as_bytes())
    }

    /// Computes `F_key(data)`, byte-identical to [`crate::prf`].
    pub fn prf(&self, data: &[u8]) -> Token {
        let mut inner = self.inner.clone();
        inner.update(data);
        let inner_digest = inner.finalize_fixed();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        Token::from_raw(outer.finalize_fixed())
    }

    /// Constant-time probe `F_key(r) == matched`, byte-identical to
    /// [`crate::prf_verify`] with this context's key.
    pub fn verify(&self, r: &[u8], matched: &Token) -> bool {
        ct_eq(self.prf(r).as_bytes(), matched.as_bytes())
    }
}

impl Drop for PrfContext {
    fn drop(&mut self) {
        // The pad-absorbed states are key-equivalent: wipe them.
        self.inner.wipe();
        self.outer.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::{hmac_md5, hmac_sha1};
    use crate::prf::{prf, prf_verify};
    use crate::Md5;

    /// RFC 2202 HMAC-SHA1 cases as (key, data) pairs. Expected digests are
    /// covered by the hmac module's tests; here they anchor the
    /// context-equality satellite: `PrfContext` must be byte-identical to
    /// the one-shot `prf` on each of them.
    fn rfc2202_sha1_cases() -> Vec<(Vec<u8>, Vec<u8>)> {
        vec![
            (vec![0x0b; 20], b"Hi There".to_vec()),
            (b"Jefe".to_vec(), b"what do ya want for nothing?".to_vec()),
            (vec![0xaa; 20], vec![0xdd; 50]),
            (
                (1..=25).collect(),
                vec![0xcd; 50], // case 4: 25-byte key
            ),
            (vec![0x0c; 20], b"Test With Truncation".to_vec()),
            (
                vec![0xaa; 80], // case 6: key longer than the block size
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
                    .to_vec(),
            ),
        ]
    }

    #[test]
    fn prf_context_matches_oneshot_on_rfc2202_vectors() {
        for (i, (key, data)) in rfc2202_sha1_cases().into_iter().enumerate() {
            let ctx = PrfContext::new(&key);
            assert_eq!(ctx.prf(&data), prf(&key, &data), "case {}", i + 1);
        }
    }

    #[test]
    fn prf_context_verify_matches_oneshot_verify() {
        let token = prf(b"rk(KDC)", b"stockQuote");
        let ctx = PrfContext::for_token(&token);
        for r in [b"r1".as_slice(), b"r2", &[0u8; 16], &[0xff; 64]] {
            let tag = prf(token.as_bytes(), r);
            assert_eq!(ctx.verify(r, &tag), prf_verify(&token, r, &tag));
            assert!(ctx.verify(r, &tag));
            let wrong = prf(b"other key", r);
            assert_eq!(ctx.verify(r, &wrong), prf_verify(&token, r, &wrong));
            assert!(!ctx.verify(r, &wrong));
        }
    }

    #[test]
    fn prf_context_reuse_across_many_inputs() {
        let ctx = PrfContext::new(b"key");
        for i in 0..200u32 {
            let data = i.to_be_bytes();
            assert_eq!(ctx.prf(&data), prf(b"key", &data), "i={i}");
        }
    }

    #[test]
    fn hmac_context_matches_oneshot_sha1_and_md5() {
        for (key, data) in rfc2202_sha1_cases() {
            let ctx = HmacContext::<Sha1>::new(&key);
            assert_eq!(ctx.mac(&data), hmac_sha1(&key, &data).to_vec());
            let ctx = HmacContext::<Md5>::new(&key);
            assert_eq!(ctx.mac(&data), hmac_md5(&key, &data).to_vec());
        }
    }

    #[test]
    fn hmac_context_streaming_matches_oneshot() {
        let ctx = HmacContext::<Sha1>::new(b"key");
        let mut mac = ctx.streaming();
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha1(b"key", b"hello world").to_vec());
    }

    #[test]
    fn contexts_debug_is_redacted() {
        let p = PrfContext::new(b"secret key material");
        assert_eq!(format!("{p:?}"), "PrfContext { .. }");
        let h = HmacContext::<Sha1>::new(b"secret key material");
        assert_eq!(format!("{h:?}"), "HmacContext { .. }");
    }

    #[test]
    fn wipe_resets_digest_to_initial_state() {
        use crate::digest::Digest;
        let mut s = <Sha1 as Digest>::new();
        s.update(b"key-equivalent material");
        s.wipe();
        assert_eq!(s.finalize(), <Sha1 as Digest>::new().finalize());
    }
}
