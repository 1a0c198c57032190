//! Opaque resumable-pagination cursor tokens.
//!
//! A truncated **ordered** `/query?stream=1` response carries an
//! `X-Trial-Cursor` trailer: an opaque token encoding everything the server
//! needs to resume the stream exactly after the last row it sent —
//! `(store, epoch, order, last permutation key)`. Resuming is **not** a
//! replay: the engine seeks the permutation index to the key's successor
//! (`RangeCursor::seek`, an `O(log n)` partition point), so page `n+1` costs
//! the same as page 1 regardless of how deep into the result it starts.
//!
//! The wire form is URL-safe base64 (no padding) over a versioned plain-text
//! payload with an FNV-1a checksum:
//!
//! ```text
//! v2|{epoch}|{order}|{s},{p},{o}|{store}|{fnv1a64:016x}
//! ```
//!
//! The store name is the last payload field, so it may contain any
//! character, `|` included: the checksum is split off the end and the
//! fixed fields off the front.
//!
//! Tokens are *opaque but honest*: nothing in them is secret (the fields are
//! the client's own request parameters plus a row key it already received),
//! so the checksum guards against corruption and accidental cross-server
//! reuse, not against tampering. Validation is strict and structured:
//!
//! * undecodable / checksum-mismatched / wrong-version tokens (`v1`
//!   included) → `400 bad_cursor`;
//! * a token minted against an older epoch of the store → `410 stale_cursor`
//!   (the store was reloaded; row keys from the old snapshot are
//!   meaningless in the new one);
//! * a token naming a different store than the request resolves to → `400
//!   bad_cursor`.

use std::fmt::Write as _;
use trial_core::{ObjectId, Permutation};

/// The decoded contents of a pagination cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CursorToken {
    /// Registry name of the store the stream ran against.
    pub store: String,
    /// Epoch of the snapshot the row keys belong to.
    pub epoch: u64,
    /// The permutation whose key order the stream follows.
    pub order: Permutation,
    /// The permutation key of the **last row already delivered**; the
    /// resumed stream starts strictly after it.
    pub last: [ObjectId; 3],
}

/// Why a token failed to decode. All variants map to `400 bad_cursor` —
/// stale-epoch detection happens *after* decoding, against the live store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedToken;

const VERSION: &str = "v2";

/// URL-safe base64 alphabet (RFC 4648 §5), emitted without padding.
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

fn b64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = u32::from(b[0]) << 16 | u32::from(b[1]) << 8 | u32::from(b[2]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(B64[(n >> 6) as usize & 63] as char);
        }
        if chunk.len() > 2 {
            out.push(B64[n as usize & 63] as char);
        }
    }
    out
}

fn b64_value(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some(u32::from(c - b'A')),
        b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
        b'-' => Some(62),
        b'_' => Some(63),
        _ => None,
    }
}

fn b64_decode(text: &str) -> Option<Vec<u8>> {
    let bytes = text.as_bytes();
    if bytes.len() % 4 == 1 {
        return None; // no valid unpadded base64 length is ≡ 1 (mod 4)
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 2);
    for chunk in bytes.chunks(4) {
        let mut n: u32 = 0;
        for &c in chunk {
            n = n << 6 | b64_value(c)?;
        }
        // Left-align a short final group so the high bytes are the data.
        n <<= 6 * (4 - chunk.len());
        out.push((n >> 16) as u8);
        if chunk.len() > 2 {
            out.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(n as u8);
        }
    }
    Some(out)
}

/// 64-bit FNV-1a over `data` — cheap corruption detection, not a MAC.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl CursorToken {
    /// Renders the opaque wire form.
    pub fn encode(&self) -> String {
        let mut payload = format!(
            "{VERSION}|{}|{}|{},{},{}|{}",
            self.epoch,
            self.order.name(),
            self.last[0].0,
            self.last[1].0,
            self.last[2].0,
            self.store,
        );
        let checksum = fnv1a64(payload.as_bytes());
        write!(payload, "|{checksum:016x}").expect("writing to String cannot fail");
        b64_encode(payload.as_bytes())
    }

    /// Decodes and checksum-verifies a wire token. Epoch/store validation
    /// against the live registry is the caller's job.
    pub fn decode(text: &str) -> Result<CursorToken, MalformedToken> {
        let raw = b64_decode(text).ok_or(MalformedToken)?;
        let payload = String::from_utf8(raw).map_err(|_| MalformedToken)?;
        let (body, checksum_hex) = payload.rsplit_once('|').ok_or(MalformedToken)?;
        let checksum = u64::from_str_radix(checksum_hex, 16).map_err(|_| MalformedToken)?;
        if checksum_hex.len() != 16 || fnv1a64(body.as_bytes()) != checksum {
            return Err(MalformedToken);
        }
        // The store is the last field and may itself contain `|`.
        let mut parts = body.splitn(5, '|');
        let version = parts.next().ok_or(MalformedToken)?;
        if version != VERSION {
            return Err(MalformedToken);
        }
        let epoch = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or(MalformedToken)?;
        let order = parts
            .next()
            .and_then(Permutation::parse)
            .ok_or(MalformedToken)?;
        let key_text = parts.next().ok_or(MalformedToken)?;
        let store = parts.next().ok_or(MalformedToken)?.to_owned();
        let mut components = key_text.split(',');
        let mut last = [ObjectId(0); 3];
        for slot in &mut last {
            *slot = components
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .map(ObjectId)
                .ok_or(MalformedToken)?;
        }
        if components.next().is_some() {
            return Err(MalformedToken);
        }
        Ok(CursorToken {
            store,
            epoch,
            order,
            last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn token() -> CursorToken {
        CursorToken {
            store: "transport".into(),
            epoch: 3,
            order: Permutation::Pos,
            last: [ObjectId(7), ObjectId(0), ObjectId(u32::MAX)],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let t = token();
        let wire = t.encode();
        // Opaque: URL-safe characters only, no raw payload text visible.
        assert!(wire
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
        assert!(!wire.contains("transport"));
        assert_eq!(CursorToken::decode(&wire).unwrap(), t);
    }

    #[test]
    fn round_trips_all_orders_and_awkward_store_names() {
        for order in Permutation::ALL {
            for store in [
                "s",
                "",
                "a b/c?d=e",
                "store-with-|pipe",
                "a|b",
                "|",
                "x|1|spo|",
            ] {
                let t = CursorToken {
                    store: store.into(),
                    epoch: u64::MAX,
                    order,
                    last: [ObjectId(0), ObjectId(1), ObjectId(2)],
                };
                assert_eq!(CursorToken::decode(&t.encode()), Ok(t), "{store:?}");
            }
        }
    }

    #[test]
    fn rejects_corruption_and_garbage() {
        let wire = token().encode();
        // Flip one character: checksum mismatch or framing damage.
        let mut corrupted = wire.clone().into_bytes();
        corrupted[3] = if corrupted[3] == b'A' { b'B' } else { b'A' };
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(CursorToken::decode(&corrupted).is_err());
        // Truncation.
        assert!(CursorToken::decode(&wire[..wire.len() / 2]).is_err());
        // Outright garbage, invalid alphabet, empty.
        assert!(CursorToken::decode("not!base64*").is_err());
        assert!(CursorToken::decode("").is_err());
        assert!(CursorToken::decode("AAAA").is_err());
        // Well-formed payloads with the wrong version string, including
        // the v1 layout (store first).
        for payload in ["v9|1|spo|1,2,3|s", "v1|s|1|spo|1,2,3"] {
            let with_sum = format!("{payload}|{:016x}", super::fnv1a64(payload.as_bytes()));
            assert!(CursorToken::decode(&super::b64_encode(with_sum.as_bytes())).is_err());
        }
    }

    #[test]
    fn base64_round_trips_arbitrary_bytes() {
        for len in 0..40 {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(b64_decode(&b64_encode(&data)).unwrap(), data);
        }
        assert!(b64_decode("AAAAA").is_none()); // length ≡ 1 (mod 4)
    }

    /// Characters dense in the payload's own syntax (`|`, `,`, digits,
    /// version and order letters) plus a few that need care elsewhere.
    fn awkward_chars() -> impl Strategy<Value = Vec<char>> {
        prop::collection::vec(
            prop::sample::select(vec![
                '|', ',', '0', '1', '2', '9', 'v', 's', 'p', 'o', '-', '_', ' ', 'A', 'é', '\u{0}',
                '\n', '🦀',
            ]),
            0..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_tokens_round_trip_exactly(
            store in awkward_chars(),
            epoch in 0u64..u64::MAX,
            order in 0usize..3,
            (s, p, o) in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        ) {
            let t = CursorToken {
                store: store.into_iter().collect(),
                epoch,
                order: Permutation::ALL[order],
                last: [ObjectId(s), ObjectId(p), ObjectId(o)],
            };
            prop_assert_eq!(CursorToken::decode(&t.encode()), Ok(t));
        }

        /// Arbitrary text is rejected or decoded, never a panic — also once
        /// it is wrapped with a valid checksum and reaches the field parser.
        #[test]
        fn arbitrary_text_never_panics_decode(chars in awkward_chars()) {
            let text: String = chars.into_iter().collect();
            let _ = CursorToken::decode(&text);
            for payload in [text.clone(), format!("v2|{text}")] {
                let with_sum = format!("{payload}|{:016x}", fnv1a64(payload.as_bytes()));
                let _ = CursorToken::decode(&b64_encode(with_sum.as_bytes()));
            }
        }
    }
}
