//! Property-based tests for the serverless substrate.

use proptest::prelude::*;

use aws_stack::{AttrValue, Item, KvStore, ObjectBody, ObjectStore, ObjectStoreError};
use cloud_compute::BillingLedger;
use cloud_market::Region;
use sim_kernel::SimTime;

proptest! {
    /// KV put/get round-trips arbitrary numeric and string attributes.
    #[test]
    fn kv_roundtrips_items(
        keys in prop::collection::vec("[a-z0-9/]{1,16}", 1..20),
        numbers in prop::collection::vec(-1e12f64..1e12, 1..20),
    ) {
        let mut db = KvStore::new();
        let mut ledger = BillingLedger::new();
        db.create_table("t").unwrap();
        for (k, n) in keys.iter().zip(numbers.iter()) {
            let mut item = Item::new();
            item.insert("n", AttrValue::N(*n));
            item.insert("k", AttrValue::S(k.clone()));
            db.put_item("t", k, item, SimTime::ZERO, &mut ledger).unwrap();
        }
        for (k, n) in keys.iter().zip(numbers.iter()) {
            // Later writes to the same key overwrite; find the last value
            // written for this key.
            let expected = keys
                .iter()
                .zip(numbers.iter())
                .rfind(|(kk, _)| *kk == k)
                .map(|(_, v)| *v)
                .unwrap_or(*n);
            let got = db.get_item("t", k, SimTime::ZERO, &mut ledger).unwrap().unwrap();
            prop_assert_eq!(got["n"].as_number(), Some(expected));
        }
        prop_assert!(ledger.total().amount() > 0.0);
    }

    /// Object-store same-region put/get round-trips text payloads with zero
    /// transfer cost; cross-region gets always cost something. The text
    /// draws control characters and 2- to 4-byte characters, which the
    /// vendored proptest's `.` never yields.
    #[test]
    fn object_store_costs_track_geography(
        text in "[\u{0}-\u{1f} -~é€😀]{0,200}",
        to_region_idx in 0usize..12,
    ) {
        let mut s3 = ObjectStore::new();
        let mut ledger = BillingLedger::new();
        s3.create_bucket("b", Region::UsEast1).unwrap();
        s3.put_object("b", "k", ObjectBody::from_text(text.clone()), Region::UsEast1, SimTime::ZERO, &mut ledger).unwrap();
        let to = Region::ALL[to_region_idx];
        let (obj, outcome) = s3.get_object("b", "k", to, SimTime::ZERO, &mut ledger).unwrap();
        prop_assert_eq!(obj.as_text(), Some(text.as_str()));
        if to == Region::UsEast1 || text.is_empty() {
            prop_assert_eq!(outcome.cost.amount(), 0.0);
        }
        prop_assert!(outcome.completes_at >= SimTime::ZERO);
    }

    /// Billing a put of n bytes without storing it leaves the same ledger
    /// and returns the same outcome as storing an n-byte inline body, and
    /// leaves nothing to read back.
    #[test]
    fn a_billed_put_matches_a_stored_one(
        len in 0usize..200_000,
        from_idx in 0usize..12,
        at in 0u64..10_000_000,
    ) {
        let from = Region::ALL[from_idx];
        let at = SimTime::from_secs(at);
        let stores = || {
            let mut s3 = ObjectStore::new();
            s3.create_bucket("logs", Region::EuWest1).unwrap();
            (s3, BillingLedger::new())
        };
        let (mut stored, mut stored_ledger) = stores();
        let body = ObjectBody::Inline(vec![b'x'; len].into());
        let put = stored.put_object("logs", "k", body, from, at, &mut stored_ledger).unwrap();
        let (mut billed, mut billed_ledger) = stores();
        let bill = billed
            .bill_put("logs", ObjectBody::bytes_to_gib(len), from, at, &mut billed_ledger)
            .unwrap();
        prop_assert_eq!(bill, put);
        prop_assert_eq!(&billed_ledger, &stored_ledger);
        let read = billed.get_object("logs", "k", from, at, &mut billed_ledger);
        prop_assert!(matches!(read, Err(ObjectStoreError::NoSuchKey { .. })), "{:?}", read);
    }

    /// Concurrent lease claims: for any interleaving of claimants over a
    /// small key space, the conditional write admits exactly one winner
    /// per lease key — the first claimant in arrival order — and the
    /// stored lease records that winner.
    #[test]
    fn conditional_claim_admits_exactly_one_winner_per_key(
        claims in prop::collection::vec((0usize..4, 0usize..6), 1..40),
    ) {
        let mut kv = KvStore::new();
        let mut ledger = BillingLedger::new();
        kv.create_table("leases").unwrap();
        let mut winners: Vec<Option<usize>> = vec![None; 4];
        let mut successes = [0u32; 4];
        for (key_idx, owner) in &claims {
            let key = format!("shard-{key_idx}");
            let mut item = Item::new();
            item.insert("owner", AttrValue::S(format!("claimant-{owner}")));
            let won = kv
                .conditional_put("leases", &key, item, SimTime::ZERO, &mut ledger, |cur| {
                    cur.is_none()
                })
                .is_ok();
            if won {
                successes[*key_idx] += 1;
                winners[*key_idx].get_or_insert(*owner);
            }
        }
        for key_idx in 0..4 {
            let contested = claims.iter().any(|(k, _)| *k == key_idx);
            prop_assert_eq!(successes[key_idx], u32::from(contested),
                "exactly one winner iff the key was contested");
            let first = claims.iter().find(|(k, _)| *k == key_idx).map(|(_, o)| *o);
            prop_assert_eq!(winners[key_idx], first, "the first claimant wins");
            if contested {
                let key = format!("shard-{key_idx}");
                let item = kv.get_item("leases", &key, SimTime::ZERO, &mut ledger).unwrap().unwrap();
                let expected = format!("claimant-{}", first.unwrap());
                prop_assert_eq!(item["owner"].as_str(), Some(expected.as_str()));
            }
        }
    }

    /// Expiring leases admit exactly one winner per expiry epoch: replaying
    /// timed claims against a reference model, a claim wins iff no
    /// unexpired lease is held at its instant.
    #[test]
    fn conditional_claim_respects_lease_expiry_epochs(
        gaps in prop::collection::vec(0u64..400, 1..30),
    ) {
        const LEASE_SECS: u64 = 600;
        let mut kv = KvStore::new();
        let mut ledger = BillingLedger::new();
        kv.create_table("leases").unwrap();
        let mut now = 0u64;
        let mut model_expiry: Option<u64> = None;
        for (i, gap) in gaps.iter().enumerate() {
            now += gap;
            let at = SimTime::from_secs(now);
            let mut item = Item::new();
            item.insert("owner", AttrValue::S(format!("claimant-{i}")));
            item.insert("expires", AttrValue::N((now + LEASE_SECS) as f64));
            let won = kv
                .conditional_put("leases", "shard-0", item, at, &mut ledger, |cur| {
                    match cur {
                        None => true,
                        Some(held) => {
                            let expires = held["expires"].as_number().unwrap_or(0.0) as u64;
                            expires <= now
                        }
                    }
                })
                .is_ok();
            let model_won = model_expiry.is_none_or(|e| e <= now);
            prop_assert_eq!(won, model_won, "claim {} at t={}", i, now);
            if model_won {
                model_expiry = Some(now + LEASE_SECS);
            }
        }
    }

    /// The orchestrator's consumer path (result-exists pre-check, then a
    /// conditional lease claim, then a keyed result write) is idempotent:
    /// any duplicated delivery stream leaves stores byte-identical to the
    /// deduplicated stream.
    #[test]
    fn duplicated_deliveries_leave_consumer_state_identical(
        stream in prop::collection::vec(0usize..6, 1..30),
    ) {
        fn consume(stream: &[usize]) -> Vec<Option<String>> {
            let mut kv = KvStore::new();
            let mut s3 = ObjectStore::new();
            let mut ledger = BillingLedger::new();
            kv.create_table("leases").unwrap();
            s3.create_bucket("results", Region::UsEast1).unwrap();
            for (i, shard) in stream.iter().enumerate() {
                let key = format!("shard-{shard}");
                if s3.peek_object("results", &key).is_ok() {
                    continue; // idempotent duplicate: result already durable
                }
                let mut item = Item::new();
                item.insert("owner", AttrValue::S(format!("exec-{i}")));
                if kv
                    .conditional_put("leases", &key, item, SimTime::ZERO, &mut ledger, |cur| {
                        cur.is_none()
                    })
                    .is_err()
                {
                    continue;
                }
                s3.put_object(
                    "results",
                    key,
                    ObjectBody::from_text(format!("result-{shard}")),
                    Region::UsEast1,
                    SimTime::ZERO,
                    &mut ledger,
                )
                .unwrap();
            }
            (0..6)
                .map(|shard| {
                    let key = format!("shard-{shard}");
                    s3.peek_object("results", &key).ok().and_then(|body| {
                        body.as_text().map(str::to_owned)
                    })
                })
                .collect()
        }
        let mut deduped: Vec<usize> = Vec::new();
        for shard in &stream {
            if !deduped.contains(shard) {
                deduped.push(*shard);
            }
        }
        let raw = consume(&stream);
        let clean = consume(&deduped);
        prop_assert_eq!(&raw, &clean, "duplicates must be byte-level no-ops");
        for (shard, stored) in raw.iter().enumerate() {
            let expected = stream.contains(&shard).then(|| format!("result-{shard}"));
            prop_assert_eq!(stored, &expected);
        }
    }
}
