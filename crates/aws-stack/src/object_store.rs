//! The S3-like object store.
//!
//! SpotVerse uses it for checkpoint datasets, orchestrated sweep results
//! and instance-activity logs (§5.1.2). Cross-region puts/gets pay the
//! shared transfer tariff and take real transfer time — the constraint that
//! checkpoint uploads must fit the two-minute interruption notice. Activity
//! logs are never read back, so they are billed by their size through
//! [`ObjectStore::bill_put`] and not stored.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sim_kernel::SimTime;

use cloud_compute::{transfer, BillingLedger, ServiceKind};
use cloud_market::{Region, Usd};

use crate::fault::{ServiceFault, ServiceFaultInjector, ServiceOp};

/// The body of a stored object: real bytes for small control-plane records,
/// or a synthetic size for bulk scientific data whose contents are
/// irrelevant to the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectBody {
    /// Literal bytes (logs, JSON-ish records).
    Inline(Arc<[u8]>),
    /// A virtual payload of the given size in GiB.
    Synthetic {
        /// Payload size in GiB.
        size_gib: f64,
    },
}

impl ObjectBody {
    /// Creates an inline body from a string.
    pub fn from_text(text: impl Into<String>) -> Self {
        ObjectBody::Inline(text.into().into_bytes().into())
    }

    /// The body size in GiB.
    pub fn size_gib(&self) -> f64 {
        match self {
            ObjectBody::Inline(bytes) => Self::bytes_to_gib(bytes.len()),
            ObjectBody::Synthetic { size_gib } => *size_gib,
        }
    }

    /// The size in GiB of an inline body of `len` bytes.
    pub fn bytes_to_gib(len: usize) -> f64 {
        len as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// The inline text, if this is an inline body of valid UTF-8.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ObjectBody::Inline(bytes) => std::str::from_utf8(bytes).ok(),
            ObjectBody::Synthetic { .. } => None,
        }
    }
}

/// Object-store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectStoreError {
    /// The bucket does not exist.
    NoSuchBucket(String),
    /// The bucket already exists.
    BucketExists(String),
    /// The key does not exist in the bucket.
    NoSuchKey {
        /// Bucket name.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// The call was throttled (injected control-plane degradation);
    /// retry with backoff.
    Throttled {
        /// Bucket name.
        bucket: String,
    },
}

impl fmt::Display for ObjectStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectStoreError::NoSuchBucket(b) => write!(f, "no such bucket `{b}`"),
            ObjectStoreError::BucketExists(b) => write!(f, "bucket `{b}` already exists"),
            ObjectStoreError::NoSuchKey { bucket, key } => {
                write!(f, "no such key `{key}` in bucket `{bucket}`")
            }
            ObjectStoreError::Throttled { bucket } => {
                write!(f, "request against bucket `{bucket}` throttled")
            }
        }
    }
}

impl std::error::Error for ObjectStoreError {}

/// Outcome of a transfer-bearing operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// When the transfer completes.
    pub completes_at: SimTime,
    /// What the transfer cost (zero within a region).
    pub cost: Usd,
}

#[derive(Debug)]
struct Bucket {
    region: Region,
    objects: BTreeMap<String, ObjectBody>,
}

/// The S3-like multi-bucket object store.
///
/// # Examples
///
/// ```
/// use aws_stack::{ObjectBody, ObjectStore};
/// use cloud_compute::BillingLedger;
/// use cloud_market::Region;
/// use sim_kernel::SimTime;
///
/// let mut s3 = ObjectStore::new();
/// let mut ledger = BillingLedger::new();
/// s3.create_bucket("spotverse-logs", Region::UsEast1)?;
/// s3.put_object(
///     "spotverse-logs",
///     "run-1/interruptions.log",
///     ObjectBody::from_text("i-0001 interrupted"),
///     Region::UsEast1,
///     SimTime::ZERO,
///     &mut ledger,
/// )?;
/// assert!(s3.peek_object("spotverse-logs", "run-1/interruptions.log").is_ok());
/// # Ok::<(), aws_stack::ObjectStoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct ObjectStore {
    buckets: BTreeMap<String, Bucket>,
    injector: Option<Box<dyn ServiceFaultInjector>>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Installs a fault injector consulted before every transfer-bearing
    /// call. Chaos-only.
    pub fn set_fault_injector(&mut self, injector: Box<dyn ServiceFaultInjector>) {
        self.injector = Some(injector);
    }

    /// Consults the injector; `Err` means throttled, `Ok(delay)` is extra
    /// latency added to the transfer outcome.
    fn check_fault(
        &mut self,
        op: ServiceOp,
        bucket: &str,
        at: SimTime,
    ) -> Result<sim_kernel::SimDuration, ObjectStoreError> {
        match self.injector.as_mut().and_then(|i| i.intercept(op, at)) {
            // Lost uploads/downloads fail like throttles: retryable, no
            // partial state.
            Some(ServiceFault::Throttled | ServiceFault::Lost) => Err(ObjectStoreError::Throttled {
                bucket: bucket.to_owned(),
            }),
            Some(ServiceFault::Delayed(d)) => Ok(d),
            // Puts and gets are idempotent; duplicates change nothing.
            Some(ServiceFault::Duplicate) | None => Ok(sim_kernel::SimDuration::ZERO),
        }
    }

    /// Creates a bucket homed in `region`.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectStoreError::BucketExists`] on duplicates.
    pub fn create_bucket(
        &mut self,
        name: impl Into<String>,
        region: Region,
    ) -> Result<(), ObjectStoreError> {
        let name = name.into();
        if self.buckets.contains_key(&name) {
            return Err(ObjectStoreError::BucketExists(name));
        }
        self.buckets.insert(
            name,
            Bucket {
                region,
                objects: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Bills a put of `size_gib` from `from_region` without storing
    /// anything: the fault check, cross-region transfer and a small storage
    /// fee, returning when the upload would complete. For objects nothing
    /// reads back, such as activity logs.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectStoreError::Throttled`] when a fault injector
    /// throttles or loses the put, and [`ObjectStoreError::NoSuchBucket`]
    /// for unknown buckets.
    pub fn bill_put(
        &mut self,
        bucket: &str,
        size_gib: f64,
        from_region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<TransferOutcome, ObjectStoreError> {
        let delay = self.check_fault(ServiceOp::ObjectPut, bucket, at)?;
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| ObjectStoreError::NoSuchBucket(bucket.to_owned()))?;
        let transfer_cost = transfer::transfer_cost(from_region, b.region, size_gib);
        let completes_at = at + transfer::transfer_time(from_region, b.region, size_gib) + delay;
        let storage_fee = Usd::new(0.0005 * size_gib);
        ledger.charge(ServiceKind::DataTransfer, transfer_cost);
        ledger.charge(ServiceKind::ObjectStorage, storage_fee);
        Ok(TransferOutcome {
            completes_at,
            cost: transfer_cost + storage_fee,
        })
    }

    /// Writes an object from `from_region`, billed as
    /// [`ObjectStore::bill_put`] bills it, and returns when the upload
    /// completes.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::bill_put`]; nothing is stored on error.
    pub fn put_object(
        &mut self,
        bucket: &str,
        key: impl Into<String>,
        body: ObjectBody,
        from_region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<TransferOutcome, ObjectStoreError> {
        let outcome = self.bill_put(bucket, body.size_gib(), from_region, at, ledger)?;
        let b = self.buckets.get_mut(bucket).expect("bill_put found the bucket");
        b.objects.insert(key.into(), body);
        Ok(outcome)
    }

    /// Reads an object into `to_region`, charging cross-region transfer.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectStoreError::NoSuchBucket`] or
    /// [`ObjectStoreError::NoSuchKey`].
    pub fn get_object(
        &mut self,
        bucket: &str,
        key: &str,
        to_region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<(ObjectBody, TransferOutcome), ObjectStoreError> {
        let delay = self.check_fault(ServiceOp::ObjectGet, bucket, at)?;
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| ObjectStoreError::NoSuchBucket(bucket.to_owned()))?;
        let obj = b
            .objects
            .get(key)
            .ok_or_else(|| ObjectStoreError::NoSuchKey {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
            })?
            .clone();
        let size = obj.size_gib();
        let cost = transfer::transfer_cost(b.region, to_region, size);
        let completes_at = at + transfer::transfer_time(b.region, to_region, size) + delay;
        ledger.charge(ServiceKind::DataTransfer, cost);
        Ok((obj, TransferOutcome { completes_at, cost }))
    }

    /// Reads an object's body without transfer accounting.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectStoreError::NoSuchBucket`] or
    /// [`ObjectStoreError::NoSuchKey`].
    pub fn peek_object(&self, bucket: &str, key: &str) -> Result<&ObjectBody, ObjectStoreError> {
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| ObjectStoreError::NoSuchBucket(bucket.to_owned()))?;
        b.objects.get(key).ok_or_else(|| ObjectStoreError::NoSuchKey {
            bucket: bucket.to_owned(),
            key: key.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (ObjectStore, BillingLedger) {
        let mut s3 = ObjectStore::new();
        s3.create_bucket("logs", Region::UsEast1).unwrap();
        (s3, BillingLedger::new())
    }

    #[test]
    fn put_get_roundtrip_same_region() {
        let (mut s3, mut ledger) = store();
        s3.put_object(
            "logs",
            "a/b",
            ObjectBody::from_text("hello"),
            Region::UsEast1,
            SimTime::ZERO,
            &mut ledger,
        )
        .unwrap();
        let (obj, outcome) = s3
            .get_object("logs", "a/b", Region::UsEast1, SimTime::from_secs(5), &mut ledger)
            .unwrap();
        assert_eq!(obj.as_text(), Some("hello"));
        assert_eq!(outcome.cost, Usd::ZERO);
    }

    #[test]
    fn cross_region_put_costs_and_takes_time() {
        let (mut s3, mut ledger) = store();
        let outcome = s3
            .put_object(
                "logs",
                "ckpt",
                ObjectBody::Synthetic { size_gib: 1.0 },
                Region::ApNortheast3,
                SimTime::ZERO,
                &mut ledger,
            )
            .unwrap();
        assert!(outcome.cost > Usd::ZERO);
        assert!(outcome.completes_at > SimTime::ZERO);
        assert!(ledger.total_for_service(ServiceKind::DataTransfer) > Usd::ZERO);
    }

    #[test]
    fn synthetic_checkpoint_fits_notice() {
        let (mut s3, mut ledger) = store();
        let outcome = s3
            .put_object(
                "logs",
                "ckpt",
                ObjectBody::Synthetic { size_gib: 1.0 },
                Region::EuNorth1,
                SimTime::ZERO,
                &mut ledger,
            )
            .unwrap();
        assert!(
            outcome.completes_at <= SimTime::from_secs(120),
            "1 GiB checkpoint must fit the 2-minute notice"
        );
    }

    #[test]
    fn missing_bucket_and_key_error() {
        let (mut s3, mut ledger) = store();
        assert!(matches!(
            s3.get_object("nope", "k", Region::UsEast1, SimTime::ZERO, &mut ledger),
            Err(ObjectStoreError::NoSuchBucket(_))
        ));
        assert!(matches!(
            s3.get_object("logs", "k", Region::UsEast1, SimTime::ZERO, &mut ledger),
            Err(ObjectStoreError::NoSuchKey { .. })
        ));
        assert!(matches!(
            s3.bill_put("nope", 1.0, Region::UsEast1, SimTime::ZERO, &mut ledger),
            Err(ObjectStoreError::NoSuchBucket(_))
        ));
        assert!(ledger.is_empty());
        assert!(matches!(
            s3.create_bucket("logs", Region::UsEast1),
            Err(ObjectStoreError::BucketExists(_))
        ));
    }
}
