//! The DynamoDB-like key-value store.
//!
//! SpotVerse's centralized data plane (paper §4): the Monitor writes spot
//! prices, Interruption Frequencies and Placement Scores here; checkpoint
//! workloads record shard progress here. Nothing in the simulation reads
//! either back from the store (the Monitor's rows are rebuilt from the
//! market when a decision reads them, and a restore reads the workload's
//! own checkpoint ledger), so both are billed and fault-checked through
//! [`KvStore::bill_write`] and not stored. The orchestrator's leases are
//! stored and read.

use std::collections::BTreeMap;
use std::fmt;

use sim_kernel::SimTime;

use cloud_compute::{BillingLedger, ServiceKind};
use cloud_market::Usd;

use crate::fault::{ServiceFault, ServiceFaultInjector, ServiceOp};

/// An attribute value (a small subset of DynamoDB's types).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string.
    S(String),
    /// A number.
    N(f64),
    /// A list.
    L(Vec<AttrValue>),
}

impl AttrValue {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::S(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AttrValue::N(n) => Some(*n),
            _ => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::S(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::S(s)
    }
}

impl From<f64> for AttrValue {
    fn from(n: f64) -> Self {
        AttrValue::N(n)
    }
}

/// An item: attribute name → value. Every attribute name is a literal, so
/// naming one never allocates.
pub type Item = BTreeMap<&'static str, AttrValue>;

/// Key-value store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The table does not exist.
    NoSuchTable(String),
    /// The table already exists.
    TableExists(String),
    /// A conditional write's precondition failed.
    ConditionFailed {
        /// Table name.
        table: String,
        /// Item key.
        key: String,
    },
    /// The call was throttled (injected control-plane degradation);
    /// retry with backoff.
    Throttled {
        /// Table name.
        table: String,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            KvError::TableExists(t) => write!(f, "table `{t}` already exists"),
            KvError::ConditionFailed { table, key } => {
                write!(f, "conditional write failed for `{key}` in `{table}`")
            }
            KvError::Throttled { table } => {
                write!(f, "request against `{table}` throttled")
            }
        }
    }
}

impl std::error::Error for KvError {}

#[derive(Debug, Default)]
struct Table {
    items: BTreeMap<String, Item>,
}

impl Table {
    /// Stores `item` under `key`. The row is looked up by `&str` first, so
    /// an existing row is replaced in place and only a new one allocates
    /// its key.
    fn put_row(&mut self, key: &str, item: Item) {
        match self.items.get_mut(key) {
            Some(row) => *row = item,
            None => {
                self.items.insert(key.to_owned(), item);
            }
        }
    }
}

/// The DynamoDB-like store.
///
/// # Examples
///
/// ```
/// use aws_stack::{AttrValue, KvStore};
/// use cloud_compute::BillingLedger;
/// use sim_kernel::SimTime;
///
/// let mut db = KvStore::new();
/// let mut ledger = BillingLedger::new();
/// db.create_table("checkpoints")?;
/// let mut item = aws_stack::Item::new();
/// item.insert("shards_done", AttrValue::N(3.0));
/// db.put_item("checkpoints", "workload-7", item, SimTime::ZERO, &mut ledger)?;
/// let got = db.get_item("checkpoints", "workload-7", SimTime::ZERO, &mut ledger)?;
/// assert_eq!(got.map(|item| item["shards_done"].as_number()), Some(Some(3.0)));
/// # Ok::<(), aws_stack::KvError>(())
/// ```
#[derive(Debug, Default)]
pub struct KvStore {
    tables: BTreeMap<String, Table>,
    injector: Option<Box<dyn ServiceFaultInjector>>,
}

/// Per-write price (on-demand capacity pricing, approximately).
const WRITE_PRICE: f64 = 1.25e-6;
/// Per-read price.
const READ_PRICE: f64 = 0.25e-6;

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Installs a fault injector consulted before every call. Chaos-only.
    pub fn set_fault_injector(&mut self, injector: Box<dyn ServiceFaultInjector>) {
        self.injector = Some(injector);
    }

    /// Consults the injector; `Err` means the call is throttled. Delays
    /// are meaningless for the KV store's synchronous reads/writes and are
    /// ignored.
    fn check_fault(&mut self, op: ServiceOp, table: &str, at: SimTime) -> Result<(), KvError> {
        let fault = self.injector.as_mut().and_then(|i| i.intercept(op, at));
        match fault {
            // A lost request surfaces exactly like a throttle: the caller
            // sees a retryable failure and the write never lands.
            Some(ServiceFault::Throttled | ServiceFault::Lost) => Err(KvError::Throttled {
                table: table.to_owned(),
            }),
            // KV calls are idempotent at this layer; a duplicate is harmless.
            Some(ServiceFault::Delayed(_) | ServiceFault::Duplicate) | None => Ok(()),
        }
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::TableExists`] on duplicates.
    pub fn create_table(&mut self, name: impl Into<String>) -> Result<(), KvError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(KvError::TableExists(name));
        }
        self.tables.insert(name, Table::default());
        Ok(())
    }

    /// Consults the injector about a write to `table`, then bills it and
    /// returns the table to write into.
    fn billed_write(
        &mut self,
        table: &str,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<&mut Table, KvError> {
        self.check_fault(ServiceOp::KvWrite, table, at)?;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
        ledger.charge(ServiceKind::KvStore, Usd::new(WRITE_PRICE));
        Ok(t)
    }

    /// Bills one write to `table` and stores nothing: for a writer whose
    /// rows are never read back from the store. The fault check and the
    /// charge are exactly those of [`KvStore::put_item`].
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Throttled`] when a fault injector throttles or
    /// loses the write, and [`KvError::NoSuchTable`] for unknown tables.
    pub fn bill_write(
        &mut self,
        table: &str,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<(), KvError> {
        self.billed_write(table, at, ledger).map(drop)
    }

    /// Writes an item (full replace). The key is copied only when the
    /// row is new.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoSuchTable`] for unknown tables.
    pub fn put_item(
        &mut self,
        table: &str,
        key: &str,
        item: Item,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<(), KvError> {
        self.billed_write(table, at, ledger)?.put_row(key, item);
        Ok(())
    }

    /// Reads an item, if present, borrowed from the store.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoSuchTable`] for unknown tables.
    pub fn get_item(
        &mut self,
        table: &str,
        key: &str,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<Option<&Item>, KvError> {
        self.check_fault(ServiceOp::KvRead, table, at)?;
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
        ledger.charge(ServiceKind::KvStore, Usd::new(READ_PRICE));
        Ok(t.items.get(key))
    }

    /// Writes an item only if `condition` holds over the current item (absent
    /// items are presented as `None`) — the optimistic-concurrency primitive
    /// checkpoint writers use. The key is copied only when the row is new.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoSuchTable`] or [`KvError::ConditionFailed`].
    pub fn conditional_put<F>(
        &mut self,
        table: &str,
        key: &str,
        item: Item,
        at: SimTime,
        ledger: &mut BillingLedger,
        condition: F,
    ) -> Result<(), KvError>
    where
        F: FnOnce(Option<&Item>) -> bool,
    {
        let t = self.billed_write(table, at, ledger)?;
        if !condition(t.items.get(key)) {
            return Err(KvError::ConditionFailed {
                table: table.to_owned(),
                key: key.to_owned(),
            });
        }
        t.put_row(key, item);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> (KvStore, BillingLedger) {
        let mut db = KvStore::new();
        db.create_table("t").unwrap();
        (db, BillingLedger::new())
    }

    fn item(n: f64) -> Item {
        let mut i = Item::new();
        i.insert("v", AttrValue::N(n));
        i
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut db, mut ledger) = db();
        db.put_item("t", "k", item(1.0), SimTime::ZERO, &mut ledger).unwrap();
        let got = db.get_item("t", "k", SimTime::ZERO, &mut ledger).unwrap().unwrap();
        assert_eq!(got["v"].as_number(), Some(1.0));
        let mut expected = BillingLedger::new();
        expected.charge(ServiceKind::KvStore, Usd::new(WRITE_PRICE));
        expected.charge(ServiceKind::KvStore, Usd::new(READ_PRICE));
        assert_eq!(ledger, expected, "one billed write, one billed read");
    }

    #[test]
    fn get_missing_is_none() {
        let (mut db, mut ledger) = db();
        assert_eq!(db.get_item("t", "missing", SimTime::ZERO, &mut ledger).unwrap(), None);
    }

    #[test]
    fn conditional_put_enforces_precondition() {
        let (mut db, mut ledger) = db();
        // First write requires absence.
        db.conditional_put("t", "k", item(1.0), SimTime::ZERO, &mut ledger, |cur| cur.is_none())
            .unwrap();
        // Second write with the same precondition fails.
        let err = db
            .conditional_put("t", "k", item(2.0), SimTime::ZERO, &mut ledger, |cur| cur.is_none())
            .unwrap_err();
        assert!(matches!(err, KvError::ConditionFailed { .. }));
        // Version-guarded write succeeds.
        db.conditional_put("t", "k", item(2.0), SimTime::ZERO, &mut ledger, |cur| {
            cur.and_then(|i| i["v"].as_number()) == Some(1.0)
        })
        .unwrap();
    }

    /// Every row in the table, in key order, as (key, attribute "v").
    fn rows(db: &KvStore) -> Vec<(String, Option<f64>)> {
        db.tables["t"]
            .items
            .iter()
            .map(|(k, item)| (k.clone(), item.get("v").and_then(AttrValue::as_number)))
            .collect()
    }

    /// One billed write per call, each a `KvStore` charge at the write
    /// price; no reads.
    fn assert_billed_writes(ledger: &BillingLedger, writes: u64) {
        assert_eq!(ledger.len() as u64, writes);
        let mut expected = BillingLedger::new();
        for _ in 0..writes {
            expected.charge(ServiceKind::KvStore, Usd::new(WRITE_PRICE));
        }
        assert_eq!(ledger, &expected);
    }

    #[test]
    fn put_item_replaces_an_existing_row_and_inserts_a_new_one() {
        let (mut db, mut ledger) = db();
        db.put_item("t", "k", item(1.0), SimTime::ZERO, &mut ledger).unwrap();
        let mut wider = item(2.0);
        wider.insert("extra", AttrValue::from("x"));
        db.put_item("t", "k", wider, SimTime::ZERO, &mut ledger).unwrap();
        // Full replace: the second write's attributes, and only those.
        db.put_item("t", "k", item(3.0), SimTime::ZERO, &mut ledger).unwrap();
        db.put_item("t", "j", item(4.0), SimTime::ZERO, &mut ledger).unwrap();
        assert_eq!(rows(&db), vec![("j".into(), Some(4.0)), ("k".into(), Some(3.0))]);
        assert_eq!(db.tables["t"].items["k"], item(3.0));
        assert_billed_writes(&ledger, 4);
    }

    #[test]
    fn conditional_put_replaces_an_existing_row_and_inserts_a_new_one() {
        let (mut db, mut ledger) = db();
        db.conditional_put("t", "k", item(1.0), SimTime::ZERO, &mut ledger, |_| true).unwrap();
        let mut wider = item(2.0);
        wider.insert("extra", AttrValue::from("x"));
        db.conditional_put("t", "k", wider, SimTime::ZERO, &mut ledger, |cur| {
            cur == Some(&item(1.0))
        })
        .unwrap();
        db.conditional_put("t", "k", item(3.0), SimTime::ZERO, &mut ledger, |_| true).unwrap();
        db.conditional_put("t", "j", item(4.0), SimTime::ZERO, &mut ledger, |_| true).unwrap();
        // A rejected write is billed but leaves the row alone.
        assert!(db
            .conditional_put("t", "k", item(9.0), SimTime::ZERO, &mut ledger, |_| false)
            .is_err());
        assert_eq!(rows(&db), vec![("j".into(), Some(4.0)), ("k".into(), Some(3.0))]);
        assert_eq!(db.tables["t"].items["k"], item(3.0));
        assert_billed_writes(&ledger, 5);
    }

    /// Throttles every call.
    #[derive(Debug)]
    struct ThrottleAll;

    impl ServiceFaultInjector for ThrottleAll {
        fn intercept(&mut self, _op: ServiceOp, _at: SimTime) -> Option<ServiceFault> {
            Some(ServiceFault::Throttled)
        }
    }

    #[test]
    fn bill_write_bills_like_a_put_and_stores_nothing() {
        let (mut db, mut ledger) = db();
        db.bill_write("t", SimTime::ZERO, &mut ledger).unwrap();
        db.put_item("t", "k", item(1.0), SimTime::ZERO, &mut ledger).unwrap();
        db.bill_write("t", SimTime::ZERO, &mut ledger).unwrap();
        assert_eq!(rows(&db), vec![("k".into(), Some(1.0))]);
        assert_billed_writes(&ledger, 3);
        assert!(matches!(
            db.bill_write("nope", SimTime::ZERO, &mut ledger),
            Err(KvError::NoSuchTable(_))
        ));
        db.set_fault_injector(Box::new(ThrottleAll));
        assert!(matches!(
            db.bill_write("t", SimTime::ZERO, &mut ledger),
            Err(KvError::Throttled { .. })
        ));
        assert_billed_writes(&ledger, 3);
    }

    #[test]
    fn unknown_table_errors() {
        let (mut db, mut ledger) = db();
        assert!(matches!(
            db.put_item("nope", "k", Item::new(), SimTime::ZERO, &mut ledger),
            Err(KvError::NoSuchTable(_))
        ));
        assert!(matches!(db.create_table("t"), Err(KvError::TableExists(_))));
    }

    #[test]
    fn attr_value_accessors() {
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from(2.0).as_number(), Some(2.0));
        assert_eq!(AttrValue::from("x").as_number(), None);
        assert_eq!(AttrValue::from(String::from("y")).as_str(), Some("y"));
    }
}
