//! An EFS-like regional shared filesystem.
//!
//! Paper §7: "we plan to explore alternative storage solutions such as
//! Elastic File System (EFS)" to ease the two-minute-notice pressure on
//! checkpoint uploads. This module models the trade-off: a filesystem is
//! mounted *within one region* with fast, transfer-free writes from that
//! region, but a replacement instance in *another* region must either pay
//! a cross-region read (slow NFS-over-WAN) or a replica sync. Storage is
//! billed per GiB-month, which is much pricier than object storage.

use std::collections::BTreeMap;
use std::fmt;

use sim_kernel::{SimDuration, SimTime};

use cloud_compute::{transfer, BillingLedger, ServiceKind};
use cloud_market::{Region, Usd};

/// Identifier of a filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileSystemId(u64);

impl fmt::Display for FileSystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fs-{:08x}", self.0)
    }
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileSystemError {
    /// No filesystem with that id.
    UnknownFileSystem(FileSystemId),
    /// No file at that path.
    NoSuchFile {
        /// The filesystem.
        fs: FileSystemId,
        /// The missing path.
        path: String,
    },
    /// The caller's region has no mount target.
    NotMounted {
        /// The filesystem.
        fs: FileSystemId,
        /// The unmounted region.
        region: Region,
    },
}

impl fmt::Display for FileSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileSystemError::UnknownFileSystem(id) => write!(f, "unknown filesystem {id}"),
            FileSystemError::NoSuchFile { fs, path } => {
                write!(f, "no file `{path}` on {fs}")
            }
            FileSystemError::NotMounted { fs, region } => {
                write!(f, "{fs} has no mount target in {region}")
            }
        }
    }
}

impl std::error::Error for FileSystemError {}

/// The outcome of a filesystem IO operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoOutcome {
    /// When the operation completes.
    pub completes_at: SimTime,
    /// What it cost (transfer for cross-region access; storage accrual for
    /// writes).
    pub cost: Usd,
}

#[derive(Debug)]
struct FileSystem {
    home_region: Region,
    mount_regions: Vec<Region>,
    /// Each file's size in GiB, by path.
    files: BTreeMap<String, f64>,
}

/// Per GiB-month storage price (EFS-like; ~10× object storage).
const STORAGE_PRICE_PER_GIB_MONTH: f64 = 0.30;
/// In-region write/read throughput, GiB per second.
const LOCAL_THROUGHPUT: f64 = 0.25;
/// Cross-region NFS-over-WAN throughput penalty factor.
const WAN_PENALTY: f64 = 3.0;

/// The EFS-like service.
///
/// # Examples
///
/// ```
/// use aws_stack::SharedFileSystem;
/// use cloud_compute::BillingLedger;
/// use cloud_market::Region;
/// use sim_kernel::SimTime;
///
/// let mut efs = SharedFileSystem::new();
/// let mut ledger = BillingLedger::new();
/// let fs = efs.create(Region::CaCentral1);
/// efs.mount(fs, Region::EuNorth1)?;
/// let write = efs.write(fs, "ckpt/w-00", 1.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)?;
/// assert!(write.completes_at > SimTime::ZERO);
/// # Ok::<(), aws_stack::FileSystemError>(())
/// ```
#[derive(Debug, Default)]
pub struct SharedFileSystem {
    systems: BTreeMap<FileSystemId, FileSystem>,
    next_id: u64,
}

impl SharedFileSystem {
    /// Creates the service.
    pub fn new() -> Self {
        SharedFileSystem::default()
    }

    /// Creates a filesystem homed (and mounted) in `region`.
    pub fn create(&mut self, region: Region) -> FileSystemId {
        self.next_id += 1;
        let id = FileSystemId(self.next_id);
        self.systems.insert(
            id,
            FileSystem {
                home_region: region,
                mount_regions: vec![region],
                files: BTreeMap::new(),
            },
        );
        id
    }

    /// Adds a mount target in `region` (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`FileSystemError::UnknownFileSystem`] for bad ids.
    pub fn mount(&mut self, id: FileSystemId, region: Region) -> Result<(), FileSystemError> {
        let fs = self
            .systems
            .get_mut(&id)
            .ok_or(FileSystemError::UnknownFileSystem(id))?;
        if !fs.mount_regions.contains(&region) {
            fs.mount_regions.push(region);
        }
        Ok(())
    }

    /// Whether `region` has a mount target.
    pub fn is_mounted(&self, id: FileSystemId, region: Region) -> bool {
        self.systems
            .get(&id)
            .is_some_and(|fs| fs.mount_regions.contains(&region))
    }

    fn io_time(fs_home: Region, from: Region, gib: f64) -> SimDuration {
        let secs = if fs_home == from {
            gib / LOCAL_THROUGHPUT
        } else {
            // NFS over WAN: base transfer time with a protocol penalty.
            let base = transfer::transfer_time(from, fs_home, gib).as_secs() as f64;
            base * WAN_PENALTY
        };
        SimDuration::from_secs(secs.ceil().max(1.0) as u64)
    }

    /// Writes (or overwrites) a file from `from_region`.
    ///
    /// In-region writes are transfer-free; cross-region writes pay the WAN
    /// tariff. Storage accrues a one-month charge per write of the delta
    /// size (a simplification of metered GiB-months).
    ///
    /// # Errors
    ///
    /// Returns [`FileSystemError::UnknownFileSystem`] or
    /// [`FileSystemError::NotMounted`].
    pub fn write(
        &mut self,
        id: FileSystemId,
        path: impl Into<String>,
        size_gib: f64,
        from_region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<IoOutcome, FileSystemError> {
        assert!(size_gib >= 0.0 && size_gib.is_finite(), "bad size {size_gib}");
        let fs = self
            .systems
            .get_mut(&id)
            .ok_or(FileSystemError::UnknownFileSystem(id))?;
        if !fs.mount_regions.contains(&from_region) {
            return Err(FileSystemError::NotMounted {
                fs: id,
                region: from_region,
            });
        }
        let home = fs.home_region;
        let transfer_cost = if home == from_region {
            Usd::ZERO
        } else {
            transfer::transfer_cost(from_region, home, size_gib)
        };
        let storage_cost = Usd::new(STORAGE_PRICE_PER_GIB_MONTH * size_gib / 30.0);
        ledger.charge(ServiceKind::DataTransfer, transfer_cost);
        ledger.charge(ServiceKind::ObjectStorage, storage_cost);
        let completes_at = at + Self::io_time(home, from_region, size_gib);
        fs.files.insert(path.into(), size_gib);
        Ok(IoOutcome {
            completes_at,
            cost: transfer_cost + storage_cost,
        })
    }

    /// Reads a file into `to_region`.
    ///
    /// # Errors
    ///
    /// Returns [`FileSystemError::UnknownFileSystem`],
    /// [`FileSystemError::NotMounted`] or [`FileSystemError::NoSuchFile`].
    pub fn read(
        &self,
        id: FileSystemId,
        path: &str,
        to_region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<IoOutcome, FileSystemError> {
        let fs = self
            .systems
            .get(&id)
            .ok_or(FileSystemError::UnknownFileSystem(id))?;
        if !fs.mount_regions.contains(&to_region) {
            return Err(FileSystemError::NotMounted {
                fs: id,
                region: to_region,
            });
        }
        let size_gib = *fs.files.get(path).ok_or_else(|| FileSystemError::NoSuchFile {
            fs: id,
            path: path.to_owned(),
        })?;
        let home = fs.home_region;
        let cost = if home == to_region {
            Usd::ZERO
        } else {
            transfer::transfer_cost(home, to_region, size_gib)
        };
        ledger.charge(ServiceKind::DataTransfer, cost);
        let completes_at = at + Self::io_time(home, to_region, size_gib);
        Ok(IoOutcome { completes_at, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> (SharedFileSystem, FileSystemId, BillingLedger) {
        let mut efs = SharedFileSystem::new();
        let fs = efs.create(Region::CaCentral1);
        (efs, fs, BillingLedger::new())
    }

    #[test]
    fn in_region_write_is_transfer_free_and_fast() {
        let (mut efs, fs, mut ledger) = service();
        let out = efs
            .write(fs, "ckpt", 1.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)
            .unwrap();
        assert_eq!(ledger.total_for_service(ServiceKind::DataTransfer), Usd::ZERO);
        assert!(out.completes_at <= SimTime::from_secs(5), "local write is fast");
        // Storage accrual is charged.
        assert!(ledger.total_for_service(ServiceKind::ObjectStorage) > Usd::ZERO);
    }

    #[test]
    fn in_region_write_beats_s3_notice_budget_easily() {
        // The §7 motivation: a 10 GiB working set cannot cross regions in
        // the 2-minute notice, but a local EFS write lands in seconds.
        let (mut efs, fs, mut ledger) = service();
        let out = efs
            .write(fs, "big", 10.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)
            .unwrap();
        assert!(out.completes_at <= SimTime::from_secs(120));
        assert!(!transfer::fits_in_interruption_notice(
            Region::CaCentral1,
            Region::ApNortheast3,
            10.0
        ));
    }

    #[test]
    fn cross_region_read_pays_wan_penalty() {
        let (mut efs, fs, mut ledger) = service();
        efs.mount(fs, Region::EuNorth1).unwrap();
        efs.write(fs, "ckpt", 1.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)
            .unwrap();
        let out = efs
            .read(fs, "ckpt", Region::EuNorth1, SimTime::from_secs(10), &mut ledger)
            .unwrap();
        assert!(out.cost > Usd::ZERO, "cross-region read pays transfer");
        let plain = transfer::transfer_time(Region::CaCentral1, Region::EuNorth1, 1.0);
        assert!(
            out.completes_at - SimTime::from_secs(10) > plain,
            "WAN NFS is slower than raw transfer"
        );
    }

    #[test]
    fn unmounted_region_rejected() {
        let (mut efs, fs, mut ledger) = service();
        let err = efs
            .write(fs, "x", 1.0, Region::UsEast1, SimTime::ZERO, &mut ledger)
            .unwrap_err();
        assert!(matches!(err, FileSystemError::NotMounted { .. }));
        assert!(!efs.is_mounted(fs, Region::UsEast1));
        efs.mount(fs, Region::UsEast1).unwrap();
        assert!(efs.is_mounted(fs, Region::UsEast1));
        efs.write(fs, "x", 1.0, Region::UsEast1, SimTime::ZERO, &mut ledger)
            .unwrap();
    }

    #[test]
    fn missing_file_and_fs_errors() {
        let (efs, fs, mut ledger) = service();
        assert!(matches!(
            efs.read(fs, "ghost", Region::CaCentral1, SimTime::ZERO, &mut ledger),
            Err(FileSystemError::NoSuchFile { .. })
        ));
        let mut efs2 = SharedFileSystem::new();
        assert!(matches!(
            efs2.mount(FileSystemId(99), Region::UsEast1),
            Err(FileSystemError::UnknownFileSystem(_))
        ));
    }

    #[test]
    fn overwrite_updates_metadata() {
        let (mut efs, fs, mut ledger) = service();
        efs.mount(fs, Region::EuNorth1).unwrap();
        efs.write(fs, "f", 1.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)
            .unwrap();
        efs.write(fs, "f", 2.0, Region::CaCentral1, SimTime::from_secs(60), &mut ledger)
            .unwrap();
        let out = efs
            .read(fs, "f", Region::EuNorth1, SimTime::from_secs(120), &mut ledger)
            .unwrap();
        assert_eq!(out.cost, transfer::transfer_cost(Region::CaCentral1, Region::EuNorth1, 2.0));
    }

    #[test]
    fn storage_is_pricier_than_object_storage_per_write() {
        // The trade-off the ablation bench quantifies: EFS storage accrual
        // per GiB is ~20× the object store's per-put fee.
        let (mut efs, fs, mut ledger) = service();
        efs.write(fs, "f", 1.0, Region::CaCentral1, SimTime::ZERO, &mut ledger)
            .unwrap();
        let efs_storage = ledger.total_for_service(ServiceKind::ObjectStorage).amount();
        assert!(efs_storage > 0.0005, "EFS accrual {efs_storage} should exceed S3 put fee");
    }
}
