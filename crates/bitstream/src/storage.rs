//! Timed external storage: CompactFlash and SDRAM.
//!
//! The paper stores partial bitstreams either as files on the ML401's
//! CompactFlash card (read through the SysACE filesystem layer — slow) or
//! pre-staged as arrays in SDRAM at startup (fast). Both models return the
//! bytes *and* the time the transfer takes, so callers charge the cost to
//! the simulation clock.

use crate::timing;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vapres_sim::time::Ps;

/// An error from a storage operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No file/array with the given name.
    NotFound(String),
    /// An array with this name already exists.
    AlreadyExists(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(n) => write!(f, "no stored object named {n:?}"),
            StorageError::AlreadyExists(n) => write!(f, "object {n:?} already exists"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A CompactFlash card holding named bitstream files.
///
/// Files are `Arc<[u8]>`-backed: a read hands back a reference-counted
/// view of the stored bytes, so the `CompactFlash → Sdram → Icap` path
/// never re-materializes the buffer. Reads are charged at the calibrated
/// [`timing::CF_READ_BYTES_PER_SEC`] rate.
///
/// # Examples
///
/// ```
/// use vapres_bitstream::storage::CompactFlash;
///
/// let mut cf = CompactFlash::new();
/// cf.store("filter_a.bit", vec![0u8; 1024]);
/// let (data, took) = cf.read("filter_a.bit")?;
/// assert_eq!(data.len(), 1024);
/// assert!(took.as_ms() >= 28); // 1 KiB at ~36.5 KB/s
/// # Ok::<(), vapres_bitstream::storage::StorageError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompactFlash {
    files: BTreeMap<String, Arc<[u8]>>,
}

impl CompactFlash {
    /// An empty card.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes (or replaces) a file. Host-side provisioning: free.
    pub fn store(&mut self, name: impl Into<String>, data: impl Into<Arc<[u8]>>) {
        self.files.insert(name.into(), data.into());
    }

    /// Reads a whole file, returning a shared view of its contents and
    /// the transfer time. The clone is a refcount bump, not a copy.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the file does not exist.
    pub fn read(&self, name: &str) -> Result<(Arc<[u8]>, Ps), StorageError> {
        let data = self
            .files
            .get(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        Ok((Arc::clone(data), timing::cf_read_time(data.len() as u64)))
    }

    /// Size of a file without reading it (directory metadata access).
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the file does not exist.
    pub fn file_size(&self, name: &str) -> Result<u64, StorageError> {
        self.files
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))
    }

    /// Names of stored files in lexical order.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }
}

vapres_sim::persist_fields!(CompactFlash: files);

/// External SDRAM holding named bitstream arrays.
///
/// Arrays share storage with whatever staged them (`Arc<[u8]>`): staging
/// a buffer read off CompactFlash aliases the same allocation. Reads are
/// charged at the calibrated [`timing::SDRAM_COPY_BYTES_PER_SEC`] rate;
/// writes (staging at startup) are charged the same way.
#[derive(Debug, Clone, Default)]
pub struct Sdram {
    arrays: BTreeMap<String, Arc<[u8]>>,
}

impl Sdram {
    /// Empty SDRAM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages an array into SDRAM, returning the copy time.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] if the name is taken — re-staging is
    /// almost always an application bug.
    pub fn stage(
        &mut self,
        name: impl Into<String>,
        data: impl Into<Arc<[u8]>>,
    ) -> Result<Ps, StorageError> {
        let name = name.into();
        if self.arrays.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        let data = data.into();
        let t = timing::sdram_copy_time(data.len() as u64);
        self.arrays.insert(name, data);
        Ok(t)
    }

    /// Reads a staged array, returning a shared view of the contents and
    /// the transfer time. The clone is a refcount bump, not a copy.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the array does not exist.
    pub fn read(&self, name: &str) -> Result<(Arc<[u8]>, Ps), StorageError> {
        let data = self
            .arrays
            .get(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        Ok((Arc::clone(data), timing::sdram_copy_time(data.len() as u64)))
    }

    /// Whether an array is staged.
    pub fn contains(&self, name: &str) -> bool {
        self.arrays.contains_key(name)
    }

    /// Total staged bytes.
    pub fn used_bytes(&self) -> u64 {
        self.arrays.values().map(|v| v.len() as u64).sum()
    }
}

// Restore bypasses `stage`'s AlreadyExists check and its timing charge:
// a restore recreates state, it does not perform transfers.
vapres_sim::persist_fields!(Sdram: arrays);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_read_missing_file() {
        let cf = CompactFlash::new();
        assert!(matches!(cf.read("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(
            cf.file_size("nope"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn cf_store_read_roundtrip() {
        let mut cf = CompactFlash::new();
        cf.store("a.bit", vec![1, 2, 3]);
        let (data, t) = cf.read("a.bit").unwrap();
        assert_eq!(&data[..], &[1, 2, 3]);
        assert!(t > Ps::ZERO);
        assert_eq!(cf.file_size("a.bit").unwrap(), 3);
        assert_eq!(cf.file_names().collect::<Vec<_>>(), vec!["a.bit"]);
    }

    #[test]
    fn cf_is_much_slower_than_sdram() {
        let mut cf = CompactFlash::new();
        cf.store("x", vec![0; 36_300]);
        let (_, t_cf) = cf.read("x").unwrap();
        let mut sd = Sdram::new();
        sd.stage("x", vec![0; 36_300]).unwrap();
        let (_, t_sd) = sd.read("x").unwrap();
        let ratio = t_cf.as_secs_f64() / t_sd.as_secs_f64();
        assert!(ratio > 30.0, "CF/SDRAM ratio {ratio}");
    }

    #[test]
    fn sdram_rejects_double_stage() {
        let mut sd = Sdram::new();
        sd.stage("a", vec![1]).unwrap();
        assert!(matches!(
            sd.stage("a", vec![2]),
            Err(StorageError::AlreadyExists(_))
        ));
        assert!(sd.contains("a"));
        assert_eq!(sd.used_bytes(), 1);
    }

    #[test]
    fn reads_alias_stored_bytes_without_copying() {
        let mut cf = CompactFlash::new();
        cf.store("x.bit", vec![7u8; 64]);
        let (a, _) = cf.read("x.bit").unwrap();
        let (b, _) = cf.read("x.bit").unwrap();
        // Both reads hand back the same allocation.
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        // Staging the read buffer into SDRAM aliases it too.
        let mut sd = Sdram::new();
        sd.stage("x", Arc::clone(&a)).unwrap();
        let (c, _) = sd.read("x").unwrap();
        assert!(std::ptr::eq(a.as_ptr(), c.as_ptr()));
    }

    #[test]
    fn storage_error_display() {
        assert!(StorageError::NotFound("x".into()).to_string().contains("x"));
        assert!(StorageError::AlreadyExists("y".into())
            .to_string()
            .contains("exists"));
    }
}
