//! On-disk spill partitions: `(signature, set-id)` postings hash-ranged
//! into per-partition files.
//!
//! Spill files are *transient* — they exist only for the duration of one
//! external join and are recomputed from the segment on any failure, so
//! unlike the WAL they are never fsynced. They still get the full frame
//! treatment (`ssj_io::frame`): each flushed batch is a CRC-checked
//! frame, and the reader treats a torn or corrupt frame as a hard error.
//! A WAL tolerates a damaged tail because that is the expected crash
//! artifact; a spill file is written and read within one process
//! lifetime, so damage means a real fault and silently dropping the
//! batch would drop candidate pairs — i.e. wrong join output.
//!
//! Files are named `part-<i>.spill.tmp`: the `tmp` extension means a
//! crash mid-spill leaves files that `ssj-store` recovery already sweeps
//! (`cargo xtask crashtest` pins this).

use ssj_core::candidates::Posting;
use ssj_core::hash::mix64;
use ssj_core::set::SetId;
use ssj_core::signature::Signature;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, ErrorKind};
use std::path::{Path, PathBuf};

use ssj_io::frame::{write_frame, Frame, FrameReader};
use ssj_io::varint::{read_varint, write_varint};

/// File name of spill partition `part` (inside the spill directory).
pub fn partition_file_name(part: usize) -> String {
    // durlint: allow(tmp-no-sweep): spill partitions are transient scratch, deliberately named `*.tmp` so the store-side sweep (`clean_tmp_files`) reclaims them after a crashed join; the executor removes each partition after processing.
    format!("part-{part}.spill.tmp")
}

/// The partition owning `sig` among `partitions` buckets.
///
/// Every occurrence of a signature routes to the same bucket — the
/// invariant the exactness argument rests on — and `mix64` spreads the
/// already-hashed signature space so bucket sizes stay balanced.
pub fn partition_of(sig: Signature, partitions: usize) -> usize {
    (mix64(sig) % partitions as u64) as usize
}

struct PartWriter {
    file: File,
    batch: Vec<u8>,
    records: u64,
    bytes: u64,
}

/// Batched writer over all spill partitions of one join.
pub struct SpillWriter {
    parts: Vec<PartWriter>,
    batch_bytes: usize,
}

impl SpillWriter {
    /// Creates `partitions` spill files under `dir`, flushing each
    /// partition's buffer once it reaches `batch_bytes`.
    pub fn create_at(dir: &Path, partitions: usize, batch_bytes: usize) -> io::Result<Self> {
        let mut parts = Vec::with_capacity(partitions);
        for i in 0..partitions {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(dir.join(partition_file_name(i)))?;
            parts.push(PartWriter {
                file,
                batch: Vec::new(),
                records: 0,
                bytes: 0,
            });
        }
        Ok(Self { parts, batch_bytes })
    }

    /// Appends one `(sig, id)` posting to partition `part`.
    pub fn push(&mut self, part: usize, sig: Signature, id: SetId) -> io::Result<()> {
        let p = &mut self.parts[part];
        write_varint(&mut p.batch, sig)?;
        write_varint(&mut p.batch, u64::from(id))?;
        p.records += 1;
        if p.batch.len() >= self.batch_bytes {
            let written = write_frame(&mut p.file, &p.batch)?;
            p.bytes += written as u64;
            p.batch.clear();
        }
        Ok(())
    }

    /// Flushes every partial batch; returns `(records, bytes)` totals.
    /// No fsync — spill data is recomputed, not recovered.
    pub fn seal(mut self) -> io::Result<(u64, u64)> {
        let mut records = 0;
        let mut bytes = 0;
        for p in &mut self.parts {
            if !p.batch.is_empty() {
                let written = write_frame(&mut p.file, &p.batch)?;
                p.bytes += written as u64;
                p.batch.clear();
            }
            records += p.records;
            bytes += p.bytes;
        }
        Ok((records, bytes))
    }
}

/// Streams one partition file onto the end of `postings`. Torn or
/// corrupt frames are hard errors — see the module docs for why spill
/// damage must never be tolerated.
pub fn read_partition(path: &Path, postings: &mut Vec<Posting>) -> io::Result<()> {
    let file = File::open(path)?;
    let mut reader = FrameReader::new(BufReader::new(file));
    loop {
        match reader.next_frame()? {
            Frame::Payload(batch) => {
                let mut cur = batch.as_slice();
                while !cur.is_empty() {
                    let sig = read_varint(&mut cur)?;
                    let id = read_varint(&mut cur)?;
                    let id = u32::try_from(id).map_err(|_| {
                        io::Error::new(
                            ErrorKind::InvalidData,
                            "spill posting id overflows the u32 set-id domain",
                        )
                    })?;
                    postings.push((sig, id));
                }
            }
            Frame::CleanEof => return Ok(()),
            Frame::Torn { offset } => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("spill file {} torn at offset {offset}", path.display()),
                ))
            }
            Frame::Corrupt { offset, reason } => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "spill file {} corrupt at offset {offset}: {reason}",
                        path.display()
                    ),
                ))
            }
        }
    }
}

/// Removes the spill files `SpillWriter::create_at` made under `dir`, then
/// the directory itself if now empty. Best-effort: a vanished file is
/// fine, and a non-empty directory (foreign files) is left alone.
pub fn remove_partitions(dir: &Path, partitions: usize) -> io::Result<()> {
    for i in 0..partitions {
        let path: PathBuf = dir.join(partition_file_name(i));
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let _ = std::fs::remove_dir(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_roundtrip_preserves_every_posting() {
        let dir = std::env::temp_dir().join(format!("ssj_spill_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let parts = 3;
        let mut w = SpillWriter::create_at(&dir, parts, 64).unwrap();
        let postings: Vec<(Signature, SetId)> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 97) as SetId))
            .collect();
        let mut expected: Vec<Vec<(Signature, SetId)>> = vec![Vec::new(); parts];
        for &(sig, id) in &postings {
            let p = partition_of(sig, parts);
            w.push(p, sig, id).unwrap();
            expected[p].push((sig, id));
        }
        let (records, bytes) = w.seal().unwrap();
        assert_eq!(records, postings.len() as u64);
        assert!(bytes > 0);

        let mut buf = Vec::new();
        for (p, exp) in expected.iter().enumerate() {
            buf.clear();
            read_partition(&dir.join(partition_file_name(p)), &mut buf).unwrap();
            // Postings come back in the order they were pushed.
            assert_eq!(&buf, exp);
        }
        remove_partitions(&dir, parts).unwrap();
        assert!(!dir.exists(), "spill dir should be removed when empty");
    }

    #[test]
    fn torn_spill_file_is_a_hard_error() {
        let dir = std::env::temp_dir().join(format!("ssj_spill_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SpillWriter::create_at(&dir, 1, 8).unwrap();
        for i in 0..50u64 {
            w.push(0, i * 7 + 1, i as SetId).unwrap();
        }
        w.seal().unwrap();
        let path = dir.join(partition_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = read_partition(&path, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        remove_partitions(&dir, 1).unwrap();
    }
}
