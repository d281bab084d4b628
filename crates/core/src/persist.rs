//! Expert Map Store persistence.
//!
//! The paper's offline mode (§6.1) pre-populates the store from historical
//! serving before evaluation — which presumes the store survives between
//! serving sessions. This module gives it a durable form: a small,
//! versioned, little-endian binary format holding each entry's semantic
//! embedding and expert map at fp32 (the same precision the paper's NumPy
//! implementation stores, and the layout `ExpertMapStore::memory_bytes`
//! accounts for).
//!
//! Layout:
//!
//! ```text
//! magic    b"FMOE"                      4 bytes
//! version  u32                          4
//! capacity u64, layers u32, experts u32, prefetch_distance u32
//! entries  u64
//! per entry:
//!   embedding_len u32, embedding [f32] ...
//!   map [f32; layers*experts]
//! ```
//!
//! All multi-byte values are little-endian. Loading validates the magic,
//! version and dimensions and fails with `InvalidData` on any mismatch —
//! a truncated or corrupted store must never load partially. Every
//! `embedding_len` must be the same nonzero value: a store holds
//! embeddings of one dimension.
//!
//! ```
//! use fmoe::map::ExpertMap;
//! use fmoe::store::ExpertMapStore;
//!
//! let mut store = ExpertMapStore::new(16, 2, 2, 1);
//! store.insert(vec![1.0, 0.0], ExpertMap::new(vec![vec![0.9, 0.1], vec![0.2, 0.8]])).unwrap();
//! let mut bytes = Vec::new();
//! store.save_to(&mut bytes).unwrap();
//! let loaded = ExpertMapStore::load_from(&mut bytes.as_slice()).unwrap();
//! assert_eq!(loaded.len(), 1);
//! ```

use crate::map::ExpertMap;
use crate::store::ExpertMapStore;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"FMOE";
const VERSION: u32 = 1;
/// Plausibility cap on the values one embedding or one map may declare.
const MAX_VALUES: usize = 1 << 20;
/// Plausibility cap on a loaded store's capacity. It fits a 32-bit
/// `usize`, and with maps and embeddings both within [`MAX_VALUES`] the
/// footprint at capacity (`ExpertMapStore::memory_bytes_at_capacity`)
/// stays below 2^55 bytes.
const MAX_CAPACITY: u64 = u32::MAX as u64;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ExpertMapStore {
    /// Serializes the store to a writer in the versioned binary format.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn save_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;
        write_u64(w, self.capacity() as u64)?;
        write_u32(w, self.num_layers() as u32)?;
        write_u32(w, self.experts_per_layer() as u32)?;
        write_u32(w, self.prefetch_distance())?;
        write_u64(w, self.len() as u64)?;
        for entry in self.entries() {
            write_u32(w, entry.embedding().len() as u32)?;
            for &x in entry.embedding() {
                write_f32(w, x as f32)?;
            }
            for l in 0..self.num_layers() {
                for &p in entry.layer(l) {
                    write_f32(w, p as f32)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a store previously written by [`Self::save_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic/version, inconsistent dimensions
    /// (embeddings of differing or zero length included), or a truncated
    /// stream; other I/O errors are propagated.
    pub fn load_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("not an Expert Map Store file (bad magic)"));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(invalid(format!("unsupported store version {version}")));
        }
        let capacity = read_u64(r)?;
        let layers = read_u32(r)? as usize;
        let experts = read_u32(r)? as usize;
        let distance = read_u32(r)?;
        if capacity == 0 || layers == 0 || experts == 0 {
            return Err(invalid("zero dimension in store header"));
        }
        if capacity > MAX_CAPACITY {
            return Err(invalid(format!("implausible store capacity {capacity}")));
        }
        let capacity = capacity as usize;
        // Checked before the store is built: `new` allocates per layer.
        if layers.saturating_mul(experts) > MAX_VALUES {
            return Err(invalid("implausible map dimensions"));
        }
        let count = read_u64(r)? as usize;
        if count > capacity {
            return Err(invalid(format!(
                "store claims {count} entries but capacity is {capacity}"
            )));
        }
        let mut store = ExpertMapStore::new(capacity, layers, experts, distance);
        for _ in 0..count {
            let emb_len = read_u32(r)? as usize;
            if emb_len > MAX_VALUES {
                return Err(invalid("implausible embedding length"));
            }
            let mut embedding = Vec::with_capacity(emb_len);
            for _ in 0..emb_len {
                embedding.push(f64::from(read_f32(r)?));
            }
            // Grows as values arrive, so a corrupt header cannot force a
            // huge allocation before the stream runs out.
            let flat = (0..layers * experts)
                .map(|_| read_f32(r).map(f64::from))
                .collect::<io::Result<Vec<f64>>>()?;
            store
                .insert(embedding, ExpertMap::from_flat(flat, experts))
                .map_err(|e| invalid(e.to_string()))?;
        }
        Ok(store)
    }

    /// Saves the store to a file path.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.save_to(&mut file)
    }

    /// Loads a store from a file path.
    ///
    /// # Errors
    ///
    /// Propagates open/read errors; `InvalidData` on format problems.
    pub fn load_from_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ExpertMap;

    fn sample_store(entries: usize) -> ExpertMapStore {
        let mut s = ExpertMapStore::new(64, 3, 4, 2);
        for i in 0..entries {
            let emb = vec![i as f64 * 0.5, 1.0 - i as f64 * 0.1, 0.25];
            let rows: Vec<Vec<f64>> = (0..3)
                .map(|l| {
                    let mut row = vec![0.1; 4];
                    row[(i + l) % 4] = 0.7;
                    row
                })
                .collect();
            s.insert(emb, ExpertMap::new(rows)).unwrap();
        }
        s
    }

    #[test]
    fn round_trip_preserves_entries() {
        let store = sample_store(5);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.capacity(), store.capacity());
        for (a, b) in store.entries().zip(loaded.entries()) {
            // fp32 quantization on disk: compare at f32 precision.
            for (x, y) in a.embedding().iter().zip(b.embedding()) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
            for (x, y) in a.to_map().flat().iter().zip(b.to_map().flat()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ExpertMapStore::new(8, 2, 2, 1);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.capacity(), 8);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        sample_store(2).save_to(&mut buf).unwrap();
        buf[0] = b'X';
        let err = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        sample_store(2).save_to(&mut buf).unwrap();
        buf[4] = 99;
        let err = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A header with no entries: magic, version, the given capacity and
    /// map dimensions, and distance 1.
    fn header(capacity: u64, layers: u32, experts: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&capacity.to_le_bytes());
        buf.extend_from_slice(&layers.to_le_bytes());
        buf.extend_from_slice(&experts.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf
    }

    #[test]
    fn implausible_map_dimensions_are_rejected() {
        let buf = header(64, 65_536, 65_536);
        assert_eq!(buf.len(), 36);
        let err = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(ExpertMapStore::load_from(&mut header(64, u32::MAX, 1).as_slice()).is_err());
        // The largest plausible shape still loads.
        let store =
            ExpertMapStore::load_from(&mut header(64, 1 << 10, 1 << 10).as_slice()).unwrap();
        assert_eq!(store.num_layers() * store.experts_per_layer(), MAX_VALUES);
    }

    #[test]
    fn implausible_capacity_is_rejected() {
        for capacity in [1 << 62, u64::MAX, MAX_CAPACITY + 1] {
            let err =
                ExpertMapStore::load_from(&mut header(capacity, 8, 8).as_slice()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "capacity {capacity}"
            );
        }
        // The largest plausible capacity loads, and its footprint at the
        // largest plausible shape is computed without overflow.
        let store =
            ExpertMapStore::load_from(&mut header(MAX_CAPACITY, 1 << 10, 1 << 10).as_slice())
                .unwrap();
        assert_eq!(store.capacity() as u64, MAX_CAPACITY);
        assert_eq!(
            store.memory_bytes_at_capacity(MAX_VALUES),
            MAX_CAPACITY * (2 * MAX_VALUES as u64) * 4
        );
    }

    /// `lens.len()` entries of a 2 × 2 store, entry `k` with an
    /// embedding of `lens[k]` values.
    fn stream_with_embedding_lens(lens: &[u32]) -> Vec<u8> {
        let mut buf = header(8, 2, 2);
        buf[28..36].copy_from_slice(&(lens.len() as u64).to_le_bytes());
        for &len in lens {
            buf.extend_from_slice(&len.to_le_bytes());
            for k in 0..len + 4 {
                buf.extend_from_slice(&(0.25 * (k + 1) as f32).to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn embeddings_of_differing_or_zero_length_are_rejected() {
        let store =
            ExpertMapStore::load_from(&mut stream_with_embedding_lens(&[3, 3]).as_slice()).unwrap();
        assert_eq!(store.embedding_dim(), Some(3));
        for lens in [&[3, 2][..], &[2, 3, 3], &[0], &[3, 0]] {
            let err = ExpertMapStore::load_from(&mut stream_with_embedding_lens(lens).as_slice())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{lens:?}");
        }
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut buf = Vec::new();
        sample_store(3).save_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(ExpertMapStore::load_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let store = sample_store(4);
        let dir = std::env::temp_dir().join("fmoe_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.fmoe");
        store.save_to_path(&path).unwrap();
        let loaded = ExpertMapStore::load_from_path(&path).unwrap();
        assert_eq!(loaded.len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wire_bytes_of_a_seeded_store_are_pinned() {
        // Twelve seeded inserts into capacity 8 (so four dedups), saved:
        // the FNV-1a hash of the bytes pins the persist and warm-state
        // wire format and the dedup's victims.
        let mut rng = fmoe_stats::SplitMix64::new(7);
        let mut s = ExpertMapStore::new(8, 3, 4, 2);
        for _ in 0..12 {
            let emb: Vec<f64> = (0..5).map(|_| rng.next_f64() - 0.5).collect();
            let rows: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..4).map(|_| rng.next_f64()).collect())
                .collect();
            s.insert(emb, ExpertMap::new(rows)).unwrap();
        }
        let mut buf = Vec::new();
        s.save_to(&mut buf).unwrap();
        let hash = buf.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(buf.len(), 36 + 8 * (4 + 5 * 4 + 12 * 4));
        assert_eq!(hash, 0xf9b9_baf3_1e95_79a8);
    }

    #[test]
    fn loaded_store_searches_like_the_original() {
        use crate::matcher::Matcher;
        let store = sample_store(6);
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap();
        let query = vec![0.5, 0.9, 0.25];
        let a = Matcher::semantic_match(&store, &query).unwrap().unwrap();
        let b = Matcher::semantic_match(&loaded, &query).unwrap().unwrap();
        assert_eq!(a.entry_index, b.entry_index);
        assert!((a.score - b.score).abs() < 1e-6);
    }
}
