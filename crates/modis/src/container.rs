//! The `EOGR` granule container — this repository's stand-in for HDF4.
//!
//! Real MODIS granules are HDF4 files; implementing HDF4 would add nothing
//! to the experiments, so granules are serialized in a small self-describing
//! container that preserves what matters to the pipeline: named,
//! multi-dimensional, typed datasets with attributes and end-to-end
//! integrity checking (per-dataset CRC-32, which the download stage uses to
//! detect corrupted transfers).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "EOGR"            4 bytes
//! version u16               currently 1
//! n_attrs u16
//!   per attr: klen u16, key utf-8, vlen u32, value utf-8
//! n_datasets u16
//!   per dataset:
//!     nlen u16, name utf-8
//!     dtype u8 (0 = f32, 1 = u8, 2 = i32)
//!     ndims u8, dims u32 × ndims
//!     crc32 u32 (of the raw data bytes)
//!     data  (elem_size × Π dims bytes)
//! ```

use eoml_util::checksum::crc32_update;
use std::collections::BTreeMap;
use std::fmt;

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the workspace's one
/// implementation, re-exported where the container format names it.
pub use eoml_util::checksum::crc32;

/// Container format magic bytes.
pub const MAGIC: &[u8; 4] = b"EOGR";

/// Container format version.
pub const VERSION: u16 = 1;

/// Errors produced when decoding a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Buffer too short or a length field overruns it.
    Truncated,
    /// Magic bytes are not `EOGR`.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Attribute or dataset name is not valid UTF-8.
    BadUtf8,
    /// Unknown dtype tag.
    BadDtype(u8),
    /// A dataset's CRC-32 does not match its payload.
    ChecksumMismatch {
        /// Dataset whose checksum failed.
        dataset: String,
    },
    /// A dataset's declared shape implies a size that overflows.
    ShapeOverflow,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::BadMagic => write!(f, "bad magic (not an EOGR container)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            ContainerError::BadDtype(d) => write!(f, "unknown dtype tag {d}"),
            ContainerError::ChecksumMismatch { dataset } => {
                write!(f, "checksum mismatch in dataset {dataset:?}")
            }
            ContainerError::ShapeOverflow => write!(f, "dataset shape overflows"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Typed dataset payload.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// Unsigned bytes (masks, flags).
    U8(Vec<u8>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
}

impl DatasetData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DatasetData::F32(v) => v.len(),
            DatasetData::U8(v) => v.len(),
            DatasetData::I32(v) => v.len(),
        }
    }

    /// Whether the payload has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn dtype_tag(&self) -> u8 {
        match self {
            DatasetData::F32(_) => 0,
            DatasetData::U8(_) => 1,
            DatasetData::I32(_) => 2,
        }
    }

    fn elem_size(tag: u8) -> Option<usize> {
        match tag {
            0 => Some(4),
            1 => Some(1),
            2 => Some(4),
            _ => None,
        }
    }

    /// Payload size in bytes.
    fn byte_len(&self) -> usize {
        match self {
            DatasetData::F32(v) => 4 * v.len(),
            DatasetData::U8(v) => v.len(),
            DatasetData::I32(v) => 4 * v.len(),
        }
    }

    /// Append the little-endian payload to `out`; returns its CRC-32.
    fn write_le(&self, out: &mut Vec<u8>) -> u32 {
        match self {
            DatasetData::F32(v) => write_words(out, v, f32::to_le_bytes),
            DatasetData::U8(v) => write_words(out, v, |b| [b]),
            DatasetData::I32(v) => write_words(out, v, i32::to_le_bytes),
        }
    }

    fn from_bytes(tag: u8, bytes: &[u8]) -> Result<Self, ContainerError> {
        match tag {
            0 => Ok(DatasetData::F32(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            )),
            1 => Ok(DatasetData::U8(bytes.to_vec())),
            2 => Ok(DatasetData::I32(
                bytes
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            )),
            other => Err(ContainerError::BadDtype(other)),
        }
    }

    /// Borrow as `&[f32]`, if that is the payload type.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            DatasetData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[u8]`, if that is the payload type.
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            DatasetData::U8(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]`, if that is the payload type.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            DatasetData::I32(v) => Some(v),
            _ => None,
        }
    }
}

/// A named, shaped dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (e.g. `"radiance_b06"`).
    pub name: String,
    /// Dimension sizes, outermost first.
    pub dims: Vec<u32>,
    /// Payload; element count must equal the product of `dims`.
    pub data: DatasetData,
}

impl Dataset {
    /// Construct, asserting shape/payload agreement.
    pub fn new(name: impl Into<String>, dims: Vec<u32>, data: DatasetData) -> Self {
        let expect: usize = dims.iter().map(|&d| d as usize).product();
        assert_eq!(
            expect,
            data.len(),
            "dataset shape {dims:?} does not match payload length {}",
            data.len()
        );
        Self {
            name: name.into(),
            dims,
            data,
        }
    }
}

/// An in-memory granule container: string attributes plus datasets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Container {
    /// Global attributes (sorted map for deterministic serialization).
    pub attrs: BTreeMap<String, String>,
    /// Datasets in insertion order.
    pub datasets: Vec<Dataset>,
}

impl Container {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Append a dataset (builder style).
    pub fn with_dataset(mut self, ds: Dataset) -> Self {
        self.datasets.push(ds);
        self
    }

    /// Look up a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        for (k, v) in &self.attrs {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        out.extend_from_slice(&(self.datasets.len() as u16).to_le_bytes());
        for ds in &self.datasets {
            out.extend_from_slice(&(ds.name.len() as u16).to_le_bytes());
            out.extend_from_slice(ds.name.as_bytes());
            out.push(ds.data.dtype_tag());
            out.push(ds.dims.len() as u8);
            for &d in &ds.dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            // The CRC precedes the data it covers: reserve its slot and
            // patch it once the payload is written.
            let crc_at = out.len();
            out.extend_from_slice(&[0; 4]);
            let crc = ds.data.write_le(&mut out);
            out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Exact size of [`encode`](Self::encode)'s output.
    fn encoded_len(&self) -> usize {
        let attrs: usize = self
            .attrs
            .iter()
            .map(|(k, v)| 2 + k.len() + 4 + v.len())
            .sum();
        let datasets: usize = self
            .datasets
            .iter()
            .map(|ds| 2 + ds.name.len() + 2 + 4 * ds.dims.len() + 4 + ds.data.byte_len())
            .sum();
        MAGIC.len() + 2 + 2 + attrs + 2 + datasets
    }

    /// Deserialize and validate checksums.
    pub fn decode(buf: &[u8]) -> Result<Self, ContainerError> {
        let mut cur = Cursor { buf, pos: 0 };
        if cur.take(4)? != MAGIC {
            return Err(ContainerError::BadMagic);
        }
        let version = cur.u16()?;
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let n_attrs = cur.u16()?;
        let mut attrs = BTreeMap::new();
        for _ in 0..n_attrs {
            let klen = cur.u16()? as usize;
            let key = std::str::from_utf8(cur.take(klen)?)
                .map_err(|_| ContainerError::BadUtf8)?
                .to_string();
            let vlen = cur.u32()? as usize;
            let value = std::str::from_utf8(cur.take(vlen)?)
                .map_err(|_| ContainerError::BadUtf8)?
                .to_string();
            attrs.insert(key, value);
        }
        let n_datasets = cur.u16()?;
        // Every dataset header takes at least 8 bytes: bound the reserve
        // by what the buffer can hold, not by the header's claim.
        let mut datasets = Vec::with_capacity((n_datasets as usize).min(cur.remaining() / 8));
        for _ in 0..n_datasets {
            let nlen = cur.u16()? as usize;
            let name = std::str::from_utf8(cur.take(nlen)?)
                .map_err(|_| ContainerError::BadUtf8)?
                .to_string();
            let dtype = cur.u8()?;
            let elem = DatasetData::elem_size(dtype).ok_or(ContainerError::BadDtype(dtype))?;
            let ndims = cur.u8()? as usize;
            let mut dims = Vec::with_capacity(ndims);
            let mut count: usize = 1;
            for _ in 0..ndims {
                let d = cur.u32()?;
                count = count
                    .checked_mul(d as usize)
                    .ok_or(ContainerError::ShapeOverflow)?;
                dims.push(d);
            }
            let expected_crc = cur.u32()?;
            let nbytes = count
                .checked_mul(elem)
                .ok_or(ContainerError::ShapeOverflow)?;
            let bytes = cur.take(nbytes)?;
            if crc32(bytes) != expected_crc {
                return Err(ContainerError::ChecksumMismatch { dataset: name });
            }
            let data = DatasetData::from_bytes(dtype, bytes)?;
            datasets.push(Dataset { name, dims, data });
        }
        Ok(Self { attrs, datasets })
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if self.pos + n > self.buf.len() {
            return Err(ContainerError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ContainerError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ContainerError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Append `words` to `out` as `N`-byte little-endian groups and return
/// their CRC-32. Written and checksummed block by block, so each block is
/// still in cache when the CRC reads it back.
fn write_words<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    words: &[T],
    le: impl Fn(T) -> [u8; N],
) -> u32 {
    const BLOCK_BYTES: usize = 32 * 1024;
    let mut crc = 0;
    for block in words.chunks(BLOCK_BYTES / N) {
        let start = out.len();
        out.resize(start + N * block.len(), 0);
        for (dst, &w) in out[start..].chunks_exact_mut(N).zip(block) {
            dst.copy_from_slice(&le(w));
        }
        crc = crc32_update(crc, &out[start..]);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Container {
        Container::new()
            .with_attr("platform", "Terra")
            .with_attr("granule", "MOD.A2022001.0005")
            .with_dataset(Dataset::new(
                "radiance_b06",
                vec![2, 3],
                DatasetData::F32(vec![1.0, 2.5, -3.0, 0.0, 1e-9, 42.0]),
            ))
            .with_dataset(Dataset::new(
                "cloud_mask",
                vec![2, 3],
                DatasetData::U8(vec![0, 1, 1, 0, 0, 1]),
            ))
            .with_dataset(Dataset::new(
                "counts",
                vec![3],
                DatasetData::I32(vec![-1, 0, 7]),
            ))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let bytes = c.encode();
        let back = Container::decode(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Container::decode(&bytes), Err(ContainerError::BadMagic));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::BadVersion(99))
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample().encode();
        for cut in [0, 3, 5, 10, bytes.len() - 1] {
            let res = Container::decode(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_detects_payload_corruption() {
        let c = sample();
        let bytes = c.encode();
        // Flip a byte inside the f32 payload (near the end of the first
        // dataset region). Find the radiance data by scanning for the name.
        let name_pos = bytes
            .windows(12)
            .position(|w| w == b"radiance_b06")
            .unwrap();
        // name + dtype(1) + ndims(1) + dims(8) + crc(4) then data
        let data_pos = name_pos + 12 + 1 + 1 + 8 + 4;
        let mut corrupted = bytes.clone();
        corrupted[data_pos] ^= 0xFF;
        match Container::decode(&corrupted) {
            Err(ContainerError::ChecksumMismatch { dataset }) => {
                assert_eq!(dataset, "radiance_b06");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn dataset_lookup() {
        let c = sample();
        assert!(c.dataset("cloud_mask").is_some());
        assert!(c.dataset("nope").is_none());
        let ds = c.dataset("counts").unwrap();
        assert_eq!(ds.data.as_i32(), Some(&[-1, 0, 7][..]));
        assert_eq!(ds.data.as_f32(), None);
    }

    #[test]
    #[should_panic(expected = "does not match payload length")]
    fn dataset_shape_mismatch_panics() {
        Dataset::new("x", vec![2, 2], DatasetData::U8(vec![1, 2, 3]));
    }

    #[test]
    fn empty_container_round_trip() {
        let c = Container::new();
        let back = Container::decode(&c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn unicode_attrs_round_trip() {
        let c = Container::new().with_attr("τ", "café ☁");
        let back = Container::decode(&c.encode()).unwrap();
        assert_eq!(back.attrs["τ"], "café ☁");
    }

    /// The container layout written field by field, the payload converted
    /// in one piece and checksummed afterwards.
    fn reference_encode(c: &Container) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(c.attrs.len() as u16).to_le_bytes());
        for (k, v) in &c.attrs {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        out.extend_from_slice(&(c.datasets.len() as u16).to_le_bytes());
        for ds in &c.datasets {
            out.extend_from_slice(&(ds.name.len() as u16).to_le_bytes());
            out.extend_from_slice(ds.name.as_bytes());
            out.push(ds.data.dtype_tag());
            out.push(ds.dims.len() as u8);
            for &d in &ds.dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            let bytes: Vec<u8> = match &ds.data {
                DatasetData::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
                DatasetData::U8(v) => v.clone(),
                DatasetData::I32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            };
            out.extend_from_slice(&crc32(&bytes).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    #[test]
    fn encode_writes_the_reference_bytes_in_one_allocation() {
        // Payloads longer than one write block, of every dtype.
        let n: usize = 20_011;
        let c = sample()
            .with_dataset(Dataset::new(
                "long_f32",
                vec![n as u32],
                DatasetData::F32((0..n).map(|i| i as f32 * -0.37).collect()),
            ))
            .with_dataset(Dataset::new(
                "long_u8",
                vec![n as u32],
                DatasetData::U8((0..n).map(|i| (i * 7) as u8).collect()),
            ))
            .with_dataset(Dataset::new(
                "long_i32",
                vec![n as u32],
                DatasetData::I32((0..n as i32).map(|i| i * -3).collect()),
            ));
        let bytes = c.encode();
        assert_eq!(bytes, reference_encode(&c));
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "encode reserves the exact size"
        );
        assert_eq!(Container::decode(&bytes).unwrap(), c);
    }

    #[test]
    fn dataset_count_does_not_drive_the_reserve() {
        // A header claiming 65535 datasets in a 10-byte buffer is
        // truncated, not a large allocation.
        let mut bytes = Container::new().encode();
        let at = bytes.len() - 2;
        bytes[at..].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(Container::decode(&bytes), Err(ContainerError::Truncated));
    }
}
