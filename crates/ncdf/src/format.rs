//! Binary encoding/decoding of the NetCDF classic format.
//!
//! Reference: the NetCDF "classic format spec" (CDF-1/CDF-2). Everything is
//! big-endian; names and payloads are zero-padded to 4-byte boundaries;
//! fixed variables live at absolute `begin` offsets followed by the record
//! section, in which each record holds one slab per record variable (with
//! the classic special case: a *single* record variable's records are
//! packed without inter-record padding).

use crate::model::{DimId, NcAttr, NcDim, NcFile, NcType, NcValues, NcVar};

/// Magic bytes: `CDF`.
pub const MAGIC: &[u8; 3] = b"CDF";

const TAG_DIMENSION: u32 = 0x0A;
const TAG_VARIABLE: u32 = 0x0B;
const TAG_ATTRIBUTE: u32 = 0x0C;

/// Errors from the NetCDF model or codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NcError {
    /// Buffer ended early or a length field overruns it.
    Truncated,
    /// Not a `CDF` file.
    BadMagic,
    /// Version byte other than 1 or 2.
    BadVersion(u8),
    /// Unexpected list tag.
    BadTag(u32),
    /// Unknown external type tag.
    BadType(u32),
    /// A name is not valid UTF-8.
    BadUtf8,
    /// Payload type differs from the declared variable/attribute type.
    TypeMismatch,
    /// Payload length differs from the declared shape.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements supplied.
        actual: usize,
    },
    /// Reference to an undefined dimension.
    UnknownDim,
    /// Reference to an undefined variable.
    UnknownVar,
    /// The record dimension must be a variable's first dimension.
    RecordDimNotFirst,
    /// Only one record dimension is allowed.
    MultipleRecordDims,
    /// `put_values` called on a record variable.
    RecordVarNeedsRecords,
    /// `append_record` did not cover every record variable exactly once.
    IncompleteRecord,
    /// Structural inconsistency while decoding.
    Corrupt(&'static str),
}

impl std::fmt::Display for NcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NcError::Truncated => write!(f, "file truncated"),
            NcError::BadMagic => write!(f, "not a NetCDF classic file"),
            NcError::BadVersion(v) => write!(f, "unsupported CDF version {v}"),
            NcError::BadTag(t) => write!(f, "unexpected list tag {t:#x}"),
            NcError::BadType(t) => write!(f, "unknown external type {t}"),
            NcError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            NcError::TypeMismatch => write!(f, "value type mismatch"),
            NcError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            NcError::UnknownDim => write!(f, "unknown dimension id"),
            NcError::UnknownVar => write!(f, "unknown variable id"),
            NcError::RecordDimNotFirst => write!(f, "record dimension must be outermost"),
            NcError::MultipleRecordDims => write!(f, "only one record dimension is allowed"),
            NcError::RecordVarNeedsRecords => {
                write!(f, "use append_record for record variables")
            }
            NcError::IncompleteRecord => {
                write!(f, "append_record must cover every record variable once")
            }
            NcError::Corrupt(what) => write!(f, "corrupt file: {what}"),
        }
    }
}

impl std::error::Error for NcError {}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn name(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        for _ in s.len()..pad4(s.len()) {
            self.buf.push(0);
        }
    }
    fn values(&mut self, v: &NcValues) {
        let start = self.buf.len();
        match v {
            NcValues::Byte(xs) => {
                for &x in xs {
                    self.buf.push(x as u8);
                }
            }
            NcValues::Char(xs) => self.buf.extend_from_slice(xs),
            NcValues::Short(xs) => {
                for &x in xs {
                    self.buf.extend_from_slice(&x.to_be_bytes());
                }
            }
            NcValues::Int(xs) => {
                for &x in xs {
                    self.buf.extend_from_slice(&x.to_be_bytes());
                }
            }
            NcValues::Float(xs) => {
                for &x in xs {
                    self.buf.extend_from_slice(&x.to_be_bytes());
                }
            }
            NcValues::Double(xs) => {
                for &x in xs {
                    self.buf.extend_from_slice(&x.to_be_bytes());
                }
            }
        }
        let written = self.buf.len() - start;
        for _ in written..pad4(written) {
            self.buf.push(0);
        }
    }
    fn attr_list(&mut self, attrs: &[NcAttr]) {
        if attrs.is_empty() {
            self.u32(0);
            self.u32(0);
            return;
        }
        self.u32(TAG_ATTRIBUTE);
        self.u32(attrs.len() as u32);
        for a in attrs {
            self.name(&a.name);
            self.u32(a.values.nc_type().tag());
            self.u32(a.values.len() as u32);
            self.values(&a.values);
        }
    }
}

/// Unpadded byte size of one "slab": the full variable for fixed variables,
/// one record for record variables.
fn slab_bytes(file: &NcFile, var: &NcVar) -> usize {
    let elems: usize = var
        .dims
        .iter()
        .map(|d| file.dims[d.0].len)
        .filter(|&l| l > 0)
        .product::<usize>()
        .max(1);
    elems * var.nc_type.size()
}

fn is_record_var(file: &NcFile, var: &NcVar) -> bool {
    var.dims
        .first()
        .map(|d| file.dims[d.0].is_record())
        .unwrap_or(false)
}

/// Header size given an offset width (4 for CDF-1, 8 for CDF-2).
fn header_size(file: &NcFile, offset_width: usize) -> usize {
    let name_sz = |s: &str| 4 + pad4(s.len());
    let attrs_sz = |attrs: &[NcAttr]| -> usize {
        8 + attrs
            .iter()
            .map(|a| name_sz(&a.name) + 8 + pad4(a.values.len() * a.values.nc_type().size()))
            .sum::<usize>()
    };
    let mut sz = 4 + 4; // magic+version, numrecs
    sz += 8; // dim list tag+count (ABSENT is also 8 bytes)
    for d in &file.dims {
        sz += name_sz(&d.name) + 4;
    }
    sz += attrs_sz(&file.gatts);
    sz += 8; // var list tag+count
    for v in &file.vars {
        sz += name_sz(&v.name) + 4 + 4 * v.dims.len();
        sz += attrs_sz(&v.attrs);
        sz += 4 + 4 + offset_width; // nc_type, vsize, begin
    }
    sz
}

/// Encode to classic bytes. Chooses CDF-1 unless any offset needs 64 bits.
pub fn encode(file: &NcFile) -> Result<Vec<u8>, NcError> {
    validate(file)?;

    let fixed: Vec<usize> = (0..file.vars.len())
        .filter(|&i| !is_record_var(file, &file.vars[i]))
        .collect();
    let record: Vec<usize> = (0..file.vars.len())
        .filter(|&i| is_record_var(file, &file.vars[i]))
        .collect();

    // Decide version by laying out with 4-byte offsets first.
    let mut version = 1u8;
    let mut begins = vec![0u64; file.vars.len()];
    for pass in 0..2 {
        let width = if version == 1 { 4 } else { 8 };
        let mut off = header_size(file, width) as u64;
        for &i in &fixed {
            begins[i] = off;
            off += pad4(slab_bytes(file, &file.vars[i])) as u64;
        }
        for &i in &record {
            begins[i] = off;
            off += if record.len() == 1 {
                slab_bytes(file, &file.vars[i]) as u64
            } else {
                pad4(slab_bytes(file, &file.vars[i])) as u64
            };
        }
        let record_stride: u64 = record
            .iter()
            .map(|&i| {
                if record.len() == 1 {
                    slab_bytes(file, &file.vars[i]) as u64
                } else {
                    pad4(slab_bytes(file, &file.vars[i])) as u64
                }
            })
            .sum();
        let end = begins
            .iter()
            .copied()
            .max()
            .unwrap_or(off)
            .max(off + record_stride * file.numrecs.saturating_sub(1) as u64);
        if version == 1 && end > i32::MAX as u64 {
            version = 2;
            continue; // relayout with 8-byte offsets
        }
        let _ = pass;
        break;
    }

    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u8(version);
    w.u32(file.numrecs as u32);

    // dim list
    if file.dims.is_empty() {
        w.u32(0);
        w.u32(0);
    } else {
        w.u32(TAG_DIMENSION);
        w.u32(file.dims.len() as u32);
        for d in &file.dims {
            w.name(&d.name);
            w.u32(d.len as u32);
        }
    }

    w.attr_list(&file.gatts);

    // var list
    if file.vars.is_empty() {
        w.u32(0);
        w.u32(0);
    } else {
        w.u32(TAG_VARIABLE);
        w.u32(file.vars.len() as u32);
        for (i, v) in file.vars.iter().enumerate() {
            w.name(&v.name);
            w.u32(v.dims.len() as u32);
            for d in &v.dims {
                w.u32(d.0 as u32);
            }
            w.attr_list(&v.attrs);
            w.u32(v.nc_type.tag());
            let vsize = if is_record_var(file, v) && record.len() == 1 {
                // Spec: single record variable may carry unpadded vsize.
                slab_bytes(file, v)
            } else {
                pad4(slab_bytes(file, v))
            };
            w.u32(vsize.min(u32::MAX as usize) as u32);
            if version == 1 {
                w.u32(begins[i] as u32);
            } else {
                w.u64(begins[i]);
            }
        }
    }

    debug_assert_eq!(
        w.buf.len(),
        header_size(file, if version == 1 { 4 } else { 8 }),
        "header layout mismatch"
    );

    // Fixed variable data.
    for &i in &fixed {
        debug_assert_eq!(w.buf.len() as u64, begins[i]);
        w.values(&file.vars[i].data);
        // `values` pads to 4 already; pad4(slab) equals that.
    }

    // Record data: records interleaved across record variables.
    for rec in 0..file.numrecs {
        for &i in &record {
            let v = &file.vars[i];
            let slab_elems = slab_bytes(file, v) / v.nc_type.size();
            let start = rec * slab_elems;
            let end = start + slab_elems;
            let slice = slice_values(&v.data, start, end);
            if record.len() == 1 {
                // Packed: write without padding.
                let before = w.buf.len();
                w.values(&slice);
                w.buf.truncate(before + slab_bytes(file, v));
            } else {
                w.values(&slice);
            }
        }
    }

    Ok(w.buf)
}

fn slice_values(v: &NcValues, start: usize, end: usize) -> NcValues {
    match v {
        NcValues::Byte(xs) => NcValues::Byte(xs[start..end].to_vec()),
        NcValues::Char(xs) => NcValues::Char(xs[start..end].to_vec()),
        NcValues::Short(xs) => NcValues::Short(xs[start..end].to_vec()),
        NcValues::Int(xs) => NcValues::Int(xs[start..end].to_vec()),
        NcValues::Float(xs) => NcValues::Float(xs[start..end].to_vec()),
        NcValues::Double(xs) => NcValues::Double(xs[start..end].to_vec()),
    }
}

fn validate(file: &NcFile) -> Result<(), NcError> {
    if file.dims.iter().filter(|d| d.is_record()).count() > 1 {
        return Err(NcError::MultipleRecordDims);
    }
    for v in &file.vars {
        for (i, d) in v.dims.iter().enumerate() {
            let dim = file.dims.get(d.0).ok_or(NcError::UnknownDim)?;
            if dim.is_record() && i != 0 {
                return Err(NcError::RecordDimNotFirst);
            }
        }
        let expect = if is_record_var(file, v) {
            (slab_bytes(file, v) / v.nc_type.size()) * file.numrecs
        } else {
            slab_bytes(file, v) / v.nc_type.size()
        };
        if v.data.nc_type() != v.nc_type {
            return Err(NcError::TypeMismatch);
        }
        if v.data.len() != expect {
            return Err(NcError::LengthMismatch {
                expected: expect,
                actual: v.data.len(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Smallest encoded attribute: empty name (4-byte length), type tag and
/// element count.
const MIN_ATTR_BYTES: usize = 12;

impl<'a> Reader<'a> {
    /// Bytes left after the cursor; bounds every reserve a header field
    /// asks for.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], NcError> {
        if self.pos + n > self.buf.len() {
            return Err(NcError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, NcError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, NcError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, NcError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }
    fn name(&mut self) -> Result<String, NcError> {
        let len = self.u32()? as usize;
        let bytes = self.take(pad4(len))?;
        std::str::from_utf8(&bytes[..len])
            .map(str::to_owned)
            .map_err(|_| NcError::BadUtf8)
    }
    fn values(&mut self, t: NcType, n: usize) -> Result<NcValues, NcError> {
        self.values_inner(t, n, true)
    }

    /// Like [`values`](Self::values) but without consuming trailing padding
    /// — needed for packed single-record-variable data.
    fn values_exact(&mut self, t: NcType, n: usize) -> Result<NcValues, NcError> {
        self.values_inner(t, n, false)
    }

    fn values_inner(&mut self, t: NcType, n: usize, padded: bool) -> Result<NcValues, NcError> {
        let nbytes = n * t.size();
        let raw = self.take(if padded { pad4(nbytes) } else { nbytes })?;
        let raw = &raw[..nbytes];
        Ok(match t {
            NcType::Byte => NcValues::Byte(raw.iter().map(|&b| b as i8).collect()),
            NcType::Char => NcValues::Char(raw.to_vec()),
            NcType::Short => NcValues::Short(
                raw.chunks_exact(2)
                    .map(|c| i16::from_be_bytes([c[0], c[1]]))
                    .collect(),
            ),
            NcType::Int => NcValues::Int(
                raw.chunks_exact(4)
                    .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            NcType::Float => NcValues::Float(
                raw.chunks_exact(4)
                    .map(|c| f32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            NcType::Double => NcValues::Double(
                raw.chunks_exact(8)
                    .map(|c| f64::from_be_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            ),
        })
    }
    fn attr_list(&mut self) -> Result<Vec<NcAttr>, NcError> {
        let tag = self.u32()?;
        let count = self.u32()? as usize;
        if tag == 0 {
            if count != 0 {
                return Err(NcError::Corrupt("ABSENT list with nonzero count"));
            }
            return Ok(Vec::new());
        }
        if tag != TAG_ATTRIBUTE {
            return Err(NcError::BadTag(tag));
        }
        // Reserve no more entries than the remaining bytes can hold.
        let mut attrs = Vec::with_capacity(count.min(self.remaining() / MIN_ATTR_BYTES));
        for _ in 0..count {
            let name = self.name()?;
            let t = NcType::from_tag(self.u32()?).ok_or(NcError::BadType(0))?;
            let n = self.u32()? as usize;
            let values = self.values(t, n)?;
            attrs.push(NcAttr { name, values });
        }
        Ok(attrs)
    }
}

/// Decode classic bytes into an [`NcFile`].
pub fn decode(bytes: &[u8]) -> Result<NcFile, NcError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(3)? != MAGIC {
        return Err(NcError::BadMagic);
    }
    let version = r.u8()?;
    if version != 1 && version != 2 {
        return Err(NcError::BadVersion(version));
    }
    let numrecs = r.u32()? as usize;

    // dims
    let tag = r.u32()?;
    let count = r.u32()? as usize;
    let mut dims = Vec::new();
    match tag {
        0 if count == 0 => {}
        TAG_DIMENSION => {
            for _ in 0..count {
                let name = r.name()?;
                let len = r.u32()? as usize;
                dims.push(NcDim { name, len });
            }
        }
        t => return Err(NcError::BadTag(t)),
    }

    let gatts = r.attr_list()?;

    // vars
    let tag = r.u32()?;
    let count = r.u32()? as usize;
    struct VarHdr {
        var: NcVar,
        begin: u64,
    }
    let mut hdrs: Vec<VarHdr> = Vec::new();
    match tag {
        0 if count == 0 => {}
        TAG_VARIABLE => {
            for _ in 0..count {
                let name = r.name()?;
                let rank = r.u32()? as usize;
                let mut vdims = Vec::with_capacity(rank.min(r.remaining() / 4));
                for _ in 0..rank {
                    let id = r.u32()? as usize;
                    if id >= dims.len() {
                        return Err(NcError::UnknownDim);
                    }
                    vdims.push(DimId(id));
                }
                let attrs = r.attr_list()?;
                let t = r.u32()?;
                let nc_type = NcType::from_tag(t).ok_or(NcError::BadType(t))?;
                let _vsize = r.u32()?;
                let begin = if version == 1 {
                    r.u32()? as u64
                } else {
                    r.u64()?
                };
                hdrs.push(VarHdr {
                    var: NcVar {
                        name,
                        dims: vdims,
                        attrs,
                        nc_type,
                        data: NcValues::empty(nc_type),
                    },
                    begin,
                });
            }
        }
        t => return Err(NcError::BadTag(t)),
    }

    // Assemble a file skeleton so slab arithmetic can reuse model helpers.
    let mut file = NcFile {
        dims,
        gatts,
        vars: hdrs.iter().map(|h| h.var.clone()).collect(),
        numrecs,
    };

    // Read fixed variables.
    for (i, h) in hdrs.iter().enumerate() {
        if is_record_var(&file, &file.vars[i]) {
            continue;
        }
        let nbytes = slab_bytes(&file, &file.vars[i]);
        let start = h.begin as usize;
        if start + nbytes > bytes.len() {
            return Err(NcError::Truncated);
        }
        let mut rr = Reader {
            buf: bytes,
            pos: start,
        };
        let elems = nbytes / file.vars[i].nc_type.size();
        file.vars[i].data = rr.values(file.vars[i].nc_type, elems)?;
    }

    // Read record variables.
    let record: Vec<usize> = (0..file.vars.len())
        .filter(|&i| is_record_var(&file, &file.vars[i]))
        .collect();
    if !record.is_empty() {
        let single = record.len() == 1;
        let stride: usize = record
            .iter()
            .map(|&i| {
                let s = slab_bytes(&file, &file.vars[i]);
                if single {
                    s
                } else {
                    pad4(s)
                }
            })
            .sum();
        let base = hdrs[record[0]].begin as usize;
        for rec in 0..numrecs {
            let mut off = base + rec * stride;
            for &i in &record {
                let nbytes = slab_bytes(&file, &file.vars[i]);
                if off + nbytes > bytes.len() {
                    return Err(NcError::Truncated);
                }
                let mut rr = Reader {
                    buf: bytes,
                    pos: off,
                };
                let elems = nbytes / file.vars[i].nc_type.size();
                let slab = if single {
                    rr.values_exact(file.vars[i].nc_type, elems)?
                } else {
                    rr.values(file.vars[i].nc_type, elems)?
                };
                file.vars[i].data.extend_from(&slab)?;
                off += if single { nbytes } else { pad4(nbytes) };
            }
        }
    }

    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NcFile, NcType, NcValues};

    fn sample() -> NcFile {
        let mut f = NcFile::new();
        let y = f.add_dim("y", 2);
        let x = f.add_dim("x", 3);
        f.add_global_attr("title", NcValues::text("test file"));
        f.add_global_attr("version", NcValues::Int(vec![3]));
        let v = f.add_var("temp", NcType::Float, vec![y, x]).unwrap();
        f.add_var_attr(v, "units", NcValues::text("K")).unwrap();
        f.put_values(v, NcValues::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
            .unwrap();
        let m = f.add_var("mask", NcType::Byte, vec![y, x]).unwrap();
        f.put_values(m, NcValues::Byte(vec![0, 1, 0, 1, 1, 0]))
            .unwrap();
        let s = f.add_var("scalar", NcType::Double, vec![]).unwrap();
        f.put_values(s, NcValues::Double(vec![2.5])).unwrap();
        f
    }

    #[test]
    fn header_starts_with_cdf1_magic() {
        let bytes = sample().encode().unwrap();
        assert_eq!(&bytes[..3], b"CDF");
        assert_eq!(bytes[3], 1);
        // numrecs (no record dim) is 0.
        assert_eq!(&bytes[4..8], &[0, 0, 0, 0]);
        // dim list tag 0x0A, count 2.
        assert_eq!(&bytes[8..12], &[0, 0, 0, 0x0A]);
        assert_eq!(&bytes[12..16], &[0, 0, 0, 2]);
        // first dim name: len 1, "y" padded to 4, len 2.
        assert_eq!(&bytes[16..20], &[0, 0, 0, 1]);
        assert_eq!(&bytes[20..24], b"y\0\0\0");
        assert_eq!(&bytes[24..28], &[0, 0, 0, 2]);
    }

    #[test]
    fn fixed_round_trip() {
        let f = sample();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn record_round_trip_multiple_vars() {
        let mut f = NcFile::new();
        let t = f.add_record_dim("tile").unwrap();
        let b = f.add_dim("band", 3);
        let rad = f.add_var("rad", NcType::Float, vec![t, b]).unwrap();
        let lab = f.add_var("label", NcType::Int, vec![t]).unwrap();
        let flag = f.add_var("flag", NcType::Byte, vec![t]).unwrap();
        for i in 0..5 {
            f.append_record(vec![
                (
                    rad,
                    NcValues::Float(vec![i as f32, i as f32 + 0.5, -(i as f32)]),
                ),
                (lab, NcValues::Int(vec![i * 10])),
                (flag, NcValues::Byte(vec![(i % 2) as i8])),
            ])
            .unwrap();
        }
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.numrecs, 5);
        assert_eq!(
            back.var_by_name("label")
                .unwrap()
                .data
                .as_i32()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn record_round_trip_single_var_packed() {
        // Single record variable: records are packed with no padding even
        // when a record is not a multiple of 4 bytes (3 × i8 here).
        let mut f = NcFile::new();
        let t = f.add_record_dim("t").unwrap();
        let c = f.add_dim("c", 3);
        let v = f.add_var("v", NcType::Byte, vec![t, c]).unwrap();
        for i in 0..4i8 {
            f.append_record(vec![(v, NcValues::Byte(vec![i, i + 1, i + 2]))])
                .unwrap();
        }
        let bytes = f.encode().unwrap();
        let back = NcFile::decode(&bytes).unwrap();
        assert_eq!(back, f);
        // Data section is exactly 12 bytes (no padding) after the header.
        let header = bytes.len() - 12;
        assert_eq!(&bytes[header..], &[0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5]);
    }

    #[test]
    fn empty_file_round_trip() {
        let f = NcFile::new();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn all_types_round_trip() {
        let mut f = NcFile::new();
        let n = f.add_dim("n", 2);
        let specs: Vec<(&str, NcValues)> = vec![
            ("b", NcValues::Byte(vec![-1, 2])),
            ("c", NcValues::Char(vec![b'h', b'i'])),
            ("s", NcValues::Short(vec![-300, 300])),
            ("i", NcValues::Int(vec![-70000, 70000])),
            ("f", NcValues::Float(vec![1.5, -2.5])),
            ("d", NcValues::Double(vec![1e-300, 1e300])),
        ];
        for (name, vals) in &specs {
            let v = f.add_var(*name, vals.nc_type(), vec![n]).unwrap();
            f.put_values(v, vals.clone()).unwrap();
        }
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(NcFile::decode(b"NOTCDF"), Err(NcError::BadMagic));
        assert_eq!(NcFile::decode(b"CDF\x05"), Err(NcError::BadVersion(5)));
        assert_eq!(NcFile::decode(b"CD"), Err(NcError::Truncated));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample().encode().unwrap();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(NcFile::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn encode_validates_data_length() {
        let mut f = NcFile::new();
        let x = f.add_dim("x", 3);
        let v = f.add_var("v", NcType::Int, vec![x]).unwrap();
        // Bypass put_values to plant bad data.
        f.vars[v.0].data = NcValues::Int(vec![1]);
        assert_eq!(
            f.encode().unwrap_err(),
            NcError::LengthMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn char_attr_padding_round_trips() {
        // Names/values with every padding residue.
        for len in 1..9 {
            let mut f = NcFile::new();
            let text: String = "x".repeat(len);
            f.add_global_attr(text.clone(), NcValues::text(&text));
            let back = NcFile::decode(&f.encode().unwrap()).unwrap();
            assert_eq!(back.gatts[0].name, text);
            assert_eq!(back.gatts[0].values.as_text(), Some(text.as_str()));
        }
    }

    #[test]
    fn scalar_variable_round_trips() {
        let mut f = NcFile::new();
        let v = f.add_var("pi", NcType::Double, vec![]).unwrap();
        f.put_values(v, NcValues::Double(vec![std::f64::consts::PI]))
            .unwrap();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(
            back.var_by_name("pi").unwrap().data.as_f64().unwrap()[0],
            std::f64::consts::PI
        );
    }

    #[test]
    fn header_counts_do_not_drive_reserves() {
        // Counts near u32::MAX in a few dozen bytes must fail as truncated
        // input, not reserve gigabytes.
        let be = |v: u32| v.to_be_bytes();
        let mut head = b"CDF\x01".to_vec();
        head.extend(be(0)); // numrecs
        head.extend(be(0).iter().chain(&be(0))); // no dims
        let mut gatts = head.clone();
        gatts.extend(be(TAG_ATTRIBUTE).iter().chain(&be(u32::MAX - 3)));
        assert_eq!(decode(&gatts).unwrap_err(), NcError::Truncated);

        let mut rank = head;
        rank.extend(be(0).iter().chain(&be(0))); // no global attrs
        rank.extend(be(TAG_VARIABLE).iter().chain(&be(1)));
        rank.extend(be(1).iter().chain(b"v\0\0\0")); // name "v"
        rank.extend(be(u32::MAX)); // rank
        assert_eq!(decode(&rank).unwrap_err(), NcError::Truncated);
    }
}
