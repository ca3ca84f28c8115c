//! Length-prefixed framing plus the little-endian byte codec the protocol
//! messages are built from.
//!
//! ```text
//! frame := len:u32le  body:[u8; len]      (len ≤ MAX_FRAME, len ≥ 1)
//! body  := type:u8  payload:…             (see crate::proto)
//! ```
//!
//! Frames are the unit of both parsing and backpressure accounting: the
//! server reads one frame at a time and answers it before reading the
//! next. `MAX_FRAME` caps a single allocation a remote peer can force.
//! [`read_frame`] and [`write_frame`] are the one blocking codec both the
//! server and [`WireClient`](crate::WireClient) speak through.

use std::io::{self, IoSlice, Read, Write};

/// Largest accepted frame body (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Reads one frame body (type byte + payload): `None` on a clean EOF at a
/// frame boundary. EOF inside a frame, and a length outside
/// `1..=MAX_FRAME`, are errors.
pub fn read_frame(mut input: impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match input.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(mid_frame_eof()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut body = vec![0u8; len];
    input.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => mid_frame_eof(),
        _ => e,
    })?;
    Ok(Some(body))
}

fn mid_frame_eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame")
}

/// Writes one frame (`body` must already start with its type byte).
/// Refuses (with `InvalidData`, nothing written) a body outside
/// `1..=MAX_FRAME` — the peer would kill the connection as a protocol
/// error anyway, so the oversize must be handled by the caller (the
/// server downgrades such responses to `Rejected`). The length prefix and
/// the body leave in gathering writes, with no copy of the body.
pub fn write_frame(mut out: impl Write, body: &[u8]) -> io::Result<()> {
    if body.is_empty() || body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes outside 1..={MAX_FRAME}", body.len()),
        ));
    }
    let len = (body.len() as u32).to_le_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(body)];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer took no bytes")),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Little-endian append-only encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Every `u32` of `vs`, into space sized once from the iterator's
    /// length. Panics if the iterator yields another number of values than
    /// it claimed.
    pub fn u32s(&mut self, vs: impl ExactSizeIterator<Item = u32>) -> &mut Self {
        let bytes = 4 * vs.len();
        let end = self.buf.len() + bytes;
        self.buf.reserve(bytes);
        vs.for_each(|v| self.buf.extend_from_slice(&v.to_le_bytes()));
        assert_eq!(
            self.buf.len(),
            end,
            "iterator yielded another number of values than its length"
        );
        self
    }

    /// Every `u64` of `ws`, little-endian, back to back.
    pub fn u64s(&mut self, ws: &[u64]) -> &mut Self {
        self.buf.reserve(8 * ws.len());
        ws.iter().for_each(|w| self.buf.extend_from_slice(&w.to_le_bytes()));
        self
    }

    /// Appends `n` zero bytes and returns them, to be filled in place.
    pub fn zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Bytes written so far — a position usable with
    /// [`Encoder::patch_u32`] to reserve a count field and fill it in
    /// once the count is known, without building the payload twice.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Overwrites the 4 bytes at `pos` (a former [`Encoder::position`]
    /// where a `u32` was written) with `v`, little-endian.
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A decode failure (malformed or truncated payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-style little-endian decoder over a received frame body.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// The next `n` bytes, bounds-checked once; a short payload is a
    /// truncation error.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_ref().map(str::to_owned)
    }

    /// A string borrowed from the payload, for a caller that only reads it.
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|e| DecodeError(format!("invalid UTF-8 string: {e}")))
    }

    /// Asserts the payload is fully consumed (catches version skew early).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(format!("{} trailing bytes after message", self.buf.len() - self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_decoder_round_trip() {
        let mut e = Encoder::new();
        e.u8(7).u16(513).u32(70_000).u64(1 << 40).str("héllo");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 513);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn patch_u32_rewrites_a_reserved_slot() {
        let mut e = Encoder::new();
        e.u8(0xAA);
        let pos = e.position();
        e.u32(0); // reserved
        e.u16(7);
        e.patch_u32(pos, 0xDEAD_BEEF);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 0xAA);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u16().unwrap(), 7);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_decode_error() {
        let mut e = Encoder::new();
        e.u32(10); // claims a 10-byte string with no bytes behind it
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert!(d.str().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Encoder::new();
        e.u8(1).u8(2);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_between_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0x10, 1, 2]).unwrap();
        write_frame(&mut wire, &[0x11]).unwrap();
        let mut input = &wire[..];
        assert_eq!(read_frame(&mut input).unwrap(), Some(vec![0x10, 1, 2]));
        assert_eq!(read_frame(&mut input).unwrap(), Some(vec![0x11]));
        assert_eq!(read_frame(&mut input).unwrap(), None);
        for cut in [2, 5] {
            let err = read_frame(&wire[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        assert!(write_frame(&mut Vec::new(), &[]).is_err());
        let zero = 0u32.to_le_bytes();
        assert_eq!(read_frame(&zero[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
