//! # retina-pcap
//!
//! Classic libpcap capture-file support (the `.pcap` format, magic
//! `0xa1b2c3d4`/`0xd4c3b2a1`, microsecond or nanosecond timestamps).
//!
//! Retina's offline mode "ingests a pcap instead of packets from the
//! network interface" (Appendix B). [`PcapReader`] yields timestamped
//! frames compatible with [`retina_core::offline::run_offline`] and
//! implements [`retina_core::TrafficSource`] for the full runtime;
//! [`PcapWriter`] lets the traffic generator persist synthetic traces.

#![warn(missing_docs)]
// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use retina_core::TrafficSource;
use retina_support::bytes::Bytes;

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_NS: u32 = 0xa1b2_3c4d;

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic number.
    BadMagic(u32),
    /// A record header is inconsistent (e.g. absurd capture length).
    Malformed(&'static str),
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap io error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#010x}"),
            PcapError::Malformed(what) => write!(f, "malformed pcap: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Maximum accepted per-packet capture length (sanity bound).
const MAX_SNAPLEN: u32 = 256 * 1024;

/// Streaming pcap reader.
pub struct PcapReader<R: Read> {
    input: R,
    swapped: bool,
    nanos: bool,
}

impl PcapReader<BufReader<File>> {
    /// Opens a pcap file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PcapError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> PcapReader<R> {
    /// Wraps a reader positioned at the start of a pcap stream.
    pub fn new(mut input: R) -> Result<Self, PcapError> {
        let mut header = [0u8; 24];
        input.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let (swapped, nanos) = match magic {
            MAGIC_US => (false, false),
            MAGIC_NS => (false, true),
            m if m.swap_bytes() == MAGIC_US => (true, false),
            m if m.swap_bytes() == MAGIC_NS => (true, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        Ok(PcapReader {
            input,
            swapped,
            nanos,
        })
    }

    fn read_u32(&mut self, buf: &[u8; 4]) -> u32 {
        let v = u32::from_le_bytes(*buf);
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// Reads the next frame: `(bytes, timestamp_ns)`. `Ok(None)` at EOF.
    pub fn next_packet(&mut self) -> Result<Option<(Bytes, u64)>, PcapError> {
        let mut rec = [0u8; 16];
        match self.input.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let ts_sec = self.read_u32(rec[0..4].try_into().unwrap());
        let ts_frac = self.read_u32(rec[4..8].try_into().unwrap());
        let incl_len = self.read_u32(rec[8..12].try_into().unwrap());
        if incl_len > MAX_SNAPLEN {
            return Err(PcapError::Malformed("capture length over bound"));
        }
        // Read straight into the frame's final allocation.
        let mut read = Ok(());
        let data = Bytes::build(incl_len as usize, |frame| {
            read = self.input.read_exact(frame);
        });
        read?;
        let frac_ns = if self.nanos {
            u64::from(ts_frac)
        } else {
            u64::from(ts_frac) * 1_000
        };
        let ts_ns = u64::from(ts_sec) * 1_000_000_000 + frac_ns;
        Ok(Some((data, ts_ns)))
    }

    /// Reads every remaining frame into memory.
    pub fn read_all(&mut self) -> Result<Vec<(Bytes, u64)>, PcapError> {
        let mut out = Vec::new();
        while let Some(pkt) = self.next_packet()? {
            out.push(pkt);
        }
        Ok(out)
    }
}

impl<R: Read + Send> TrafficSource for PcapReader<R> {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        for _ in 0..64 {
            match self.next_packet() {
                Ok(Some(pkt)) => out.push(pkt),
                Ok(None) => return !out.is_empty(),
                Err(_) => return !out.is_empty(),
            }
        }
        true
    }
}

/// Streaming pcap writer (nanosecond format).
pub struct PcapWriter<W: Write> {
    output: W,
}

impl PcapWriter<BufWriter<File>> {
    /// Creates (or truncates) a pcap file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, PcapError> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> PcapWriter<W> {
    /// Wraps a writer, emitting the global header immediately.
    pub fn new(mut output: W) -> Result<Self, PcapError> {
        output.write_all(&MAGIC_NS.to_le_bytes())?;
        output.write_all(&2u16.to_le_bytes())?; // version major
        output.write_all(&4u16.to_le_bytes())?; // version minor
        output.write_all(&0i32.to_le_bytes())?; // thiszone
        output.write_all(&0u32.to_le_bytes())?; // sigfigs
        output.write_all(&MAX_SNAPLEN.to_le_bytes())?; // snaplen
        output.write_all(&1u32.to_le_bytes())?; // linktype: Ethernet
        Ok(PcapWriter { output })
    }

    /// Appends one frame with a nanosecond timestamp.
    pub fn write_packet(&mut self, frame: &[u8], ts_ns: u64) -> Result<(), PcapError> {
        let sec = (ts_ns / 1_000_000_000) as u32;
        let nsec = (ts_ns % 1_000_000_000) as u32;
        self.output.write_all(&sec.to_le_bytes())?;
        self.output.write_all(&nsec.to_le_bytes())?;
        self.output.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.output.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.output.write_all(frame)?;
        Ok(())
    }

    /// Flushes buffered output.
    pub fn flush(&mut self) -> Result<(), PcapError> {
        self.output.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_wire::build::{build_udp, UdpSpec};

    fn sample_frames() -> Vec<(Vec<u8>, u64)> {
        (0..5u16)
            .map(|i| {
                let frame = build_udp(&UdpSpec {
                    src: format!("10.0.0.{}:1000", i + 1).parse().unwrap(),
                    dst: "8.8.8.8:53".parse().unwrap(),
                    ttl: 64,
                    payload: format!("packet-{i}").as_bytes(),
                });
                (frame, u64::from(i) * 1_000_000 + 42)
            })
            .collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for (frame, ts) in sample_frames() {
                w.write_packet(&frame, ts).unwrap();
            }
            w.flush().unwrap();
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let packets = r.read_all().unwrap();
        assert_eq!(packets.len(), 5);
        for ((frame, ts), (orig, ots)) in packets.iter().zip(sample_frames()) {
            assert_eq!(&frame[..], &orig[..]);
            assert_eq!(*ts, ots);
        }
    }

    #[test]
    fn microsecond_format_scales_timestamps() {
        // Hand-build a µs-format file with one 4-byte packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0; 12]);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes()); // sec
        buf.extend_from_slice(&7u32.to_le_bytes()); // usec
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(b"abcd");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let (frame, ts) = r.next_packet().unwrap().unwrap();
        assert_eq!(&frame[..], b"abcd");
        assert_eq!(ts, 3_000_000_000 + 7_000);
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn big_endian_file_supported() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_be_bytes());
        buf.extend_from_slice(&[0, 2, 0, 4]);
        buf.extend_from_slice(&[0; 12]);
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(b"xy");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let (frame, ts) = r.next_packet().unwrap().unwrap();
        assert_eq!(&frame[..], b"xy");
        assert_eq!(ts, 1_000_000_000);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&buf[..]),
            Err(PcapError::BadMagic(0))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let buf = [0u8; 10];
        assert!(matches!(PcapReader::new(&buf[..]), Err(PcapError::Io(_))));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0; 12]);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Malformed(_))));
    }

    #[test]
    fn frame_cut_short_is_an_io_error() {
        // The record promises 10 bytes; the file ends after 4.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0; 12]);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abcd");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Io(_))));
    }

    #[test]
    fn traffic_source_impl() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for (frame, ts) in sample_frames() {
                w.write_packet(&frame, ts).unwrap();
            }
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let mut out = Vec::new();
        assert!(r.next_batch(&mut out));
        assert_eq!(out.len(), 5);
        let mut out2 = Vec::new();
        assert!(!r.next_batch(&mut out2));
    }
}
