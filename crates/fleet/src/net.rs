//! The fleet's socket layer: blocking, deadline-bounded length-prefixed
//! frame I/O.
//!
//! This is the **designated transport module** of the fleet data path —
//! the only fleet file allowed to touch sockets (lint rule NW-S007
//! enforces this). A [`FrameConn`] owns a blocking stream, an input buffer
//! with a consumed-prefix offset (compacted once the prefix grows large)
//! and an outbox of queued frames. Framing is binary (length-prefixed, see
//! [`crate::frame`]) instead of serve's newline-JSON, so the machinery is
//! implemented here rather than imported — `nestwx-serve` depends on this
//! crate, not the reverse.
//!
//! Every call that can wait takes a deadline and blocks in the kernel with
//! `set_read_timeout`/`set_write_timeout` set to the time remaining, so a
//! waiter wakes as soon as bytes arrive and never sleeps past data. A
//! socket timeout (`WouldBlock`/`TimedOut`) and an already-expired
//! deadline both surface as [`TransportError::Timeout`]; the expiry check
//! comes first because the OS rejects a zero timeout. EOF is recorded as
//! state, not raised, so a peer's final frame still decodes. All deadline
//! checks go through the `nestwx_obs::clock` shim.

use crate::frame::{decode_frame, encode_frame, max_frame_bytes, Tag};
use nestwx_miniwrf::TransportError;
use nestwx_obs::clock;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Compact the input buffer once this many consumed bytes accumulate at
/// its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// One blocking framed connection with transfer counters.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    consumed: usize,
    outbuf: Vec<u8>,
    max_frame: usize,
    eof: bool,
    /// Peer address, for error messages.
    pub peer: String,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// Frames queued.
    pub frames_out: u64,
}

impl FrameConn {
    /// Wraps a connected stream in blocking mode (an accepted stream may
    /// inherit the listener's nonblocking flag on some platforms) and
    /// disables Nagle (halo frames are latency-critical and already
    /// batched).
    pub fn new(stream: TcpStream) -> Result<FrameConn, TransportError> {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        stream
            .set_nonblocking(false)
            .map_err(|e| TransportError::Closed(format!("set_nonblocking: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(FrameConn {
            stream,
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: Vec::new(),
            max_frame: max_frame_bytes(),
            eof: false,
            peer,
            bytes_in: 0,
            bytes_out: 0,
            frames_in: 0,
            frames_out: 0,
        })
    }

    /// Queues one frame for sending (no I/O; call [`FrameConn::flush_fully`]).
    pub fn queue(&mut self, tag: Tag, payload: &[u8]) {
        encode_frame(tag, payload, &mut self.outbuf);
        self.frames_out += 1;
    }

    /// Whether the peer has closed its sending side. Frames already
    /// buffered stay decodable; only *waiting* on an EOF'd connection with
    /// nothing decodable left is an error.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Time left before `deadline`, or a typed timeout once it has passed.
    fn time_left(&self, deadline: Instant, what: &str) -> Result<Duration, TransportError> {
        match clock::remaining(deadline) {
            Duration::ZERO => Err(TransportError::Timeout(format!(
                "{}: {what} before deadline",
                self.peer
            ))),
            left => Ok(left),
        }
    }

    /// Maps a socket error: an expired socket timeout is a `Timeout`,
    /// anything else means the connection is gone.
    fn io_error(&self, op: &str, e: std::io::Error) -> TransportError {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                TransportError::Timeout(format!("{}: {op} timed out", self.peer))
            }
            _ => TransportError::Closed(format!("{}: {op}: {e}", self.peer)),
        }
    }

    /// Writes the whole outbox, blocking until `deadline` at most. On
    /// failure the bytes already written leave the outbox, so the stream
    /// never repeats them.
    pub fn flush_fully(&mut self, deadline: Instant) -> Result<(), TransportError> {
        let mut sent = 0;
        let result = loop {
            if sent == self.outbuf.len() {
                break Ok(());
            }
            let left = match self.time_left(deadline, "outbox not drained") {
                Ok(left) => left,
                Err(e) => break Err(e),
            };
            if let Err(e) = self.stream.set_write_timeout(Some(left)) {
                break Err(self.io_error("set_write_timeout", e));
            }
            match self.stream.write(&self.outbuf[sent..]) {
                Ok(0) => {
                    break Err(TransportError::Closed(format!(
                        "{}: write returned 0",
                        self.peer
                    )))
                }
                Ok(n) => {
                    sent += n;
                    self.bytes_out += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(self.io_error("write", e)),
            }
        };
        self.outbuf.drain(..sent);
        result
    }

    /// Blocks until some bytes arrive, EOF, or `deadline`. EOF is
    /// recorded, not raised: a peer may legitimately close right after its
    /// final frame, and that frame must still decode.
    fn fill(&mut self, deadline: Instant) -> Result<(), TransportError> {
        let left = self.time_left(deadline, "no frame")?;
        self.stream
            .set_read_timeout(Some(left))
            .map_err(|e| self.io_error("set_read_timeout", e))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.eof = true,
            Ok(n) => {
                self.inbuf.extend_from_slice(&chunk[..n]);
                self.bytes_in += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(self.io_error("read", e)),
        }
        Ok(())
    }

    /// Decodes the next buffered frame, if a complete one is available.
    /// An oversized length prefix fails here, before its body is read.
    fn next_frame(&mut self) -> Result<Option<(Tag, Vec<u8>)>, TransportError> {
        match decode_frame(&self.inbuf[self.consumed..], self.max_frame) {
            Ok(None) => {
                // Compact the consumed prefix while idle so a long run's
                // buffer doesn't grow monotonically.
                if self.consumed >= COMPACT_THRESHOLD {
                    self.inbuf.drain(..self.consumed);
                    self.consumed = 0;
                }
                Ok(None)
            }
            Ok(Some((tag, payload, used))) => {
                let owned = payload.to_vec();
                self.consumed += used;
                self.frames_in += 1;
                Ok(Some((tag, owned)))
            }
            Err(e) => Err(TransportError::Protocol(format!("{}: {e}", self.peer))),
        }
    }

    /// Flushes the outbox, then returns the next complete frame, reading
    /// until one arrives or `deadline` passes.
    pub fn wait_frame(&mut self, deadline: Instant) -> Result<(Tag, Vec<u8>), TransportError> {
        self.flush_fully(deadline)?;
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            if self.eof {
                return Err(TransportError::Closed(format!(
                    "{}: peer disconnected",
                    self.peer
                )));
            }
            self.fill(deadline)?;
        }
    }
}

/// Binds the coordinator's listener (nonblocking, for deadline-bounded
/// accepts) and returns it with the bound address.
pub fn bind_listener(addr: &str) -> Result<(TcpListener, String), TransportError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| TransportError::Closed(format!("bind {addr}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Closed(format!("listener nonblocking: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| TransportError::Closed(format!("local_addr: {e}")))?;
    Ok((listener, local.to_string()))
}

/// Accepts up to `n` connections before `deadline`.
pub fn accept_n(
    listener: &TcpListener,
    n: usize,
    deadline: Instant,
) -> Result<Vec<FrameConn>, TransportError> {
    let mut conns = Vec::with_capacity(n);
    while conns.len() < n {
        match listener.accept() {
            Ok((stream, _)) => conns.push(FrameConn::new(stream)?),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if clock::expired(deadline) {
                    return Err(TransportError::Timeout(format!(
                        "only {}/{n} workers connected before deadline",
                        conns.len()
                    )));
                }
                // Only while workers start up; kept short because every
                // retry adds directly to a run's fixed cost.
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Closed(format!("accept: {e}"))),
        }
    }
    Ok(conns)
}

/// Connects a worker to the coordinator, retrying until `deadline` (the
/// coordinator may still be binding when a spawned worker starts).
pub fn connect(addr: &str, deadline: Instant) -> Result<FrameConn, TransportError> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::Closed(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| TransportError::Closed(format!("resolve {addr}: no address")))?;
    loop {
        match TcpStream::connect_timeout(&sockaddr, Duration::from_millis(250)) {
            Ok(stream) => return FrameConn::new(stream),
            Err(e) => {
                if clock::expired(deadline) {
                    return Err(TransportError::Timeout(format!("connect {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
