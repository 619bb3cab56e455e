//! The load generator: one thread, at most `nproc` keep-alive
//! connections, open-loop arrivals from virtual users.
//!
//! Each virtual user is a bank user id pinned to one connection and has
//! at most one request outstanding. An arrival whose user is still busy
//! waits in that user's queue and is sent when the previous response
//! lands; every request is timed from when it was due, so such waits
//! count against the server.
//!
//! The receive path is linear in the bytes received: framing resumes
//! where the previous scan stopped and the read buffer is compacted only
//! once its consumed prefix dominates, so the generator's own cost per
//! response does not grow with pipeline depth.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rhythm_banking::genreq::raw_http;
use rhythm_banking::types::RequestType;

use crate::workload::{Arrival, USERS};

/// What happened to one request. Times are seconds since the run's
/// origin; `done` is NaN while the request is outstanding or if it was
/// lost.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub user: u32,
    /// This user's request number (0-based), counting every request the
    /// user sent; the server sees a user's requests in this order.
    pub user_seq: u32,
    pub ty: RequestType,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// Whether the user was idle when the request fell due, so that
    /// `sent - due` is the generator's own lateness.
    pub on_time: bool,
    pub status: u16,
    pub bytes: u32,
    /// Digest of the response modulo padding (traced windows only).
    pub digest: u64,
    arg: u32,
}

impl Record {
    /// Answered with 200.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.done.is_finite()
    }

    /// Seconds from due to the full response, when answered.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }
}

#[derive(Debug, Default)]
struct User {
    token: u32,
    busy: bool,
    sent: u32,
    queue: VecDeque<usize>,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Start of the first unconsumed response in `inbuf`.
    head: usize,
    /// Where the header-end search resumes.
    scan: usize,
    /// `(header end, total length)` of the response at `head` once its
    /// header block is complete (offsets relative to `head`).
    frame: Option<(usize, usize)>,
    /// Records awaiting a response on this connection, in send order.
    inflight: VecDeque<usize>,
    dead: bool,
}

/// Header-block end: the index after `\n\n` or `\n\r\n`, searching from
/// `from` (an offset that may overlap the previous scan by two bytes).
fn header_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while let Some(p) = buf[i..].iter().position(|&b| b == b'\n') {
        let n = i + p;
        match (buf.get(n + 1), buf.get(n + 2)) {
            (Some(b'\n'), _) => return Some(n + 2),
            (Some(b'\r'), Some(b'\n')) => return Some(n + 3),
            (None, _) | (Some(b'\r'), None) => return None,
            _ => i = n + 1,
        }
    }
    None
}

fn header_value<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    let text = std::str::from_utf8(head).ok()?;
    text.lines().skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn status_code(head: &[u8]) -> u16 {
    std::str::from_utf8(head)
        .ok()
        .and_then(|s| s.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

/// FNV-1a over a response with each line's trailing spaces removed and
/// the `Content-Length` value masked. This is the equivalence the
/// repository's differential tests use between padded device responses
/// and native ones (`eq_modulo_padding` after masking the length, which
/// legitimately counts the padding); that each length matches its own
/// body is checked by the framing, since a wrong one desynchronises the
/// next response's status line.
pub fn padding_digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bs: &[u8]| {
        for &b in bs {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if i > 0 {
            eat(b"\n");
        }
        let end = line.iter().rposition(|&b| b != b' ').map_or(0, |p| p + 1);
        let line = &line[..end];
        if line.starts_with(b"Content-Length:") {
            eat(b"Content-Length: <masked>");
        } else {
            eat(line);
        }
    }
    h
}

/// A fast hash of the exact bytes: four independent multiply-rotate
/// lanes over 8-byte words, so hashing keeps up with the scalar path's
/// gigabytes per second of responses.
pub fn exact_digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(31);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// How responses are digested for the output oracle.
pub type DigestFn = fn(&[u8]) -> u64;

/// The generator and everything it recorded.
#[derive(Debug)]
pub struct Generator {
    origin: Instant,
    conns: Vec<Conn>,
    users: Vec<User>,
    pub records: Vec<Record>,
    /// Digest every response (traced windows).
    pub digest: Option<DigestFn>,
}

impl Generator {
    /// Open `conns` connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize, origin: Instant) -> std::io::Result<Self> {
        let conns = (0..conns)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    out_pos: 0,
                    inbuf: Vec::with_capacity(1 << 20),
                    head: 0,
                    scan: 0,
                    frame: None,
                    inflight: VecDeque::new(),
                    dead: false,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Generator {
            origin,
            conns,
            users: (0..USERS).map(|_| User::default()).collect(),
            records: Vec::new(),
            digest: None,
        })
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Requests sent and not yet answered (a dead connection's count
    /// as answered-lost on the next read).
    pub fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Drop the records from `first` on, once they are all answered or
    /// lost (nothing outstanding refers to them any more).
    pub fn forget_from(&mut self, first: usize) {
        if self.outstanding() == 0 {
            self.records.truncate(first);
        }
    }

    fn send(&mut self, idx: usize) {
        let now = self.now();
        let r = &mut self.records[idx];
        let user = &mut self.users[r.user as usize];
        user.busy = true;
        r.user_seq = user.sent;
        user.sent += 1;
        r.sent = now;
        let token = if r.ty.is_login() { 0 } else { user.token };
        let raw = raw_http(r.ty, token, &[r.user, r.arg, 0, 0]);
        let ci = r.user as usize % self.conns.len();
        let conn = &mut self.conns[ci];
        conn.out.extend_from_slice(&raw);
        conn.inflight.push_back(idx);
    }

    /// Append `arrivals` (due relative to `start`) as records and serve
    /// them: release each when due, keep reading, and after the last one
    /// drain until nothing is outstanding or `drain` elapses. Whatever is
    /// still unanswered then stays unanswered (lost).
    pub fn run(
        &mut self,
        start: f64,
        arrivals: &[Arrival],
        drain: Duration,
    ) -> std::ops::Range<usize> {
        let first = self.records.len();
        self.records.extend(arrivals.iter().map(|a| Record {
            user: a.user,
            user_seq: 0,
            ty: a.ty,
            due: start + a.due,
            sent: f64::NAN,
            done: f64::NAN,
            on_time: false,
            status: 0,
            bytes: 0,
            digest: 0,
            arg: a.arg,
        }));
        let last = self.records.len();
        let mut next = first;
        let mut drain_until = f64::INFINITY;
        loop {
            let now = self.now();
            while next < last && self.records[next].due <= now {
                let user = self.records[next].user as usize;
                if self.users[user].busy || !self.users[user].queue.is_empty() {
                    self.users[user].queue.push_back(next);
                } else {
                    self.records[next].on_time = true;
                    self.send(next);
                }
                next += 1;
            }
            let mut progress = self.flush_out();
            progress |= self.read_all();
            if next == last {
                let queued = self.users.iter().any(|u| !u.queue.is_empty());
                if self.outstanding() == 0 && !queued {
                    break;
                }
                if drain_until.is_infinite() {
                    drain_until = now + drain.as_secs_f64();
                }
                if now > drain_until {
                    break;
                }
            }
            if !progress {
                let until_due = if next < last {
                    self.records[next].due - now
                } else {
                    f64::INFINITY
                };
                let nap = until_due.clamp(0.0, 50e-6);
                if nap > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(nap));
                }
            }
        }
        for u in &mut self.users {
            u.queue.clear();
        }
        first..last
    }

    fn flush_out(&mut self) -> bool {
        let mut progress = false;
        for c in &mut self.conns {
            while !c.dead && c.out_pos < c.out.len() {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => c.dead = true,
                    Ok(n) => {
                        c.out_pos += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => c.dead = true,
                }
            }
            if c.out_pos == c.out.len() {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        progress
    }

    fn read_all(&mut self) -> bool {
        let mut progress = false;
        let mut chunk = [0u8; 64 * 1024];
        let mut done: Vec<(usize, u16, usize, usize, usize)> = Vec::new();
        for (ci, c) in self.conns.iter_mut().enumerate() {
            while !c.dead {
                match c.stream.read(&mut chunk) {
                    Ok(0) => c.dead = true,
                    Ok(n) => {
                        c.inbuf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => c.dead = true,
                }
            }
            // Frame every complete response.
            loop {
                if c.frame.is_none() {
                    match header_end(&c.inbuf, c.scan.max(c.head)) {
                        Some(end) => {
                            let body = header_value(&c.inbuf[c.head..end], "content-length")
                                .and_then(|v| v.parse::<usize>().ok())
                                .unwrap_or(0);
                            c.frame = Some((end - c.head, end - c.head + body));
                        }
                        None => {
                            c.scan = c.inbuf.len().saturating_sub(2).max(c.head);
                            break;
                        }
                    }
                }
                let (head_len, total) = c.frame.expect("frame set above");
                if c.inbuf.len() - c.head < total {
                    break;
                }
                let Some(idx) = c.inflight.pop_front() else {
                    // A response nobody asked for: the connection is out
                    // of step and cannot be trusted any further.
                    c.dead = true;
                    break;
                };
                done.push((idx, ci as u16, c.head, head_len, total));
                c.head += total;
                c.scan = c.head;
                c.frame = None;
            }
            // Records whose connection died are lost; their users are
            // released so the remaining traffic keeps flowing.
            if c.dead {
                done.extend(c.inflight.drain(..).map(|idx| (idx, u16::MAX, 0, 0, 0)));
            }
        }
        let now = self.now();
        for (idx, ci, at, head_len, total) in done {
            if ci != u16::MAX {
                let buf = &self.conns[ci as usize].inbuf[at..at + total];
                let head = &buf[..head_len];
                let status = status_code(head);
                let r = &mut self.records[idx];
                r.done = now;
                r.status = status;
                r.bytes = total as u32;
                if let Some(digest) = self.digest {
                    r.digest = digest(buf);
                }
                let user = &mut self.users[r.user as usize];
                if status == 200 {
                    match r.ty {
                        RequestType::Login => {
                            user.token = header_value(head, "set-cookie")
                                .and_then(|v| v.strip_prefix("SID="))
                                .and_then(|t| t.trim().parse().ok())
                                .unwrap_or(0);
                        }
                        RequestType::Logout => user.token = 0,
                        _ => {}
                    }
                }
            }
            let user = self.records[idx].user as usize;
            self.users[user].busy = false;
            if let Some(nxt) = self.users[user].queue.pop_front() {
                self.send(nxt);
            }
        }
        // Drop the consumed prefix once it is most of the buffer: each
        // byte moves at most once more, so receiving stays linear.
        for c in &mut self.conns {
            if c.head >= 64 * 1024 && c.head * 2 >= c.inbuf.len() {
                c.inbuf.drain(..c.head);
                c.scan -= c.head;
                c.head = 0;
            }
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_http::padding::eq_modulo_padding;

    #[test]
    fn header_end_finds_both_terminators_across_scans() {
        let lf = b"HTTP/1.1 200 OK\nA: b\n\nbody";
        assert_eq!(header_end(lf, 0), Some(22));
        let crlf = b"HTTP/1.1 503 X\r\nA: b\r\n\r\nbody";
        assert_eq!(header_end(crlf, 0), Some(24));
        assert_eq!(header_end(b"HTTP/1.1 200 OK\nA: b\n", 0), None);
        // Resuming two bytes back still finds a terminator split
        // across reads.
        assert_eq!(header_end(lf, 19), Some(22));
    }

    #[test]
    fn digest_agrees_with_eq_modulo_padding() {
        let a = b"HTTP/1.1 200 OK\nX: 1   \n\n<p>hi</p>    \n  <b>x</b>\n";
        let b = b"HTTP/1.1 200 OK\nX: 1\n\n<p>hi</p>\n  <b>x</b>\n";
        let c = b"HTTP/1.1 200 OK\nX: 1\n\n<p>hi</p>\n <b>x</b>\n";
        assert!(eq_modulo_padding(a, b));
        assert_eq!(padding_digest(a), padding_digest(b));
        assert!(!eq_modulo_padding(b, c));
        assert_ne!(padding_digest(b), padding_digest(c));
    }

    #[test]
    fn exact_digest_sees_every_byte() {
        let a: Vec<u8> = (0..100u8).collect();
        let mut b = a.clone();
        assert_eq!(exact_digest(&a), exact_digest(&b));
        for i in [0, 31, 32, 63, 96, 99] {
            b[i] ^= 1;
            assert_ne!(exact_digest(&a), exact_digest(&b), "byte {i}");
            b[i] ^= 1;
        }
        assert_ne!(exact_digest(&a[..99]), exact_digest(&a));
    }

    #[test]
    fn digest_masks_only_the_content_length_value() {
        let padded = b"HTTP/1.1 200 OK\nContent-Length: 14   \n\n<p>hi</p>     \n";
        let plain = b"HTTP/1.1 200 OK\nContent-Length: 10   \n\n<p>hi</p>\n";
        let other = b"HTTP/1.1 200 OK\nContent-Length: 10   \n\n<p>ho</p>\n";
        assert_eq!(padding_digest(padded), padding_digest(plain));
        assert_ne!(padding_digest(plain), padding_digest(other));
    }
}
