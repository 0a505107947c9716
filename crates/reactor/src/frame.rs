//! Incremental HTTP/1.1 request framing for the event loop.
//!
//! Bytes arrive whenever a socket is readable, so the reactor cannot use a
//! blocking request parser. This scanner keeps just enough state to answer
//! two questions cheaply after every read — "is the head complete?" (the
//! moment admission control can turn the request away *before* its body is
//! read) and "how many bytes is the whole request?" — while full parsing
//! stays in the service behind the admission queue. Only the conditions
//! that must be decided before buffering the body are decided here: head
//! and body size limits. A head whose `Content-Length` is unparsable (or
//! that declares a non-identity `Transfer-Encoding`) is framed as
//! body-less and handed to the service, whose strict parser answers it
//! with a 400/501.

/// Why a connection's bytes can never frame a complete request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The head ran past the limit without terminating.
    HeadTooLarge {
        /// The configured head byte limit.
        limit: usize,
    },
    /// The declared `Content-Length` exceeds the body limit.
    BodyTooLarge {
        /// The declared body length.
        length: usize,
        /// The configured body byte limit.
        limit: usize,
    },
}

/// Incremental scan state over one connection's accumulated read buffer.
#[derive(Debug, Default)]
pub struct FrameScan {
    /// Bytes already searched for the `\r\n\r\n` terminator, so repeated
    /// scans over a slowly-growing buffer stay linear overall.
    scanned: usize,
    /// Total frame length (head + body) once the head has been seen.
    frame_len: Option<usize>,
}

impl FrameScan {
    /// A fresh scanner for a new connection.
    pub fn new() -> FrameScan {
        FrameScan::default()
    }

    /// Whether the head terminator has been seen (the earliest point a
    /// request can be refused without reading its body).
    pub fn head_complete(&self) -> bool {
        self.frame_len.is_some()
    }

    /// The complete frame length in bytes, once known.
    pub fn frame_len(&self) -> Option<usize> {
        self.frame_len
    }

    /// Advances over `buf` (the connection's whole accumulated buffer).
    /// Call after every read; idempotent once the head is complete.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the message can never complete within limits.
    pub fn advance(
        &mut self,
        buf: &[u8],
        head_limit: usize,
        body_limit: usize,
    ) -> Result<(), FrameError> {
        if self.frame_len.is_some() {
            return Ok(());
        }
        // Resume the terminator search where the last scan stopped,
        // re-checking the 3 bytes a split "\r\n\r\n" could straddle.
        let from = self.scanned.saturating_sub(3);
        let head_end = buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| from + p);
        self.scanned = buf.len();
        let Some(head_end) = head_end else {
            if buf.len() > head_limit {
                return Err(FrameError::HeadTooLarge { limit: head_limit });
            }
            return Ok(());
        };
        let body_len = declared_body_len(&buf[..head_end]).unwrap_or(0);
        if body_len > body_limit {
            return Err(FrameError::BodyTooLarge {
                length: body_len,
                limit: body_limit,
            });
        }
        self.frame_len = Some(head_end + 4 + body_len);
        Ok(())
    }
}

/// The body length the head declares, or `None` when it is absent,
/// unparsable, or overridden by a non-identity transfer coding (those
/// messages are framed body-less; the service's strict parser rejects
/// them with the proper status).
fn declared_body_len(head: &[u8]) -> Option<usize> {
    let mut length = None;
    for line in head.split(|&b| b == b'\n') {
        let line = strip_cr(line);
        if let Some(value) = header_value(line, b"transfer-encoding") {
            if !value.eq_ignore_ascii_case("identity") {
                return None;
            }
        }
        if let Some(value) = header_value(line, b"content-length") {
            length = Some(value.trim().parse::<usize>().ok()?);
        }
    }
    length
}

fn strip_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

/// The value of header `name` (ASCII case-insensitive) when `line` is
/// that header, as UTF-8.
fn header_value<'l>(line: &'l [u8], name: &[u8]) -> Option<&'l str> {
    if line.len() <= name.len() + 1 || line[name.len()] != b':' {
        return None;
    }
    if !line[..name.len()].eq_ignore_ascii_case(name) {
        return None;
    }
    std::str::from_utf8(&line[name.len() + 1..])
        .ok()
        .map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD_LIMIT: usize = 1024;
    const BODY_LIMIT: usize = 4096;

    fn scan_all(wire: &[u8]) -> (FrameScan, Result<(), FrameError>) {
        let mut scan = FrameScan::new();
        let result = scan.advance(wire, HEAD_LIMIT, BODY_LIMIT);
        (scan, result)
    }

    #[test]
    fn frames_a_request_with_a_body() {
        let wire = b"POST /v1/compile HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let (scan, result) = scan_all(wire);
        result.unwrap();
        assert!(scan.head_complete());
        assert_eq!(scan.frame_len(), Some(wire.len()));
    }

    #[test]
    fn frames_a_bodyless_request() {
        let wire = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
        let (scan, result) = scan_all(wire);
        result.unwrap();
        assert_eq!(scan.frame_len(), Some(wire.len()));
    }

    #[test]
    fn byte_at_a_time_arrival_matches_one_shot() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nhost: a\r\n\r\nabc";
        let mut scan = FrameScan::new();
        let mut head_seen_at = None;
        for end in 1..=wire.len() {
            scan.advance(&wire[..end], HEAD_LIMIT, BODY_LIMIT).unwrap();
            if scan.head_complete() && head_seen_at.is_none() {
                head_seen_at = Some(end);
            }
        }
        // The head completes exactly at its terminator, before the body.
        assert_eq!(head_seen_at, Some(wire.len() - 3));
        assert_eq!(scan.frame_len(), Some(wire.len()));
    }

    #[test]
    fn oversized_head_is_refused_before_completion() {
        let wire = vec![b'a'; HEAD_LIMIT + 1];
        let (_, result) = scan_all(&wire);
        assert_eq!(result, Err(FrameError::HeadTooLarge { limit: HEAD_LIMIT }));
    }

    #[test]
    fn oversized_declared_body_is_refused_at_the_head() {
        let wire = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            BODY_LIMIT + 1
        );
        let (_, result) = scan_all(wire.as_bytes());
        assert_eq!(
            result,
            Err(FrameError::BodyTooLarge {
                length: BODY_LIMIT + 1,
                limit: BODY_LIMIT,
            })
        );
    }

    #[test]
    fn unparsable_length_and_chunked_frame_as_bodyless() {
        // The service's strict parser owns the 400/501; the reactor just
        // stops at the head.
        for head in [
            "POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            let (scan, result) = scan_all(head.as_bytes());
            result.unwrap();
            assert_eq!(scan.frame_len(), Some(head.len()), "{head:?}");
        }
    }

    #[test]
    fn identity_transfer_encoding_keeps_the_declared_length() {
        let wire =
            b"POST /x HTTP/1.1\r\ntransfer-encoding: identity\r\ncontent-length: 2\r\n\r\nok";
        let (scan, result) = scan_all(wire);
        result.unwrap();
        assert_eq!(scan.frame_len(), Some(wire.len()));
    }
}
