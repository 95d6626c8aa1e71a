//! Fail-closed output checks: byte-exact HTTP responses and digests.

use thirstyflops_serve::handlers::HealthBody;

/// FNV-1a, 64-bit: the digest recorded for byte streams.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Length of the first complete HTTP/1.1 response at the start of
/// `buf`, `Ok(None)` when more bytes are needed, or an error when the
/// head is malformed (no `Content-Length`).
pub fn response_len(buf: &[u8]) -> Result<Option<usize>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > 64 * 1024 {
            return Err("response head over 64 KiB".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let length = head
        .split("\r\n")
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .ok_or_else(|| format!("response without Content-Length: {head:?}"))?
        .trim()
        .parse::<usize>()
        .map_err(|e| format!("bad Content-Length: {e}"))?;
    let total = head_end + 4 + length;
    Ok((buf.len() >= total).then_some(total))
}

/// The status code of a complete response.
pub fn status(response: &[u8]) -> Option<u16> {
    let line = response.split(|&b| b == b'\r').next()?;
    let code = line.split(|&b| b == b' ').nth(1)?;
    std::str::from_utf8(code).ok()?.parse().ok()
}

/// What a response must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// These exact bytes (status line, headers, body).
    Exact(Vec<u8>),
    /// `/healthz`: its body carries live uptime and request counters,
    /// so it is checked by status and by parsing as a healthy body.
    Health,
}

/// Checks one complete response against its expectation.
pub fn check(expect: &Expect, got: &[u8]) -> Result<(), String> {
    match expect {
        Expect::Exact(want) => {
            if want.as_slice() == got {
                return Ok(());
            }
            let at = want
                .iter()
                .zip(got)
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            Err(format!(
                "response differs at byte {at} (expected {} bytes, got {}): {:?}",
                want.len(),
                got.len(),
                String::from_utf8_lossy(&got[at.saturating_sub(20)..got.len().min(at + 40)])
            ))
        }
        Expect::Health => {
            let body_at = got.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            let body: Option<HealthBody> = body_at
                .and_then(|p| std::str::from_utf8(&got[p..]).ok())
                .and_then(|b| serde_json::from_str(b).ok());
            if status(got) == Some(200) && body.is_some_and(|b| b.status == "ok") {
                Ok(())
            } else {
                Err(format!(
                    "unhealthy /healthz answer: {:?}",
                    String::from_utf8_lossy(got)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &str) -> Vec<u8> {
        thirstyflops_serve::http::Response::json(200, body)
            .with_request_id("pb-1")
            .to_bytes(false)
    }

    #[test]
    fn a_single_flipped_byte_is_rejected() {
        let want = response("{\"a\":1}");
        assert!(check(&Expect::Exact(want.clone()), &want).is_ok());
        for at in [0, want.len() / 2, want.len() - 1] {
            let mut bad = want.clone();
            bad[at] ^= 0x01;
            let err = check(&Expect::Exact(want.clone()), &bad).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{err}");
        }
        // A truncated or padded response is rejected too.
        assert!(check(&Expect::Exact(want.clone()), &want[..want.len() - 1]).is_err());
        let mut long = want.clone();
        long.push(b' ');
        assert!(check(&Expect::Exact(want), &long).is_err());
    }

    #[test]
    fn health_answers_are_checked_by_status_and_shape() {
        let ok = response(
            "{\n  \"status\": \"ok\",\n  \"uptime_seconds\": 3,\n  \"requests_total\": 9\n}\n",
        );
        assert!(check(&Expect::Health, &ok).is_ok());
        let mut bad = ok.clone();
        let s = bad.windows(4).position(|w| w == b"\"ok\"").unwrap();
        bad[s + 1] = b'0';
        assert!(check(&Expect::Health, &bad).is_err());
    }

    #[test]
    fn framing_finds_complete_responses() {
        let one = response("{}");
        let mut two = one.clone();
        two.extend_from_slice(&one);
        assert_eq!(response_len(&two).unwrap(), Some(one.len()));
        assert_eq!(response_len(&one[..one.len() - 1]).unwrap(), None);
        assert_eq!(status(&one), Some(200));
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
