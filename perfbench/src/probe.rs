//! The host probe: a bare loopback request/ack round trip between two
//! plain threads, with nothing of the serving stack in it.
//!
//! On a shared virtual machine the host itself runs faster or slower
//! for tens of seconds at a time, and every time the stack takes —
//! wall or CPU — moves with it. The probe runs on the same CPU just
//! before and just after each rig of a run, while no rig is up, and
//! the gated time metrics are expressed in its round trips: what the
//! stack costs on top of the socket round trip it cannot avoid, in
//! units the host's pace cancels out of.

use crate::stats::Hist;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Round trips of `request` (each answered by `reply_len` bytes) over
/// a fresh loopback connection for `duration`; returns their
/// latencies.
pub fn round_trips(request: &[u8], reply_len: usize, duration: Duration) -> io::Result<Hist> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connected before the echo thread starts, so that thread's accept
    // always returns.
    let mut conn = TcpStream::connect(listener.local_addr()?)?;
    conn.set_nodelay(true)?;
    thread::scope(|s| {
        let echo = thread::Builder::new()
            .name("pb-probe".into())
            .spawn_scoped(s, || -> io::Result<()> {
                let (mut conn, _) = listener.accept()?;
                conn.set_nodelay(true)?;
                let mut buf = vec![0u8; request.len()];
                let reply = vec![0u8; reply_len];
                // The client hanging up ends the loop.
                while conn.read_exact(&mut buf).is_ok() {
                    conn.write_all(&reply)?;
                }
                Ok(())
            })?;
        let timed = (|| -> io::Result<Hist> {
            let mut reply = vec![0u8; reply_len];
            let mut hist = Hist::default();
            let deadline = Instant::now() + duration;
            loop {
                let t0 = Instant::now();
                conn.write_all(request)?;
                conn.read_exact(&mut reply)?;
                let t1 = Instant::now();
                hist.record((t1 - t0).as_nanos() as u64);
                if t1 >= deadline {
                    return Ok(hist);
                }
            }
        })();
        // Hanging up makes the echo thread's read fail, so it returns.
        drop(conn);
        let echoed = echo.join().expect("probe echo thread");
        let hist = timed?;
        echoed.map(|()| hist)
    })
}

#[cfg(test)]
mod tests {
    use super::round_trips;
    use std::time::Duration;

    #[test]
    fn a_probe_times_round_trips_and_ends() {
        let hist = round_trips(&[7; 300], 5, Duration::from_millis(20)).expect("probe runs");
        assert!(!hist.is_empty());
        assert!(hist.quantile(0.5) > 0.0);
    }
}
