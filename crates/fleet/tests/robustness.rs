//! Worker-loss robustness: a worker that disconnects or goes silent
//! mid-run must surface as a typed `worker_lost` error, with the
//! coordinator draining cleanly (surviving workers aborted, no hang, no
//! partial report).

use nestwx_fleet::frame::{encode_frame, max_frame_bytes};
use nestwx_fleet::wire::{to_payload, Hello, FLEET_WIRE_VERSION};
use nestwx_fleet::{
    accept_n, bind_listener, connect, run_coordinator, run_worker, FleetConfig, FleetError, Tag,
};
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::TransportError;
use nestwx_obs::clock;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn scenario() -> (Domain, Vec<NestSpec>) {
    let parent = Domain::parent(32, 32, 24.0);
    let nests = vec![
        NestSpec::new(18, 18, 3, (3, 3)),
        NestSpec::new(10, 10, 2, (20, 20)),
    ];
    (parent, nests)
}

fn config(frame_timeout: Duration) -> FleetConfig {
    FleetConfig {
        workers: 2,
        threads: 1,
        connect_timeout: Duration::from_secs(10),
        frame_timeout,
    }
}

/// How a rogue worker misbehaves after its handshake.
#[derive(Clone, Copy)]
enum Sabotage {
    /// Drop the connection right after receiving the assignment.
    DisconnectAfterAssign,
    /// Accept the assignment, then never answer another frame.
    GoSilent,
}

/// Runs a 2-worker fleet where one worker is well-behaved and the other
/// sabotages the run; returns the coordinator's error and how long the
/// coordinator took to surface it.
fn run_sabotaged(
    sabotage: Sabotage,
    cfg: &FleetConfig,
) -> (FleetError, Duration, Result<(), FleetError>) {
    let (parent, nests) = scenario();
    let (listener, addr) = bind_listener("127.0.0.1:0").expect("bind");

    let good_addr = addr.clone();
    let good = std::thread::spawn(move || {
        let mut conn = connect(&good_addr, clock::deadline_after(Duration::from_secs(10)))
            .expect("good worker connects");
        // Generous frame timeout: the good worker must outlast the
        // coordinator's (possibly short) deadline so the Abort reaches it.
        run_worker(&mut conn, Duration::from_secs(30))
    });

    let rogue_addr = addr.clone();
    let rogue = std::thread::spawn(move || {
        let mut conn = connect(&rogue_addr, clock::deadline_after(Duration::from_secs(10)))
            .expect("rogue worker connects");
        conn.queue(
            Tag::Hello,
            &to_payload(&Hello {
                version: FLEET_WIRE_VERSION,
            }),
        );
        conn.flush_fully(clock::deadline_after(Duration::from_secs(5)))
            .expect("hello flushes");
        let (tag, _) = conn
            .wait_frame(clock::deadline_after(Duration::from_secs(10)))
            .expect("assign arrives");
        assert_eq!(tag, Tag::Assign);
        match sabotage {
            Sabotage::DisconnectAfterAssign => drop(conn),
            Sabotage::GoSilent => {
                // Hold the connection open, swallow boundaries, never
                // answer; the coordinator's frame deadline must fire. Exit
                // on Abort so the thread ends once the coordinator gives up.
                let deadline = clock::deadline_after(Duration::from_secs(30));
                loop {
                    match conn.wait_frame(deadline) {
                        Ok((Tag::Abort, _)) => break,
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
            }
        }
    });

    let conns = accept_n(&listener, 2, clock::deadline_after(cfg.connect_timeout)).expect("accept");
    let started = Instant::now();
    let result = run_coordinator(&parent, &nests, 50_000, 8, &[], conns, cfg);
    let elapsed = started.elapsed();

    let err = result.map(|_| ()).expect_err("sabotaged run must fail");
    let good_result = good.join().expect("good worker thread");
    rogue.join().expect("rogue worker thread");
    (err, elapsed, good_result)
}

#[test]
fn disconnect_mid_run_is_typed_worker_lost_with_clean_drain() {
    let cfg = config(Duration::from_secs(30));
    let (err, elapsed, good_result) = run_sabotaged(Sabotage::DisconnectAfterAssign, &cfg);
    assert_eq!(err.kind(), "worker_lost", "got: {err}");
    assert!(
        matches!(err, FleetError::WorkerLost { .. }),
        "typed variant expected, got {err}"
    );
    // A disconnect is detected by EOF, not by waiting out the 30 s frame
    // deadline — the "no hang" half of the guarantee.
    assert!(
        elapsed < Duration::from_secs(10),
        "coordinator took {elapsed:?} to notice a dead worker"
    );
    // The surviving worker was aborted and exited cleanly.
    assert!(good_result.is_ok(), "good worker: {good_result:?}");
}

#[test]
fn silent_worker_times_out_as_worker_lost() {
    let cfg = config(Duration::from_millis(300));
    let (err, _elapsed, good_result) = run_sabotaged(Sabotage::GoSilent, &cfg);
    match &err {
        FleetError::WorkerLost { reason, .. } => {
            assert!(
                reason.contains("timeout") || reason.contains("no "),
                "reason should describe the silence: {reason}"
            );
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    assert!(good_result.is_ok(), "good worker: {good_result:?}");
}

/// Runs a 2-worker fleet where one worker is well-behaved and the other
/// is a raw socket that greets, writes `garbage`, and then only reads
/// until the coordinator hangs up. Returns the coordinator's error, how
/// long it took to surface, the rogue's slot, and the good worker's result.
fn run_raw_rogue(
    garbage: Vec<u8>,
    cfg: &FleetConfig,
) -> (FleetError, Duration, usize, Result<(), FleetError>) {
    let (parent, nests) = scenario();
    let (listener, addr) = bind_listener("127.0.0.1:0").expect("bind");

    let good_addr = addr.clone();
    let good = std::thread::spawn(move || {
        let mut conn = connect(&good_addr, clock::deadline_after(Duration::from_secs(10)))
            .expect("good worker connects");
        run_worker(&mut conn, Duration::from_secs(30))
    });

    let (rogue_addr_tx, rogue_addr_rx) = mpsc::channel();
    let rogue = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("rogue worker connects");
        rogue_addr_tx
            .send(stream.local_addr().expect("rogue address").to_string())
            .expect("report rogue address");
        let mut out = Vec::new();
        let hello = to_payload(&Hello {
            version: FLEET_WIRE_VERSION,
        });
        encode_frame(Tag::Hello, &hello, &mut out);
        out.extend_from_slice(&garbage);
        stream.write_all(&out).expect("rogue writes");
        // Swallow the Assign, boundaries and Abort until the coordinator
        // closes the connection (or the safety timeout ends the thread).
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("rogue read timeout");
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let conns = accept_n(&listener, 2, clock::deadline_after(cfg.connect_timeout)).expect("accept");
    let rogue_addr = rogue_addr_rx.recv().expect("rogue address");
    let rogue_slot = conns
        .iter()
        .position(|c| c.peer == rogue_addr)
        .expect("rogue among the accepted connections");
    let started = Instant::now();
    let result = run_coordinator(&parent, &nests, 50_000, 8, &[], conns, cfg);
    let elapsed = started.elapsed();

    let err = result.map(|_| ()).expect_err("sabotaged run must fail");
    let good_result = good.join().expect("good worker thread");
    rogue.join().expect("rogue worker thread");
    (err, elapsed, rogue_slot, good_result)
}

#[test]
fn half_written_frame_times_out_as_worker_lost() {
    let frame_timeout = Duration::from_millis(300);
    // A length prefix promising 1000 body bytes, the tag, then half the
    // payload: the coordinator blocks mid-frame and must give up at its
    // frame deadline rather than wait for the rest.
    let mut garbage = 1000u32.to_le_bytes().to_vec();
    garbage.push(Tag::Feedback as u8);
    garbage.extend_from_slice(&[0u8; 499]);
    let (err, elapsed, rogue_slot, good_result) = run_raw_rogue(garbage, &config(frame_timeout));
    match &err {
        FleetError::WorkerLost { slot, reason } => {
            assert_eq!(*slot, rogue_slot, "blame lands on the rogue: {reason}");
            assert!(reason.contains("timeout"), "reason: {reason}");
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    assert!(
        elapsed < frame_timeout + Duration::from_secs(2),
        "coordinator took {elapsed:?} to give up on a half frame"
    );
    assert!(good_result.is_ok(), "good worker: {good_result:?}");
}

#[test]
fn oversized_length_prefix_is_a_protocol_worker_lost() {
    let oversized = u32::try_from(max_frame_bytes() + 1).expect("frame cap fits a u32 prefix");
    let mut garbage = oversized.to_le_bytes().to_vec();
    garbage.push(Tag::Feedback as u8);
    // A 30 s frame deadline: only the size check can end this run quickly.
    let (err, elapsed, rogue_slot, good_result) =
        run_raw_rogue(garbage, &config(Duration::from_secs(30)));
    match &err {
        FleetError::WorkerLost { slot, reason } => {
            assert_eq!(*slot, rogue_slot, "blame lands on the rogue: {reason}");
            assert!(reason.contains("protocol"), "reason: {reason}");
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "coordinator took {elapsed:?} to reject an oversized frame"
    );
    assert!(good_result.is_ok(), "good worker: {good_result:?}");
}

#[test]
fn wait_frame_with_expired_deadline_times_out_and_leaves_conn_usable() {
    let (listener, addr) = bind_listener("127.0.0.1:0").expect("bind");
    let mut client =
        connect(&addr, clock::deadline_after(Duration::from_secs(10))).expect("connect");
    let mut server = accept_n(&listener, 1, clock::deadline_after(Duration::from_secs(10)))
        .expect("accept")
        .remove(0);

    let started = Instant::now();
    let expired = clock::deadline_after(Duration::ZERO);
    match client.wait_frame(expired) {
        Err(TransportError::Timeout(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "an expired deadline must not block"
    );

    // The timeout left no error state behind: the next frame still flows.
    server.queue(Tag::Abort, b"");
    server
        .flush_fully(clock::deadline_after(Duration::from_secs(5)))
        .expect("server flushes");
    let (tag, payload) = client
        .wait_frame(clock::deadline_after(Duration::from_secs(10)))
        .expect("frame after the timeout");
    assert_eq!(tag, Tag::Abort);
    assert!(payload.is_empty());
}
