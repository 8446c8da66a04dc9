//! The fleet worker: owns a subset of level-1 nests and exchanges halos
//! with the coordinator over one framed connection.
//!
//! A worker is stateless until its `Assign` arrives: it rebuilds the full
//! model deterministically (see [`crate::scenario::build_model`]), keeps
//! only its owned nests, and then runs [`drive_nests`] with a
//! [`SocketLink`] as the halo transport. Boundary frames for different
//! nests may arrive in any order relative to what `drive_nests` asks for,
//! so the link buffers out-of-order frames keyed `(iteration, nest)` —
//! the same reordering discipline as the in-process channel transport.

use crate::error::FleetError;
use crate::frame::{decode_cells, encode_cells, HaloCell, Tag};
use crate::net::FrameConn;
use crate::scenario::build_model;
use crate::wire::{to_payload, Assign, Done, Hello, SideObs, FLEET_WIRE_VERSION};
use nestwx_miniwrf::nest::{BoundaryData, FeedbackData};
use nestwx_miniwrf::{drive_nests, NestReport, TransportError};
use nestwx_obs::{clock, LogHistogram};
use std::collections::BTreeMap;
use std::time::Duration;

/// Halo transport over a framed socket, worker side.
pub struct SocketLink<'a> {
    conn: &'a mut FrameConn,
    /// Out-of-order boundary frames, keyed `(iteration, nest)`.
    pending: BTreeMap<(u64, usize), Vec<HaloCell>>,
    frame_timeout: Duration,
    recv_wait: LogHistogram,
    wait_s: f64,
    /// Set when the coordinator aborted the run; the worker exits cleanly.
    aborted: bool,
}

impl<'a> SocketLink<'a> {
    /// Wraps a handshaken connection.
    pub fn new(conn: &'a mut FrameConn, frame_timeout: Duration) -> SocketLink<'a> {
        SocketLink {
            conn,
            pending: BTreeMap::new(),
            frame_timeout,
            recv_wait: LogHistogram::new(),
            wait_s: 0.0,
            aborted: false,
        }
    }

    /// Whether the coordinator told this worker to stop mid-run.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Drains the wait-attribution the link accumulated.
    pub fn wait_obs(&self) -> (&LogHistogram, f64) {
        (&self.recv_wait, self.wait_s)
    }
}

impl nestwx_miniwrf::HaloLink for SocketLink<'_> {
    fn recv_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<BoundaryData, TransportError> {
        let start = clock::now();
        let key = (iteration, nest);
        let cells = loop {
            if let Some(cells) = self.pending.remove(&key) {
                break cells;
            }
            let deadline = start + self.frame_timeout;
            let (tag, payload) = self.conn.wait_frame(deadline)?;
            match tag {
                Tag::Boundary => {
                    let (got_nest, got_iter, cells) = decode_cells(&payload)
                        .map_err(|e| TransportError::Protocol(e.to_string()))?;
                    self.pending.insert((got_iter, got_nest as usize), cells);
                }
                Tag::Abort => {
                    self.aborted = true;
                    return Err(TransportError::Closed("coordinator aborted the run".into()));
                }
                Tag::Error => {
                    return Err(TransportError::Protocol(format!(
                        "coordinator error: {}",
                        String::from_utf8_lossy(&payload)
                    )))
                }
                other => {
                    return Err(TransportError::Protocol(format!(
                        "expected Boundary, got {other:?}"
                    )))
                }
            }
        };
        let waited = clock::since(start);
        self.recv_wait.record_duration(waited);
        self.wait_s += waited.as_secs_f64();
        Ok(BoundaryData::from_cells(cells))
    }

    fn send_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
        fb: &FeedbackData,
    ) -> Result<(), TransportError> {
        let payload = encode_cells(nest as u32, iteration, fb.cells());
        self.conn.queue(Tag::Feedback, &payload);
        // Send now rather than on the next wait_frame: the next boundary
        // may already be buffered, and the coordinator is waiting on this.
        self.conn
            .flush_fully(clock::deadline_after(self.frame_timeout))
    }
}

/// Runs the whole worker protocol on a connected socket: `Hello` →
/// `Assign` → halo loop → `Done`. Returns `Ok(())` both on normal
/// completion and on a coordinator-initiated `Abort` (the failure is the
/// coordinator's to report); anything else is a typed error.
pub fn run_worker(conn: &mut FrameConn, frame_timeout: Duration) -> Result<(), FleetError> {
    conn.queue(
        Tag::Hello,
        &to_payload(&Hello {
            version: FLEET_WIRE_VERSION,
        }),
    );
    conn.flush_fully(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Handshake(e.to_string()))?;
    let (tag, payload) = conn
        .wait_frame(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Handshake(e.to_string()))?;
    let assign: Assign = match tag {
        Tag::Assign => {
            Assign::decode(&payload).map_err(|e| FleetError::Handshake(e.to_string()))?
        }
        Tag::Abort => return Ok(()),
        Tag::Error => {
            return Err(FleetError::Handshake(format!(
                "coordinator rejected handshake: {}",
                String::from_utf8_lossy(&payload)
            )))
        }
        other => {
            return Err(FleetError::Handshake(format!(
                "expected Assign, got {other:?}"
            )))
        }
    };

    // Rebuild the full model so owned nests initialize exactly as the
    // in-process run would, then keep only the owned ones.
    let model = build_model(&assign.parent, &assign.nests);
    let mut owned: Vec<(usize, nestwx_miniwrf::NestState)> = assign
        .owned
        .iter()
        .map(|&g| (g as usize, model.nests[g as usize].clone()))
        .collect();
    drop(model);

    let run_start = clock::now();
    let (result, wait_hist, wait_s, aborted) = {
        let mut link = SocketLink::new(conn, frame_timeout);
        let result = drive_nests(&mut owned, assign.iterations, &mut link);
        let (hist, wait_s) = link.wait_obs();
        (result, hist.clone(), wait_s, link.aborted())
    };
    if aborted {
        return Ok(());
    }
    result.map_err(|e| FleetError::Io(e.to_string()))?;
    let run_s = clock::since(run_start).as_secs_f64();

    let nests: Vec<NestReport> = owned
        .iter()
        .map(|(g, nest)| NestReport::from_nest(*g, nest, assign.iterations))
        .collect();
    let done = Done {
        slot: assign.slot,
        nests,
        obs: SideObs {
            bytes_in: conn.bytes_in,
            bytes_out: conn.bytes_out,
            frames_in: conn.frames_in,
            frames_out: conn.frames_out,
            recv_wait: wait_hist.summary().into(),
            compute_s: (run_s - wait_s).max(0.0),
            wait_s,
        },
    };
    conn.queue(Tag::Done, &to_payload(&done));
    conn.flush_fully(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Io(e.to_string()))?;
    Ok(())
}
