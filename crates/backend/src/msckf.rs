//! Multi-State Constraint Kalman Filter (MSCKF) — the VIO filtering block.
//!
//! "We use MSCKF \[64\], a Kalman Filter framework that keeps a sliding
//! window of past observations rather than just the most recent past"
//! (paper Sec. IV-A). The filter maintains the IMU state
//! `(q, b_g, v, b_a, p)` plus a window of up to 30 cloned camera poses
//! (the paper's window size, Sec. VII-B); feature tracks spanning the
//! window produce multi-state constraints that update the filter without
//! putting landmarks in the state.
//!
//! Error-state convention: attitude error `δθ` is in the *world* frame
//! (`R = exp(δθ)·R̂`); the error vector is
//! `[δθ, δb_g, δv, δb_a, δp | δθ_c1, δp_c1 | …]`.

use crate::kernels::{Kernel, KernelTimer};
use crate::types::ImuReading;
use eudoxus_geometry::{
    triangulate_multi_view, Mat3, PinholeCamera, Pose, Quaternion, Vec2, Vec3,
};
use eudoxus_math::{Cholesky, Matrix, Qr, Vector};
use std::collections::HashMap;

/// Gravity vector in the world frame (z up).
const GRAVITY: Vec3 = Vec3::new(0.0, 0.0, -9.80665);

/// Size of the IMU (body) error-state block.
const BODY_DIM: usize = 15;
/// Error-state size of one camera clone.
const CLONE_DIM: usize = 6;

// Offsets within the body error block.
const THETA: usize = 0;
const BG: usize = 3;
const VEL: usize = 6;
const BA: usize = 9;
const POS: usize = 12;

/// MSCKF tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct MsckfConfig {
    /// Maximum camera clones kept in the sliding window (paper: 30).
    pub max_clones: usize,
    /// Pixel measurement noise σ.
    pub sigma_px: f64,
    /// Gyro white noise σ (rad/s/√Hz equivalent per-sample).
    pub gyro_noise: f64,
    /// Accel white noise σ.
    pub accel_noise: f64,
    /// Gyro bias random-walk σ.
    pub gyro_bias_noise: f64,
    /// Accel bias random-walk σ.
    pub accel_bias_noise: f64,
    /// Minimum track length for an update.
    pub min_track_length: usize,
    /// Cap on features folded into one update (bounds worst-case latency).
    pub max_update_features: usize,
    /// Per-observation residual gate (pixels) — rejects mistracks.
    pub residual_gate_px: f64,
}

impl Default for MsckfConfig {
    fn default() -> Self {
        MsckfConfig {
            max_clones: 30,
            sigma_px: 1.5,
            gyro_noise: 2e-3,
            accel_noise: 2e-2,
            gyro_bias_noise: 2e-5,
            accel_bias_noise: 2e-4,
            min_track_length: 3,
            max_update_features: 40,
            residual_gate_px: 8.0,
        }
    }
}

/// One camera clone (pose snapshot at a past frame).
#[derive(Debug, Clone, Copy)]
struct CloneState {
    id: u64,
    rotation: Quaternion,
    position: Vec3,
}

/// One stored feature observation.
#[derive(Debug, Clone, Copy)]
struct TrackObs {
    clone_id: u64,
    pixel: Vec2,
}

/// The MSCKF filter.
///
/// # Example
///
/// ```
/// use eudoxus_backend::{Msckf, MsckfConfig};
/// use eudoxus_geometry::{Pose, Vec3};
///
/// let mut filter = Msckf::new(MsckfConfig::default());
/// filter.initialize(Pose::identity(), Vec3::zero(), 0.0);
/// assert!(filter.pose().is_some());
/// ```
#[derive(Debug)]
pub struct Msckf {
    cfg: MsckfConfig,
    // Nominal state.
    rotation: Quaternion,
    position: Vec3,
    velocity: Vec3,
    gyro_bias: Vec3,
    accel_bias: Vec3,
    clones: Vec<CloneState>,
    /// Error-state covariance, `(15 + 6·len(clones))²`.
    cov: Matrix,
    /// Live feature tracks: id → observations in window order.
    tracks: HashMap<u64, Vec<TrackObs>>,
    last_imu_t: f64,
    next_clone_id: u64,
    initialized: bool,
}

impl Msckf {
    /// Creates an uninitialized filter.
    pub fn new(cfg: MsckfConfig) -> Self {
        Msckf {
            cfg,
            rotation: Quaternion::identity(),
            position: Vec3::zero(),
            velocity: Vec3::zero(),
            gyro_bias: Vec3::zero(),
            accel_bias: Vec3::zero(),
            clones: Vec::new(),
            cov: Matrix::zeros(BODY_DIM, BODY_DIM),
            tracks: HashMap::new(),
            last_imu_t: 0.0,
            next_clone_id: 0,
            initialized: false,
        }
    }

    /// Initializes the filter at a known pose and velocity.
    pub fn initialize(&mut self, pose: Pose, velocity: Vec3, t: f64) {
        self.rotation = pose.rotation;
        self.position = pose.translation;
        self.velocity = velocity;
        self.gyro_bias = Vec3::zero();
        self.accel_bias = Vec3::zero();
        self.clones.clear();
        self.tracks.clear();
        self.last_imu_t = t;
        // Initial uncertainty: small pose, modest velocity/bias.
        let mut p = Matrix::zeros(BODY_DIM, BODY_DIM);
        for i in 0..3 {
            p[(THETA + i, THETA + i)] = 1e-4;
            p[(BG + i, BG + i)] = 1e-4;
            p[(VEL + i, VEL + i)] = 1e-2;
            p[(BA + i, BA + i)] = 1e-2;
            p[(POS + i, POS + i)] = 1e-4;
        }
        self.cov = p;
        self.initialized = true;
    }

    /// Whether [`Msckf::initialize`] has run.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Clears all state back to uninitialized.
    pub fn reset(&mut self) {
        *self = Msckf::new(self.cfg);
    }

    /// Current body pose estimate.
    pub fn pose(&self) -> Option<Pose> {
        self.initialized
            .then(|| Pose::new(self.rotation, self.position))
    }

    /// Current velocity estimate.
    pub fn velocity(&self) -> Vec3 {
        self.velocity
    }

    /// Number of camera clones in the window.
    pub fn window_len(&self) -> usize {
        self.clones.len()
    }

    /// Total error-state dimension.
    fn state_dim(&self) -> usize {
        BODY_DIM + CLONE_DIM * self.clones.len()
    }

    /// Error-state offset of clone `k` in window order.
    fn clone_offset(&self, k: usize) -> usize {
        BODY_DIM + CLONE_DIM * k
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    /// Propagates the nominal state and covariance through IMU readings.
    pub fn propagate(&mut self, readings: &[ImuReading]) {
        for r in readings {
            let dt = (r.t - self.last_imu_t).clamp(1e-5, 0.1);
            self.propagate_one(r, dt);
            self.last_imu_t = r.t;
        }
    }

    fn propagate_one(&mut self, r: &ImuReading, dt: f64) {
        let omega = r.gyro - self.gyro_bias;
        let accel = r.accel - self.accel_bias;
        let rot = self.rotation.to_matrix();
        let a_world = rot * accel + GRAVITY;

        // Nominal state (first-order with midpoint position).
        let v_old = self.velocity;
        self.velocity += a_world * dt;
        self.position += (v_old + self.velocity) * (0.5 * dt);
        self.rotation = self.rotation * Quaternion::from_rotation_vector(omega * dt);
        self.rotation.renormalize();

        // Error-state transition Φ = I + F·dt (+ ½F²dt² on the dominant
        // chain δθ→δv→δp).
        let mut phi = Matrix::identity(BODY_DIM);
        // δθ̇ = -R̂ δbg
        for i in 0..3 {
            for j in 0..3 {
                phi[(THETA + i, BG + j)] = -rot.m[i][j] * dt;
            }
        }
        // δv̇ = -hat(R̂·â)·δθ − R̂·δba
        let a_hat = Mat3::hat(rot * accel);
        for i in 0..3 {
            for j in 0..3 {
                phi[(VEL + i, THETA + j)] = -a_hat.m[i][j] * dt;
                phi[(VEL + i, BA + j)] = -rot.m[i][j] * dt;
            }
        }
        // δṗ = δv, with second-order δp ← δp + δv dt + ½(δv̇)dt².
        for i in 0..3 {
            phi[(POS + i, VEL + i)] = dt;
            for j in 0..3 {
                phi[(POS + i, THETA + j)] = -0.5 * a_hat.m[i][j] * dt * dt;
                phi[(POS + i, BA + j)] = -0.5 * rot.m[i][j] * dt * dt;
            }
        }

        // Blockwise covariance propagation:
        //   P_bb ← Φ P_bb Φᵀ + Q,  P_bc ← Φ P_bc (clone blocks untouched).
        let n = self.state_dim();
        let p_bb = self.cov.block(0, 0, BODY_DIM, BODY_DIM).expect("body block");
        let new_bb = phi
            .matmul(&p_bb)
            .and_then(|m| m.matmul(&phi.transpose()))
            .expect("body covariance product");
        self.cov.set_block(0, 0, &new_bb).expect("body block fits");
        if n > BODY_DIM {
            let p_bc = self
                .cov
                .block(0, BODY_DIM, BODY_DIM, n - BODY_DIM)
                .expect("cross block");
            let new_bc = phi.matmul(&p_bc).expect("cross product");
            self.cov.set_block(0, BODY_DIM, &new_bc).expect("cross fits");
            self.cov
                .set_block(BODY_DIM, 0, &new_bc.transpose())
                .expect("cross fits");
        }
        // Additive process noise.
        let qg = self.cfg.gyro_noise * self.cfg.gyro_noise * dt;
        let qa = self.cfg.accel_noise * self.cfg.accel_noise * dt;
        let qbg = self.cfg.gyro_bias_noise * self.cfg.gyro_bias_noise * dt;
        let qba = self.cfg.accel_bias_noise * self.cfg.accel_bias_noise * dt;
        for i in 0..3 {
            self.cov[(THETA + i, THETA + i)] += qg;
            self.cov[(BG + i, BG + i)] += qbg;
            self.cov[(VEL + i, VEL + i)] += qa;
            self.cov[(BA + i, BA + i)] += qba;
            self.cov[(POS + i, POS + i)] += qa * dt * dt / 3.0;
        }
        self.cov.symmetrize();
    }

    // ------------------------------------------------------------------
    // Clone management
    // ------------------------------------------------------------------

    /// Clones the current pose into the sliding window, growing the
    /// covariance, and returns the clone id.
    pub fn augment_clone(&mut self) -> u64 {
        let id = self.next_clone_id;
        self.next_clone_id += 1;
        let n = self.state_dim();
        // P_new = [P, P·Jᵀ; J·P, J·P·Jᵀ] with J picking (δθ, δp) rows.
        let mut grown = Matrix::zeros(n + CLONE_DIM, n + CLONE_DIM);
        grown
            .set_block(0, 0, &self.cov)
            .expect("existing covariance fits");
        // J·P: rows THETA..THETA+3 and POS..POS+3 of P.
        let mut jp = Matrix::zeros(CLONE_DIM, n);
        for j in 0..n {
            for i in 0..3 {
                jp[(i, j)] = self.cov[(THETA + i, j)];
                jp[(3 + i, j)] = self.cov[(POS + i, j)];
            }
        }
        grown.set_block(n, 0, &jp).expect("jp fits");
        grown.set_block(0, n, &jp.transpose()).expect("pj fits");
        // J·P·Jᵀ.
        let mut jpj = Matrix::zeros(CLONE_DIM, CLONE_DIM);
        for i in 0..CLONE_DIM {
            let src_i = if i < 3 { THETA + i } else { POS + i - 3 };
            for j in 0..CLONE_DIM {
                let src_j = if j < 3 { THETA + j } else { POS + j - 3 };
                jpj[(i, j)] = self.cov[(src_i, src_j)];
            }
        }
        grown.set_block(n, n, &jpj).expect("jpj fits");
        self.cov = grown;
        self.clones.push(CloneState {
            id,
            rotation: self.rotation,
            position: self.position,
        });
        id
    }

    /// Records one feature observation against a clone.
    pub fn record_observation(&mut self, track_id: u64, clone_id: u64, pixel: Vec2) {
        self.tracks
            .entry(track_id)
            .or_default()
            .push(TrackObs { clone_id, pixel });
    }

    // ------------------------------------------------------------------
    // Measurement update
    // ------------------------------------------------------------------

    /// Runs the visual measurement update for one frame.
    ///
    /// `current_track_ids` are the tracks observed this frame (tracks *not*
    /// in this set are complete and get used up); the update also fires for
    /// the oldest clones when the window is full. Timing is recorded into
    /// `timer` under the paper's kernel names.
    pub fn update_from_tracks(
        &mut self,
        camera: &PinholeCamera,
        current_track_ids: &std::collections::HashSet<u64>,
        timer: &mut KernelTimer,
    ) {
        if !self.initialized {
            return;
        }
        // Select completed tracks.
        let mut candidates: Vec<u64> = self
            .tracks
            .iter()
            .filter(|(id, obs)| {
                !current_track_ids.contains(id) && obs.len() >= self.cfg.min_track_length
            })
            .map(|(&id, _)| id)
            .collect();
        // If the window is full, also consume tracks touching the clones
        // about to be pruned.
        let window_full = self.clones.len() >= self.cfg.max_clones;
        if window_full {
            let prune_ids: Vec<u64> = self
                .clones
                .iter()
                .take(self.cfg.max_clones / 3)
                .map(|c| c.id)
                .collect();
            for (&tid, obs) in &self.tracks {
                if obs.len() >= self.cfg.min_track_length
                    && obs.iter().any(|o| prune_ids.contains(&o.clone_id))
                    && !candidates.contains(&tid)
                {
                    candidates.push(tid);
                }
            }
        }
        candidates.sort_unstable();
        candidates.truncate(self.cfg.max_update_features);

        if !candidates.is_empty() {
            self.feature_update(camera, &candidates, timer);
        }
        // Drop consumed tracks.
        for id in &candidates {
            self.tracks.remove(id);
        }
        // Prune clones once the window is full.
        if window_full {
            self.prune_oldest_clones(self.cfg.max_clones / 3);
        }
        // Drop tracks that reference clones no longer in the window.
        let live: std::collections::HashSet<u64> = self.clones.iter().map(|c| c.id).collect();
        self.tracks.retain(|_, obs| {
            obs.retain(|o| live.contains(&o.clone_id));
            !obs.is_empty()
        });
    }

    /// Builds the stacked measurement model for the chosen features and
    /// applies the EKF update.
    fn feature_update(&mut self, camera: &PinholeCamera, feature_ids: &[u64], timer: &mut KernelTimer) {
        let n = self.state_dim();
        // [Jacobian] triangulation + per-feature Jacobians with nullspace
        // projection, written straight into the stacked row-major H.
        let (h_all, r_all) = timer.time(Kernel::Jacobian, feature_ids.len(), || {
            let mut h_data: Vec<f64> = Vec::new();
            let mut r_rows: Vec<f64> = Vec::new();
            for &fid in feature_ids {
                if let Some(fj) = self.feature_jacobian(camera, fid) {
                    fj.project_nullspace(n, &mut h_data, &mut r_rows);
                }
            }
            let rows = r_rows.len();
            (Matrix::from_vec(rows, n, h_data), Vector::from_vec(r_rows))
        });

        if h_all.rows() == 0 {
            return;
        }

        // [QR] measurement compression when over-determined: H = Q·R, so
        // the update can use the n × n upper-triangular R and (Qᵀr)[..n].
        let compressed = timer.time(Kernel::QrCompression, h_all.rows(), || {
            if h_all.rows() > n {
                Qr::factor(&h_all)
                    .ok()
                    .map(|qr| (qr.r(), qr.qt_mul(&r_all).segment(0, n)))
            } else {
                None
            }
        });
        let upper = compressed.is_some();
        let (h_used, r_used) = compressed.unwrap_or((h_all, r_all));

        let rows = h_used.rows();
        // [Cov] innovation covariance S = H P Hᵀ + σ²I and P·Hᵀ. A
        // compressed H = R is upper-triangular; its structural zeros are
        // skipped (bit-identical, see `Matrix::matmul_upper`).
        let (s, pht) = timer.time(Kernel::Covariance, rows, || {
            let pht = if upper {
                self.cov.matmul_upper_tr(&h_used)
            } else {
                self.cov.matmul(&h_used.transpose())
            }
            .expect("P·Hᵀ dimensions");
            let mut s = h_used.matmul(&pht).expect("H·P·Hᵀ dimensions");
            let sigma2 = self.cfg.sigma_px * self.cfg.sigma_px;
            s.add_diag(sigma2);
            s.symmetrize();
            (s, pht)
        });

        // [Kalman Gain] solve S·Kᵀ = (P·Hᵀ)ᵀ via Cholesky + substitution.
        let gain = timer.time(Kernel::KalmanGain, rows, || {
            Cholesky::factor(&s)
                .and_then(|ch| ch.solve_matrix(&pht.transpose()))
                .map(|kt| kt.transpose())
        });
        let Ok(k) = gain else { return };

        // State correction δx = K·r.
        let dx = k.matvec(&r_used);
        self.apply_correction(&dx);
        // Covariance: P ← (I − K·H)·P, then symmetrize.
        let kh = if upper {
            k.matmul_upper(&h_used)
        } else {
            k.matmul(&h_used)
        }
        .expect("K·H dimensions");
        let mut ikh = Matrix::identity(n);
        ikh -= &kh;
        self.cov = ikh.matmul(&self.cov).expect("covariance update");
        self.cov.symmetrize();
    }

    /// Triangulates one feature and builds its measurement Jacobians, or
    /// `None` when the track is too short, fails to triangulate, lands
    /// behind a camera or fails the residual gate.
    fn feature_jacobian(&self, camera: &PinholeCamera, fid: u64) -> Option<FeatureJacobian> {
        let obs = self.tracks.get(&fid)?;
        // Gather (pose, pixel, window slot) for observations whose clones
        // are still in the window.
        let mut pairs: Vec<(Pose, Vec2, usize)> = Vec::new();
        for o in obs {
            if let Some(k) = self.clones.iter().position(|c| c.id == o.clone_id) {
                pairs.push((
                    Pose::new(self.clones[k].rotation, self.clones[k].position),
                    o.pixel,
                    k,
                ));
            }
        }
        if pairs.len() < self.cfg.min_track_length {
            return None;
        }
        let tri_input: Vec<(Pose, Vec2)> = pairs.iter().map(|&(p, z, _)| (p, z)).collect();
        let p_f = triangulate_multi_view(camera, &tri_input).ok()?;
        let m = pairs.len();
        if 2 * m <= 3 {
            return None;
        }
        // H_x is zero outside the 6 columns of each observed clone, so only
        // those are stored: slot s of `slots` owns local columns 6s..6s+6.
        let mut slots: Vec<usize> = pairs.iter().map(|&(_, _, k)| k).collect();
        slots.sort_unstable();
        slots.dedup();
        let w = CLONE_DIM * slots.len();
        let mut h_f = Matrix::zeros(2 * m, 3);
        let mut h_xr = Matrix::zeros(2 * m, w + 1);
        for (row, (pose, z, k)) in pairs.iter().enumerate() {
            let p_cam = pose.inverse_transform(p_f);
            if p_cam.z <= 0.05 {
                return None;
            }
            let pred = camera.project(p_cam)?;
            let r = *z - pred;
            if r.norm() > self.cfg.residual_gate_px {
                return None;
            }
            let j_pi = camera.projection_jacobian(p_cam);
            let rot_t = pose.rotation.conjugate().to_matrix();
            // H_f = Jπ · R̂ᵀ
            let jf = mat2x3_mul(&j_pi, &rot_t);
            // H_θ = Jπ · R̂ᵀ · hat(p_f − p_clone)
            let jtheta = mat2x3_mul(&jf, &Mat3::hat(p_f - pose.translation));
            let off = CLONE_DIM * slots.binary_search(k).expect("slot of an observed clone");
            for (d, r_d) in [r.x, r.y].into_iter().enumerate() {
                let h_row = h_xr.row_mut(2 * row + d);
                for c in 0..3 {
                    h_row[off + c] = jtheta[d][c];
                    h_row[off + 3 + c] = -jf[d][c];
                }
                h_row[w] = r_d;
                h_f.row_mut(2 * row + d).copy_from_slice(&jf[d]);
            }
        }
        Some(FeatureJacobian {
            h_f,
            h_xr,
            offsets: slots.iter().map(|&k| self.clone_offset(k)).collect(),
        })
    }

    /// Applies an error-state correction to the nominal state.
    fn apply_correction(&mut self, dx: &Vector) {
        let dtheta = Vec3::new(dx[THETA], dx[THETA + 1], dx[THETA + 2]);
        self.rotation = Quaternion::from_rotation_vector(dtheta) * self.rotation;
        self.gyro_bias += Vec3::new(dx[BG], dx[BG + 1], dx[BG + 2]);
        self.velocity += Vec3::new(dx[VEL], dx[VEL + 1], dx[VEL + 2]);
        self.accel_bias += Vec3::new(dx[BA], dx[BA + 1], dx[BA + 2]);
        self.position += Vec3::new(dx[POS], dx[POS + 1], dx[POS + 2]);
        for (k, clone) in self.clones.iter_mut().enumerate() {
            let off = BODY_DIM + CLONE_DIM * k;
            let dth = Vec3::new(dx[off], dx[off + 1], dx[off + 2]);
            clone.rotation = Quaternion::from_rotation_vector(dth) * clone.rotation;
            clone.position += Vec3::new(dx[off + 3], dx[off + 4], dx[off + 5]);
        }
    }

    /// Direct position measurement update (the loosely-coupled GPS fusion
    /// path — paper's "Fusion" block, a small EKF step on the position
    /// sub-state).
    pub fn update_position(&mut self, measured: Vec3, sigma: f64) {
        if !self.initialized {
            return;
        }
        let n = self.state_dim();
        // H picks the position block.
        let mut h = Matrix::zeros(3, n);
        for i in 0..3 {
            h[(i, POS + i)] = 1.0;
        }
        let r = Vector::from_slice(&[
            measured.x - self.position.x,
            measured.y - self.position.y,
            measured.z - self.position.z,
        ]);
        let pht = self.cov.matmul(&h.transpose()).expect("P·Hᵀ");
        let mut s = h.matmul(&pht).expect("H·P·Hᵀ");
        s.add_diag(sigma * sigma);
        let Ok(ch) = Cholesky::factor(&s) else { return };
        let Ok(kt) = ch.solve_matrix(&pht.transpose()) else {
            return;
        };
        let k = kt.transpose();
        let dx = k.matvec(&r);
        self.apply_correction(&dx);
        let kh = k.matmul(&h).expect("K·H");
        let mut ikh = Matrix::identity(n);
        ikh -= &kh;
        self.cov = ikh.matmul(&self.cov).expect("covariance update");
        self.cov.symmetrize();
    }

    /// Removes the `count` oldest clones (and their covariance
    /// rows/columns).
    fn prune_oldest_clones(&mut self, count: usize) {
        let count = count.min(self.clones.len());
        if count == 0 {
            return;
        }
        let n = self.state_dim();
        let keep: Vec<usize> = (0..BODY_DIM)
            .chain((BODY_DIM + CLONE_DIM * count)..n)
            .collect();
        let mut shrunk = Matrix::zeros(keep.len(), keep.len());
        for (i, &si) in keep.iter().enumerate() {
            for (j, &sj) in keep.iter().enumerate() {
                shrunk[(i, j)] = self.cov[(si, sj)];
            }
        }
        self.cov = shrunk;
        self.clones.drain(0..count);
    }

    /// Position 1-σ bounds from the covariance diagonal (meters).
    pub fn position_sigma(&self) -> Vec3 {
        Vec3::new(
            self.cov[(POS, POS)].max(0.0).sqrt(),
            self.cov[(POS + 1, POS + 1)].max(0.0).sqrt(),
            self.cov[(POS + 2, POS + 2)].max(0.0).sqrt(),
        )
    }

    /// Number of live feature tracks buffered in the window.
    pub fn live_track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Clone ids currently in the window, oldest first (for tests).
    pub fn window_clone_ids(&self) -> Vec<u64> {
        self.clones.iter().map(|c| c.id).collect()
    }

    /// Sum of per-track observation counts (sizes the Jacobian workload).
    pub fn buffered_observation_count(&self) -> usize {
        self.tracks.values().map(|v| v.len()).sum()
    }
}

/// One feature's linearized measurement, before nullspace projection.
#[derive(Debug)]
struct FeatureJacobian {
    /// `H_f`, `2m × 3`: the Jacobian with respect to the feature position.
    h_f: Matrix,
    /// `[H_x | r]` restricted to the observed clones: `2m × (6c + 1)`, the
    /// last column being the residual.
    h_xr: Matrix,
    /// Error-state offset of each observed clone, in local column order.
    offsets: Vec<usize>,
}

impl FeatureJacobian {
    /// Projects `[H_x | r]` onto the left nullspace of `H_f` (dropping the
    /// 3 rows `H_f` spans) and appends the resulting rows to the stacked,
    /// row-major `h` (width `n`) and `r`.
    ///
    /// `Qᵀ` is applied only to the observed clones' columns: every other
    /// column of `H_x` is zero and `Qᵀ·0` is exactly `+0`, the value `h` is
    /// padded with, so this is bit-identical to projecting all `n` columns.
    fn project_nullspace(&self, n: usize, h: &mut Vec<f64>, r: &mut Vec<f64>) {
        let Ok(qr) = Qr::factor(&self.h_f) else { return };
        let projected = qr.qt_mul_matrix(&self.h_xr);
        let w = self.h_xr.cols() - 1;
        for row in 3..projected.rows() {
            let src = projected.row(row);
            let start = h.len();
            h.resize(start + n, 0.0);
            let dst = &mut h[start..];
            for (slot, &off) in self.offsets.iter().enumerate() {
                dst[off..off + CLONE_DIM]
                    .copy_from_slice(&src[CLONE_DIM * slot..CLONE_DIM * (slot + 1)]);
            }
            r.push(src[w]);
        }
    }
}

/// `(2×3) · (3×3)` helper on array Jacobians.
fn mat2x3_mul(j: &[[f64; 3]; 2], m: &Mat3) -> [[f64; 3]; 2] {
    let mut out = [[0.0; 3]; 2];
    for r in 0..2 {
        for c in 0..3 {
            out[r][c] = (0..3).map(|k| j[r][k] * m.m[k][c]).sum();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelTimer;
    use eudoxus_geometry::PinholeCamera;

    fn camera() -> PinholeCamera {
        PinholeCamera::centered(450.0, 640, 480)
    }

    /// Ideal IMU for a body at rest: zero gyro, specific force −gravity in
    /// body frame (identity attitude ⇒ +9.80665 on z... body y is down
    /// only for heading attitudes; identity here means body = world).
    fn rest_reading(t: f64) -> ImuReading {
        ImuReading {
            t,
            gyro: Vec3::zero(),
            accel: Vec3::new(0.0, 0.0, 9.80665),
        }
    }

    #[test]
    fn stationary_propagation_stays_put() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        let readings: Vec<ImuReading> = (1..=200).map(|i| rest_reading(i as f64 * 0.005)).collect();
        f.propagate(&readings);
        let pose = f.pose().unwrap();
        assert!(pose.translation.norm() < 1e-6, "drifted {}", pose.translation);
        assert!(f.velocity().norm() < 1e-6);
    }

    #[test]
    fn constant_acceleration_integrates_correctly() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        // 1 m/s² along world x for 1 s ⇒ p = 0.5 m, v = 1 m/s.
        let readings: Vec<ImuReading> = (1..=200)
            .map(|i| ImuReading {
                t: i as f64 * 0.005,
                gyro: Vec3::zero(),
                accel: Vec3::new(1.0, 0.0, 9.80665),
            })
            .collect();
        f.propagate(&readings);
        assert!((f.pose().unwrap().translation.x - 0.5).abs() < 1e-3);
        assert!((f.velocity().x - 1.0).abs() < 1e-3);
    }

    #[test]
    fn covariance_grows_during_dead_reckoning() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        let s0 = f.position_sigma().norm();
        let readings: Vec<ImuReading> = (1..=400).map(|i| rest_reading(i as f64 * 0.005)).collect();
        f.propagate(&readings);
        assert!(f.position_sigma().norm() > s0);
    }

    #[test]
    fn augmentation_grows_window_and_covariance() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        assert_eq!(f.window_len(), 0);
        let id0 = f.augment_clone();
        let id1 = f.augment_clone();
        assert_eq!(f.window_len(), 2);
        assert_ne!(id0, id1);
        assert_eq!(f.cov.shape(), (27, 27));
        // Clone covariance mirrors body pose covariance.
        assert!((f.cov[(15, 15)] - f.cov[(0, 0)]).abs() < 1e-12);
        assert!((f.cov[(18, 18)] - f.cov[(12, 12)]).abs() < 1e-12);
    }

    #[test]
    fn position_update_pulls_toward_measurement() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        // Let position uncertainty grow first.
        let readings: Vec<ImuReading> = (1..=200).map(|i| rest_reading(i as f64 * 0.005)).collect();
        f.propagate(&readings);
        let before = f.pose().unwrap().translation;
        f.update_position(Vec3::new(1.0, 0.0, 0.0), 0.5);
        let after = f.pose().unwrap().translation;
        assert!(after.x > before.x + 1e-4, "no pull: {} → {}", before.x, after.x);
        assert!(after.x < 1.0, "overshoot: {}", after.x);
    }

    /// Full visual-update loop on perfect synthetic data: a camera moving
    /// along x observing fixed landmarks; the update must keep drift far
    /// below dead reckoning with biased IMU.
    #[test]
    fn visual_updates_bound_drift() {
        let cam = camera();
        let landmarks = grid_landmarks(40);
        let dt_frame = 0.1;
        let imu_dt = 0.005;
        let gyro_bias = Vec3::new(0.002, -0.001, 0.0015);

        let run = |with_vision: bool| -> f64 {
            let mut f = Msckf::new(MsckfConfig {
                max_clones: 8,
                ..MsckfConfig::default()
            });
            f.initialize(Pose::identity(), Vec3::new(0.5, 0.0, 0.0), 0.0);
            let mut timer = KernelTimer::new();
            for frame in 1..=30u64 {
                let t0 = (frame - 1) as f64 * dt_frame;
                // True motion: constant velocity 0.5 m/s along x.
                let readings: Vec<ImuReading> = (1..=20)
                    .map(|i| ImuReading {
                        t: t0 + i as f64 * imu_dt,
                        gyro: gyro_bias, // pure bias, no true rotation
                        accel: Vec3::new(0.0, 0.0, 9.80665),
                    })
                    .collect();
                f.propagate(&readings);
                let clone_id = f.augment_clone();
                let true_pos = Vec3::new(0.5 * (t0 + dt_frame), 0.0, 0.0);
                let true_pose = Pose::new(Quaternion::identity(), true_pos);
                let mut seen = std::collections::HashSet::new();
                if with_vision {
                    for (li, lm) in landmarks.iter().enumerate() {
                        if let Some(px) = cam.project_in_bounds(true_pose.inverse_transform(*lm)) {
                            f.record_observation(li as u64, clone_id, px);
                            seen.insert(li as u64);
                        }
                    }
                }
                f.update_from_tracks(&cam, &seen, &mut timer);
            }
            let true_final = Vec3::new(0.5 * 30.0 * dt_frame, 0.0, 0.0);
            (f.pose().unwrap().translation - true_final).norm()
        };

        let drift_without = run(false);
        let drift_with = run(true);
        assert!(
            drift_with < drift_without * 0.5,
            "vision {drift_with:.3} m vs dead-reckoning {drift_without:.3} m"
        );
        assert!(drift_with < 0.3, "vision drift too large: {drift_with:.3} m");
    }

    #[test]
    fn window_is_bounded_and_prunes_oldest() {
        let cam = camera();
        let mut f = Msckf::new(MsckfConfig {
            max_clones: 6,
            ..MsckfConfig::default()
        });
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        let mut timer = KernelTimer::new();
        for i in 0..20 {
            let readings = [rest_reading(i as f64 * 0.1 + 0.05)];
            f.propagate(&readings);
            f.augment_clone();
            f.update_from_tracks(&cam, &std::collections::HashSet::new(), &mut timer);
        }
        assert!(f.window_len() <= 6, "window {}", f.window_len());
        let ids = f.window_clone_ids();
        // Oldest ids must have been pruned.
        assert!(ids[0] > 0);
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn kernel_timings_are_recorded() {
        let cam = camera();
        let mut f = Msckf::new(MsckfConfig {
            max_clones: 5,
            min_track_length: 3,
            ..MsckfConfig::default()
        });
        // Constant velocity 0.5 m/s along x gives the parallax
        // triangulation needs.
        f.initialize(Pose::identity(), Vec3::new(0.5, 0.0, 0.0), 0.0);
        let mut timer = KernelTimer::new();
        let lms: Vec<Vec3> = (0..10)
            .map(|i| Vec3::new(i as f64 * 0.5 - 2.0, 0.3, 5.0))
            .collect();
        for frame in 1..=5u64 {
            let t0 = (frame - 1) as f64 * 0.1;
            let readings: Vec<ImuReading> = (1..=20)
                .map(|i| rest_reading(t0 + i as f64 * 0.005))
                .collect();
            f.propagate(&readings);
            let cid = f.augment_clone();
            let true_pose = Pose::new(
                Quaternion::identity(),
                Vec3::new(0.5 * frame as f64 * 0.1, 0.0, 0.0),
            );
            let mut seen = std::collections::HashSet::new();
            if frame <= 4 {
                for (li, lm) in lms.iter().enumerate() {
                    if let Some(px) = cam.project_in_bounds(true_pose.inverse_transform(*lm)) {
                        f.record_observation(li as u64, cid, px);
                        seen.insert(li as u64);
                    }
                }
            }
            f.update_from_tracks(&cam, &seen, &mut timer);
        }
        // After the tracks end (frame 5), the update must have fired.
        let kinds: std::collections::HashSet<_> =
            timer.samples().iter().map(|s| s.kernel).collect();
        assert!(kinds.contains(&Kernel::Jacobian), "kinds: {kinds:?}");
        assert!(kinds.contains(&Kernel::Covariance), "kinds: {kinds:?}");
        assert!(kinds.contains(&Kernel::KalmanGain), "kinds: {kinds:?}");
    }

    /// A filter moving at 0.5 m/s along x that has cloned `frames` poses
    /// and recorded every in-view landmark at each clone, without running
    /// an update.
    fn observed_window(cam: &PinholeCamera, max_clones: usize, frames: u64) -> Msckf {
        let mut f = Msckf::new(MsckfConfig {
            max_clones,
            ..MsckfConfig::default()
        });
        f.initialize(Pose::identity(), Vec3::new(0.5, 0.0, 0.0), 0.0);
        for frame in 1..=frames {
            let t0 = (frame - 1) as f64 * 0.1;
            let readings: Vec<ImuReading> = (1..=20)
                .map(|i| rest_reading(t0 + i as f64 * 0.005))
                .collect();
            f.propagate(&readings);
            let cid = f.augment_clone();
            let pose = Pose::new(
                Quaternion::identity(),
                Vec3::new(0.05 * frame as f64, 0.0, 0.0),
            );
            for (li, lm) in grid_landmarks(16).iter().enumerate() {
                if let Some(px) = cam.project_in_bounds(pose.inverse_transform(*lm)) {
                    f.record_observation(li as u64, cid, px);
                }
            }
        }
        f
    }

    /// Fixed landmarks 6–8 m in front of the camera, 8 per row.
    fn grid_landmarks(count: usize) -> Vec<Vec3> {
        (0..count)
            .map(|i| {
                Vec3::new(
                    (i % 8) as f64 * 1.2 - 4.0,
                    ((i / 8) % 5) as f64 * 1.0 - 2.0,
                    6.0 + (i % 3) as f64,
                )
            })
            .collect()
    }

    /// Reference: the full-width projection — `Qᵀ` applied to every one of
    /// the `n` columns of `H_x`, one `qt_mul` per column, then the residual.
    fn full_width_projection(fj: &FeatureJacobian, n: usize) -> (Vec<f64>, Vec<f64>) {
        let rows = fj.h_xr.rows();
        let w = fj.h_xr.cols() - 1;
        let mut h_x = Matrix::zeros(rows, n);
        for r in 0..rows {
            for (slot, &off) in fj.offsets.iter().enumerate() {
                for c in 0..CLONE_DIM {
                    h_x[(r, off + c)] = fj.h_xr[(r, CLONE_DIM * slot + c)];
                }
            }
        }
        let qr = Qr::factor(&fj.h_f).unwrap();
        let mut projected = Matrix::zeros(rows - 3, n);
        for col in 0..n {
            let v = qr.qt_mul(&h_x.col(col));
            for row in 3..rows {
                projected[(row - 3, col)] = v[row];
            }
        }
        let v = qr.qt_mul(&fj.h_xr.col(w));
        (projected.into_vec(), v.as_slice()[3..].to_vec())
    }

    #[test]
    fn column_restricted_projection_matches_full_width() {
        let cam = camera();
        let f = observed_window(&cam, 30, 8);
        let n = f.state_dim();
        let mut checked = 0;
        for fid in 0..16u64 {
            let Some(fj) = f.feature_jacobian(&cam, fid) else { continue };
            let (mut h, mut r) = (Vec::new(), Vec::new());
            fj.project_nullspace(n, &mut h, &mut r);
            let (h_ref, r_ref) = full_width_projection(&fj, n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&h), bits(&h_ref), "feature {fid}: H rows");
            assert_eq!(bits(&r), bits(&r_ref), "feature {fid}: residual");
            assert!(fj.offsets.len() > 2 && r.len() == 2 * fj.offsets.len() - 3);
            checked += 1;
        }
        assert!(checked >= 8, "only {checked} features projected");
    }

    #[test]
    fn full_window_burst_update_compresses_and_prunes() {
        // The paper's 30-clone window: once full, the update consumes every
        // track touching the 10 oldest clones, stacks more rows than the
        // 195-dim state and runs the QR-compressed path.
        let cam = camera();
        let mut f = observed_window(&cam, 30, 30);
        assert_eq!(f.state_dim(), 195);
        let mut timer = KernelTimer::new();
        let seen: std::collections::HashSet<u64> = (0..16).collect();
        f.update_from_tracks(&cam, &seen, &mut timer);
        assert_eq!(f.window_len(), 20, "first prune drops the 10 oldest clones");
        let qr = timer
            .samples()
            .iter()
            .find(|s| s.kernel == Kernel::QrCompression)
            .expect("QR compression ran");
        assert!(qr.size > 195, "only {} stacked rows", qr.size);
        let kinds: Vec<Kernel> = timer.samples().iter().map(|s| s.kernel).collect();
        assert!(kinds.contains(&Kernel::KalmanGain), "kinds: {kinds:?}");
        let pose = f.pose().unwrap();
        assert!(pose.translation.x.is_finite() && (pose.translation.x - 1.5).abs() < 0.5);
        assert_eq!(f.cov.shape(), (135, 135));
        assert!(f.cov.asymmetry() == 0.0);
    }

    #[test]
    fn reset_clears_initialization() {
        let mut f = Msckf::new(MsckfConfig::default());
        f.initialize(Pose::identity(), Vec3::zero(), 0.0);
        f.augment_clone();
        f.reset();
        assert!(!f.is_initialized());
        assert_eq!(f.window_len(), 0);
    }
}
