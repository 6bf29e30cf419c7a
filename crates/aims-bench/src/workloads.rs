//! Shared synthetic workloads used across experiments.

use aims::drills::XorShift;
use aims_propolyne::cube::DataCube;
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::MultiStream;

/// A non-stationary glove session: rest, casual motion, intense motion —
/// the structure the acquisition experiments need (§3.1 evaluates how
/// strategies react to "the level of activity within the session window").
pub fn mixed_activity_session(seed: u64, segment_s: f64) -> MultiStream {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let mut session = rig.record_session(segment_s, 0.02, &mut noise);
    session.extend(&rig.record_session(segment_s, 0.5, &mut noise));
    session.extend(&rig.record_session(segment_s, 0.95, &mut noise));
    session
}

/// Smooth 2-D cube: mixture of Gaussians over a gentle ramp. Compresses
/// extremely well — the data-approximation-friendly case.
pub fn gaussian_mixture_cube(n: usize) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let centers = [(0.25, 0.3, 40.0), (0.7, 0.6, 60.0), (0.45, 0.85, 25.0)];
    for i in 0..n {
        for j in 0..n {
            let x = i as f64 / n as f64;
            let y = j as f64 / n as f64;
            let mut v = 2.0 + 3.0 * x;
            for &(cx, cy, a) in &centers {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                v += a * (-d2 / 0.02).exp();
            }
            *cube.at_mut(&[i, j]) = v.round();
        }
    }
    cube
}

/// Uniform random cube — incompressible white noise.
pub fn uniform_cube(n: usize, seed: u64) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let mut rng = XorShift(seed.max(1));
    for v in cube.values_mut() {
        *v = (rng.next_u64() % 50) as f64;
    }
    cube
}

/// Zipf-ish cube: a few heavy cells, long light tail.
pub fn zipf_cube(n: usize, seed: u64) -> DataCube {
    let mut cube = DataCube::zeros(&[n, n]);
    let mut rng = XorShift(seed.max(1));
    let cells = n * n;
    for rank in 1..=(cells / 4) {
        let cell = (rng.next_u64() % cells as u64) as usize;
        cube.values_mut()[cell] += (1000.0 / rank as f64).ceil();
    }
    cube
}

/// A cube built from a glove session's (time-bin, value-bin) pairs — the
/// sensor-trace distribution.
pub fn sensor_trace_cube(n: usize, seed: u64) -> DataCube {
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let session = rig.record_session(60.0, 0.6, &mut noise);
    let chan = session.channel(5);
    let (lo, hi) = chan.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let mut cube = DataCube::zeros(&[n, n]);
    for (t, &x) in chan.iter().enumerate() {
        let ti = (t * n / chan.len()).min(n - 1);
        let vi = (((x - lo) / (hi - lo + 1e-9)) * n as f64) as usize;
        *cube.at_mut(&[ti, vi.min(n - 1)]) += 1.0;
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_cubes_have_mass() {
        assert!(gaussian_mixture_cube(32).total() > 0.0);
        assert!(uniform_cube(32, 1).total() > 0.0);
        assert!(zipf_cube(32, 2).total() > 0.0);
        assert!(sensor_trace_cube(32, 3).total() > 0.0);
    }

    #[test]
    fn mixed_session_shape() {
        let s = mixed_activity_session(1, 2.0);
        assert_eq!(s.channels(), 28);
        assert_eq!(s.len(), 600);
    }
}
