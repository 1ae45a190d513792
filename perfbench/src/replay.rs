//! Per-layer replays: batches of identical calls into one layer, each
//! asserting a property of the method it exercises. The harness times a
//! batch from outside and divides by the operation count in the reply.
//!
//! The simulator and p-chase replays run at the scale of the `l2-large`
//! workload's preset (H100-80), where discovery spends its time: an FA
//! tag store at the preset's L2 capacity driven by a ring that really
//! wraps, and p-chase rings as large as the L2.

use std::hint::black_box;
use std::sync::Arc;

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mt4g_core::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};
use mt4g_core::serve::{parse_request, CacheKey, Response, ResultCache};
use mt4g_sim::cache::SectoredCache;
use mt4g_sim::device::{CacheKind, CacheSpec, LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets;
use mt4g_sim::NoiseModel;
use mt4g_stats::cpd::{ChangePointDetector, KsChangePointDetector};
use mt4g_stats::ks_test;

type Reply = Result<String, String>;

/// Fixed seed of the replays' own inputs (noise streams, K-S samples).
const REPLAY_SEED: u64 = 0x6d74_3467;
/// Latencies recorded per p-chase run (the thorough discovery setting).
const RECORD_N: usize = 256;
/// K-S sample length (one p-chase row) and CPD series length (one
/// thorough size scan after reduction).
const KS_LEN: usize = 256;
const CPD_LEN: usize = 24;

/// A cache and the ring it is driven with.
struct Ring {
    cache: SectoredCache,
    stride: u64,
    lines: u64,
}

impl Ring {
    /// One lap over the ring; returns the hits it scored.
    fn lap(&mut self) -> u64 {
        let (before, _) = self.cache.stats();
        for i in 0..self.lines {
            black_box(self.cache.access(i * self.stride));
        }
        self.cache.stats().0 - before
    }
}

/// State the replays keep between commands.
#[derive(Default)]
pub struct Replays {
    fa: Option<Ring>,
    sa: Option<Ring>,
    gpu: Option<(Gpu, f64)>,
}

fn h100_spec(kind: CacheKind) -> CacheSpec {
    *presets::h100_80()
        .config
        .cache(kind)
        .expect("H100-80 plants every NVIDIA cache level")
}

fn ops(n: u64) -> String {
    format!(",\"ops\":{n}")
}

impl Replays {
    /// `ServeEngine`'s first step: `parse_request` on the cells' lines.
    pub fn parse(&self, lines: &[String], n: u64) -> Reply {
        if lines.is_empty() {
            return Err("no cells".into());
        }
        for k in 0..n as usize {
            let req = parse_request(black_box(&lines[k % lines.len()])).map_err(|e| e.message)?;
            if req.op != "discover" {
                return Err(format!("line {k} parsed to op {:?}", req.op));
            }
        }
        Ok(ops(n))
    }

    /// `CacheKey::new` over the resolved cells' descriptors.
    pub fn key(&self, descriptors: &[String], n: u64) -> Reply {
        if descriptors.is_empty() {
            return Err("key before setup".into());
        }
        let mut acc = 0u128;
        for k in 0..n as usize {
            acc ^= CacheKey::new(black_box(&descriptors[k % descriptors.len()])).address();
        }
        black_box(acc);
        let mut addrs: Vec<u128> = descriptors
            .iter()
            .map(|d| CacheKey::new(d).address())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.len() != descriptors.len() {
            return Err("two distinct cells share a cache address".into());
        }
        Ok(ops(n))
    }

    /// `ResultCache::get` on a cache holding every cell's bytes.
    pub fn cache_get(&self, descriptors: &[String], bytes: &[Option<String>], n: u64) -> Reply {
        if descriptors.is_empty() || bytes.iter().any(Option::is_none) {
            return Err("get before setup and measurement".into());
        }
        let keys: Vec<CacheKey> = descriptors.iter().map(|d| CacheKey::new(d)).collect();
        let mut cache = ResultCache::new(keys.len());
        for (key, b) in keys.iter().zip(bytes) {
            cache.insert(key, Arc::from(b.as_deref().unwrap_or("")));
        }
        let mut hits = 0u64;
        for k in 0..n as usize {
            hits += cache.get(black_box(&keys[k % keys.len()])).is_some() as u64;
        }
        if hits != n {
            return Err(format!(
                "{} of {n} lookups of cached cells missed",
                n - hits
            ));
        }
        Ok(ops(n))
    }

    /// The daemon writer's step: `serde_json::to_string` of a report
    /// response plus its newline, into a reused line buffer.
    pub fn write(&self, bytes: &[Option<String>], n: u64) -> Reply {
        let responses: Vec<Response> = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| Response::report(i as u64, true, 0, "fp", b.as_deref().unwrap_or("")))
            .collect();
        if responses.is_empty() || bytes.iter().any(Option::is_none) {
            return Err("write before measurement".into());
        }
        let mut out = String::new();
        for k in 0..n as usize {
            out.clear();
            out.push_str(
                &serde_json::to_string(black_box(&responses[k % responses.len()]))
                    .map_err(|e| e.to_string())?,
            );
            out.push('\n');
        }
        for (resp, b) in responses.iter().zip(bytes) {
            let line = serde_json::to_string(resp).map_err(|e| e.to_string())?;
            let back: Response = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            if back.report.as_deref() != b.as_deref() {
                return Err("a written response does not read back to its bytes".into());
            }
        }
        Ok(ops(n))
    }

    /// `ChaCha8Rng::next_u32`, the simulator's noise source.
    pub fn rng(&self, n: u64) -> Reply {
        let mut rng = ChaCha8Rng::seed_from_u64(REPLAY_SEED);
        let mut sum = 0f64;
        for _ in 0..n {
            sum += black_box(rng.next_u32()) as f64;
        }
        let mean = sum / n.max(1) as f64 / 4_294_967_296.0;
        if n >= 100_000 && (mean - 0.5).abs() > 0.01 {
            return Err(format!("u32 stream mean {mean} is not uniform"));
        }
        Ok(ops(n))
    }

    /// `NoiseModel::draw` under the default (per-load) noise model.
    pub fn noise(&self, n: u64) -> Reply {
        let model = NoiseModel::DEFAULT;
        let mut rng = ChaCha8Rng::seed_from_u64(REPLAY_SEED);
        let (mut jitter, mut outliers) = (0f64, 0u64);
        for _ in 0..n {
            let d = model.draw(black_box(&mut rng));
            jitter += d.jitter;
            outliers += (d.outlier > 0.0) as u64;
        }
        if n >= 100_000 {
            let mean = jitter / n as f64;
            let expect = model.outlier_prob * n as f64;
            if mean.abs() > 0.05 * model.jitter_sd {
                return Err(format!("jitter mean {mean} is not centred"));
            }
            if (outliers as f64 - expect).abs() > 6.0 * expect.sqrt() + 1.0 {
                return Err(format!("{outliers} outliers where {expect} were expected"));
            }
        }
        Ok(ops(n))
    }

    /// Builds the FA cache at the H100-80 L2 capacity and runs the first
    /// lap of a ring about 1.1x that capacity (all misses).
    pub fn fa_prime(&mut self) -> Reply {
        let spec = h100_spec(CacheKind::L2);
        let stride = spec.line_size as u64;
        let mut ring = Ring {
            cache: SectoredCache::from_spec(&spec),
            stride,
            lines: (spec.size / stride) * 11 / 10,
        };
        let hits = ring.lap();
        if hits != 0 {
            return Err(format!("a cold lap scored {hits} hits"));
        }
        let body = format!(",\"capacity\":{},\"lines\":{}", spec.size, ring.lines);
        self.fa = Some(ring);
        Ok(body)
    }

    /// `laps` more laps: an LRU ring above capacity hits nothing.
    pub fn fa_laps(&mut self, laps: u64) -> Reply {
        let ring = self.fa.as_mut().ok_or("fa_laps before fa_prime")?;
        let hits: u64 = (0..laps).map(|_| ring.lap()).sum();
        if hits != 0 {
            return Err(format!(
                "a ring above capacity scored {hits} hits after its first lap"
            ));
        }
        Ok(ops(laps * ring.lines))
    }

    /// A 4-way cache at the H100-80 L1 geometry and a ring of half its
    /// capacity, first lap (all misses).
    pub fn sa_prime(&mut self) -> Reply {
        let spec = h100_spec(CacheKind::L1);
        let stride = spec.line_size as u64;
        let mut ring = Ring {
            cache: SectoredCache::new(spec.size, stride, spec.fetch_granularity as u64, 4),
            stride,
            lines: spec.size / stride / 2,
        };
        let hits = ring.lap();
        if hits != 0 {
            return Err(format!("a cold lap scored {hits} hits"));
        }
        self.sa = Some(ring);
        Ok(format!(
            ",\"capacity\":{},\"lines\":{}",
            spec.size,
            self.sa.as_ref().map_or(0, |r| r.lines)
        ))
    }

    /// `laps` more laps: a ring below capacity hits everything.
    pub fn sa_laps(&mut self, laps: u64) -> Reply {
        let ring = self.sa.as_mut().ok_or("sa_laps before sa_prime")?;
        let hits: u64 = (0..laps).map(|_| ring.lap()).sum();
        if hits != laps * ring.lines {
            return Err(format!(
                "a ring below capacity missed {} times after its first lap",
                laps * ring.lines - hits
            ));
        }
        Ok(ops(laps * ring.lines))
    }

    /// Instantiates H100-80 and calibrates the p-chase overhead once.
    pub fn pchase_prep(&mut self) -> Reply {
        let mut gpu = presets::h100_80();
        let overhead = calibrate_overhead(&mut gpu);
        self.gpu = Some((gpu, overhead));
        Ok(format!(",\"overhead\":{overhead}"))
    }

    /// `run_pchase_with_overhead` on a warmed ring, `reps` times:
    /// `l2ring` (the L2's size, `.cg`, default noise), `l2ring_silent`
    /// (same, noise off) or `l1ring` (the L1's size, `.ca`). Replies with
    /// the simulated loads (warm-up lap plus timed steps).
    pub fn pchase(&mut self, ring: &str, reps: u64) -> Reply {
        let (gpu, overhead) = self.gpu.as_mut().ok_or("pchase before pchase_prep")?;
        let (kind, flags, noise) = match ring {
            "l2ring" => (CacheKind::L2, LoadFlags::CACHE_GLOBAL, NoiseModel::DEFAULT),
            "l2ring_silent" => (CacheKind::L2, LoadFlags::CACHE_GLOBAL, NoiseModel::NONE),
            "l1ring" => (CacheKind::L1, LoadFlags::CACHE_ALL, NoiseModel::DEFAULT),
            other => return Err(format!("unknown ring {other:?}")),
        };
        let spec = *gpu.config.cache(kind).ok_or("H100-80 lacks the level")?;
        let fg = spec.fetch_granularity as u64;
        let mut cfg = PchaseConfig::sequential(MemorySpace::Global, flags, spec.size, fg);
        cfg.record_n = RECORD_N;
        gpu.set_noise(noise);
        let mut loads = 0u64;
        let mut medians = Vec::new();
        for _ in 0..reps {
            gpu.free_all();
            gpu.flush_caches();
            let run =
                run_pchase_with_overhead(gpu, &cfg, *overhead).map_err(|e| format!("{e:?}"))?;
            loads += run.elements + RECORD_N as u64;
            let mut l = run.latencies.clone();
            l.sort_by(f64::total_cmp);
            medians.push(l[l.len() / 2]);
        }
        gpu.set_noise(NoiseModel::DEFAULT);
        // A warmed ring that fits its level is served by that level: the
        // median timed load costs the level's planted latency.
        let planted = spec.load_latency as f64;
        if let Some(bad) = medians
            .iter()
            .find(|m| (**m - planted).abs() > 0.25 * planted)
        {
            return Err(format!("{ring}: median latency {bad} vs planted {planted}"));
        }
        Ok(ops(loads))
    }

    /// `ks_test` on one p-chase row against itself (must pass) and against
    /// a copy shifted by one L1-to-L2 step (must reject); `2n` tests.
    pub fn ks(&self, n: u64) -> Reply {
        let mut rng = ChaCha8Rng::seed_from_u64(REPLAY_SEED);
        let a: Vec<f64> = (0..KS_LEN)
            .map(|_| 30.0 + rng.gen_range(0.0..4.0))
            .collect();
        let b: Vec<f64> = a.iter().map(|x| x + 25.0).collect();
        for _ in 0..n {
            if ks_test(black_box(&a), black_box(&a), 0.05).reject {
                return Err("K-S rejected a sample against itself".into());
            }
            if !ks_test(black_box(&a), black_box(&b), 0.05).reject {
                return Err("K-S passed a shifted sample".into());
            }
        }
        Ok(ops(2 * n))
    }

    /// The K-S change-point detector on a reduced size-scan series with
    /// one planted step; it must find the step.
    pub fn cpd(&self, n: u64) -> Reply {
        let mut rng = ChaCha8Rng::seed_from_u64(REPLAY_SEED);
        let step = CPD_LEN / 2;
        let series: Vec<f64> = (0..CPD_LEN)
            .map(|i| if i < step { 30.0 } else { 250.0 } + rng.gen_range(0.0..4.0))
            .collect();
        let detector = KsChangePointDetector::new(0.05);
        for _ in 0..n {
            let cp = detector.detect(black_box(&series));
            if cp.map(|c| c.index) != Some(step) {
                return Err(format!(
                    "change point {:?}, planted at {step}",
                    cp.map(|c| c.index)
                ));
            }
        }
        Ok(ops(n))
    }
}
