//! The Memcached workload model.
//!
//! Memcached is "the pervasive key-value server" the paper evaluates
//! first (§III-C). Its latency-relevant behaviour: a GET/SET mix
//! (Facebook traffic is read-dominated; Atikoglu et al. report ≳90%
//! GETs on most pools), small keys, heavy-tailed values, a short
//! frequency-scalable protocol-parsing CPU component, and a memory-bound
//! hash-table + item-copy component that is sensitive to NUMA placement.

use rand::RngCore;
use serde::{Deserialize, Serialize};
use treadmill_stats::distribution::sample_lognormal;

use crate::profile::{OpClass, RequestProfile, ServiceMoments, Workload};
use crate::sizes::SizeDistribution;

/// Memcached operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemcachedOp {
    /// Read an item.
    Get,
    /// Store an item.
    Set,
}

/// A configurable Memcached service model.
///
/// # Examples
///
/// ```
/// use treadmill_workloads::{Memcached, Workload};
///
/// let workload = Memcached::default();
/// assert_eq!(workload.name(), "memcached");
/// // Mean service demand is in the ~15µs range that makes 1M RPS ≈
/// // full utilisation of a 16-core server.
/// assert!(workload.mean_service_ns() > 8_000.0);
/// assert!(workload.mean_service_ns() < 25_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Memcached {
    /// Fraction of operations that are GETs.
    pub get_fraction: f64,
    /// Key size distribution.
    pub key_size: SizeDistribution,
    /// Value size distribution.
    pub value_size: SizeDistribution,
    /// Fixed CPU cost per request (protocol parse, hash, dispatch), ns
    /// at base frequency.
    pub base_cpu_ns: f64,
    /// Extra CPU per payload byte (copy in/out), ns.
    pub cpu_ns_per_byte: f64,
    /// Fixed memory-bound cost (hash-table walk, item header), ns.
    pub base_mem_ns: f64,
    /// Extra memory-bound cost per payload byte touched, ns.
    pub mem_ns_per_byte: f64,
    /// Log-scale sigma of the multiplicative service-time noise.
    pub service_noise_sigma: f64,
    /// Fraction of requests hitting a slow path (hash-table expansion,
    /// slab reassignment, LRU maintenance) — the heavy-tail component
    /// of real Memcached service times.
    pub slow_fraction: f64,
    /// Service-time multiplier on the slow path.
    pub slow_multiplier: f64,
    /// Fraction of GETs that hit the cache. Misses skip the value copy
    /// (cheap response) but still pay the lookup.
    pub hit_rate: f64,
}

impl Default for Memcached {
    /// The configuration used throughout the reproduction: 90% GETs,
    /// short keys, heavy-tailed values, ≈15µs mean total demand.
    fn default() -> Self {
        Memcached {
            get_fraction: 0.9,
            key_size: SizeDistribution::Uniform { low: 16, high: 40 },
            value_size: SizeDistribution::Mixture {
                components: vec![
                    (0.8, SizeDistribution::Uniform { low: 16, high: 512 }),
                    (
                        0.2,
                        SizeDistribution::Pareto {
                            minimum: 512,
                            shape: 1.6,
                            cap: 16_384,
                        },
                    ),
                ],
            },
            base_cpu_ns: 6_600.0,
            cpu_ns_per_byte: 2.0,
            base_mem_ns: 3_200.0,
            mem_ns_per_byte: 2.0,
            service_noise_sigma: 0.45,
            slow_fraction: 0.012,
            slow_multiplier: 6.0,
            hit_rate: 0.97,
        }
    }
}

impl Memcached {
    fn sample_op(&self, rng: &mut dyn RngCore) -> MemcachedOp {
        use rand::Rng;
        if rng.gen::<f64>() < self.get_fraction {
            MemcachedOp::Get
        } else {
            MemcachedOp::Set
        }
    }
}

impl Workload for Memcached {
    fn name(&self) -> &str {
        "memcached"
    }

    fn sample_request(&self, rng: &mut dyn RngCore) -> RequestProfile {
        let op = self.sample_op(rng);
        let key = self.key_size.sample(rng);
        let value = self.value_size.sample(rng);
        let payload = f64::from(value);
        let mut noise = sample_lognormal(
            rng,
            -self.service_noise_sigma * self.service_noise_sigma / 2.0,
            self.service_noise_sigma,
        );
        {
            use rand::Rng;
            if rng.gen::<f64>() < self.slow_fraction {
                noise *= self.slow_multiplier;
            }
        }
        let cpu_ns = (self.base_cpu_ns + self.cpu_ns_per_byte * payload) * noise;
        let mem_ns = (self.base_mem_ns + self.mem_ns_per_byte * payload) * noise;
        // Protocol overhead per message ≈ 48 bytes of headers + framing.
        const OVERHEAD: u32 = 48;
        match op {
            MemcachedOp::Get => {
                use rand::Rng;
                let hit = rng.gen::<f64>() < self.hit_rate;
                if hit {
                    RequestProfile {
                        class: OpClass::Read,
                        request_bytes: OVERHEAD + key,
                        response_bytes: OVERHEAD + value,
                        cpu_ns,
                        mem_ns,
                    }
                } else {
                    // Miss: hash walk but no item copy, tiny response.
                    RequestProfile {
                        class: OpClass::Read,
                        request_bytes: OVERHEAD + key,
                        response_bytes: OVERHEAD,
                        cpu_ns: cpu_ns * 0.6,
                        mem_ns: mem_ns * 0.4,
                    }
                }
            }
            MemcachedOp::Set => RequestProfile {
                class: OpClass::Write,
                request_bytes: OVERHEAD + key + value,
                response_bytes: OVERHEAD,
                cpu_ns: cpu_ns * 1.15, // item allocation on the write path
                mem_ns: mem_ns * 1.25,
            },
        }
    }

    fn mean_service_ns(&self) -> f64 {
        let payload = self.value_size.mean();
        let cpu = self.base_cpu_ns + self.cpu_ns_per_byte * payload;
        let mem = self.base_mem_ns + self.mem_ns_per_byte * payload;
        let set_scale = 1.0 - self.get_fraction;
        let slow_scale = 1.0 + self.slow_fraction * (self.slow_multiplier - 1.0);
        let miss_discount =
            1.0 - self.get_fraction * (1.0 - self.hit_rate) * 0.5;
        (cpu + mem) * (1.0 + set_scale * 0.2) * slow_scale * miss_discount
    }

    /// Exact first and second moments of the sampled service demand.
    ///
    /// The demand is `T = (k_c·A_c + k_m·A_m)·N·S` with `A_c/A_m` affine
    /// in the value size `V`, class multipliers `(k_c, k_m)` over the
    /// hit/miss/set mix, lognormal noise `N` (`E[N]=1`,
    /// `E[N²]=e^{σ²}`), and the slow-path factor `S`. Class, `V`, `N`,
    /// `S` are drawn independently, so the moments factor — except that
    /// `A_c` and `A_m` share the same `V` draw, which the cross term
    /// below accounts for.
    fn service_moments(&self) -> ServiceMoments {
        let g = self.get_fraction;
        let h = self.hit_rate;
        let ev = self.value_size.mean();
        let ev2 = self.value_size.mean_square();
        let (bc, cc) = (self.base_cpu_ns, self.cpu_ns_per_byte);
        let (bm, cm) = (self.base_mem_ns, self.mem_ns_per_byte);

        let e_ac = bc + cc * ev;
        let e_am = bm + cm * ev;
        let e_ac2 = bc * bc + 2.0 * bc * cc * ev + cc * cc * ev2;
        let e_am2 = bm * bm + 2.0 * bm * cm * ev + cm * cm * ev2;
        let e_acam = bc * bm + (bc * cm + bm * cc) * ev + cc * cm * ev2;

        // (weight, cpu multiplier, mem multiplier): hit / miss / set,
        // mirroring `sample_request`.
        let classes = [
            (g * h, 1.0, 1.0),
            (g * (1.0 - h), 0.6, 0.4),
            (1.0 - g, 1.15, 1.25),
        ];
        let mut e_b = 0.0;
        let mut e_b2 = 0.0;
        let mut e_b_cpu = 0.0;
        for (w, kc, km) in classes {
            e_b += w * (kc * e_ac + km * e_am);
            e_b_cpu += w * kc * e_ac;
            e_b2 += w
                * (kc * kc * e_ac2
                    + 2.0 * kc * km * e_acam
                    + km * km * e_am2);
        }

        let sigma2 = self.service_noise_sigma * self.service_noise_sigma;
        let e_n2 = sigma2.exp();
        let e_s = 1.0 + self.slow_fraction * (self.slow_multiplier - 1.0);
        let e_s2 = 1.0
            + self.slow_fraction * (self.slow_multiplier * self.slow_multiplier - 1.0);

        let mean = e_b * e_s;
        let second = e_b2 * e_n2 * e_s2;
        let cv2 = if mean > 0.0 { second / (mean * mean) - 1.0 } else { 0.0 };

        ServiceMoments {
            mean_ns: mean,
            cv2: cv2.max(0.0),
            cpu_fraction: if e_b > 0.0 { e_b_cpu / e_b } else { 0.5 },
            request_bytes: 48.0 + self.key_size.mean() + (1.0 - g) * ev,
            response_bytes: 48.0 + g * h * ev,
            noise_sigma: self.service_noise_sigma,
            slow_fraction: self.slow_fraction,
            slow_multiplier: self.slow_multiplier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn get_set_mix_matches_fraction() {
        let w = Memcached::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| w.sample_request(&mut rng).class == OpClass::Read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    fn gets_have_value_sized_responses() {
        let w = Memcached::default();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let p = w.sample_request(&mut rng);
            match p.class {
                OpClass::Read => {
                    assert!(p.request_bytes < 150, "GET request {}", p.request_bytes);
                    // Hits carry the value; misses only the header.
                    assert!(p.response_bytes == 48 || p.response_bytes >= 48 + 16);
                }
                OpClass::Write => {
                    assert!(p.request_bytes > p.response_bytes);
                    assert_eq!(p.response_bytes, 48);
                }
                OpClass::Route => panic!("memcached never routes"),
            }
        }
    }

    #[test]
    fn empirical_mean_matches_declared_mean() {
        let w = Memcached::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| w.sample_request(&mut rng).base_service_ns())
            .sum();
        let empirical = total / f64::from(n);
        let declared = w.mean_service_ns();
        assert!(
            (empirical / declared - 1.0).abs() < 0.15,
            "empirical {empirical} vs declared {declared}"
        );
    }

    #[test]
    fn service_time_is_variable() {
        let w = Memcached::default();
        let mut rng = SmallRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..10_000)
            .map(|_| w.sample_request(&mut rng).base_service_ns())
            .collect();
        let stats: treadmill_stats::StreamingStats = samples.iter().copied().collect();
        let cv = stats.sample_stddev() / stats.mean();
        assert!(cv > 0.3, "coefficient of variation {cv} too low");
        assert!(cv < 2.0, "coefficient of variation {cv} implausibly high");
    }

    #[test]
    fn variants_shift_the_mix() {
        let mut rng = SmallRng::seed_from_u64(5);
        let heavy = Memcached {
            get_fraction: 0.5,
            ..Default::default()
        };
        let writes = (0..10_000)
            .filter(|_| heavy.sample_request(&mut rng).class == OpClass::Write)
            .count();
        assert!((writes as f64 / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn json_round_trip() {
        let w = Memcached::default();
        let json = serde_json::to_string(&w).unwrap();
        let back: Memcached = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn misses_are_cheap_and_small() {
        let all_miss = Memcached {
            hit_rate: 0.0,
            get_fraction: 1.0,
            ..Default::default()
        };
        let all_hit = Memcached {
            hit_rate: 1.0,
            get_fraction: 1.0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let mut miss_mem = 0.0;
        let mut hit_mem = 0.0;
        for _ in 0..5_000 {
            let m = all_miss.sample_request(&mut rng);
            assert_eq!(m.response_bytes, 48, "miss carries no value");
            miss_mem += m.mem_ns;
            hit_mem += all_hit.sample_request(&mut rng).mem_ns;
        }
        assert!(miss_mem < hit_mem * 0.6, "misses must be cheaper");
    }

    #[test]
    fn moments_match_empirical_distribution() {
        let w = Memcached::default();
        let m = w.service_moments();
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let s = w.sample_request(&mut rng).base_service_ns();
            sum += s;
            sum_sq += s * s;
        }
        let mean = sum / f64::from(n);
        let second = sum_sq / f64::from(n);
        let cv2 = second / (mean * mean) - 1.0;
        assert!(
            (mean / m.mean_ns - 1.0).abs() < 0.05,
            "empirical mean {mean} vs closed form {}",
            m.mean_ns
        );
        // The second moment is tail-dominated (Pareto values + slow
        // path), so the sampling error bound is looser.
        assert!(
            (cv2 / m.cv2 - 1.0).abs() < 0.25,
            "empirical cv² {cv2} vs closed form {}",
            m.cv2
        );
        assert!(m.cpu_fraction > 0.5 && m.cpu_fraction < 0.8, "{}", m.cpu_fraction);
    }

    #[test]
    fn moments_wire_sizes_match_empirical() {
        let w = Memcached::default();
        let m = w.service_moments();
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 100_000;
        let mut req = 0.0;
        let mut resp = 0.0;
        for _ in 0..n {
            let p = w.sample_request(&mut rng);
            req += f64::from(p.request_bytes);
            resp += f64::from(p.response_bytes);
        }
        assert!((req / f64::from(n) / m.request_bytes - 1.0).abs() < 0.05);
        assert!((resp / f64::from(n) / m.response_bytes - 1.0).abs() < 0.05);
    }

}
