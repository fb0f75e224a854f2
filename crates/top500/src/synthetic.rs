//! Calibrated synthetic Top 500 generator.
//!
//! We cannot redistribute the live top500.org table, so this module
//! generates a statistically faithful stand-in: Rmax follows the list's
//! power-law decay, accelerator adoption is top-heavy, vendors/countries
//! follow the November 2024 mix, and — crucially — *missingness* follows
//! Table I of the paper. The generator first builds complete ground-truth
//! records, then [`mask_baseline`] hides fields with the top500.org
//! incompleteness rates, and [`crate::enrich`] re-reveals them with the
//! "other public" rates. Everything is keyed by a single seed, so the whole
//! study is reproducible.

use crate::list::Top500List;
use crate::record::SystemRecord;
use hwdb::grid::Region;
use parallel::rng::{RngStreams, SplitMix64};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Number of systems (500 for the study; benches sweep larger).
    pub n: u32,
    /// Master seed.
    pub seed: u64,
    /// Rmax of rank 1, TFlop/s (El Capitan-class default).
    pub rank1_rmax_tflops: f64,
    /// Power-law exponent of Rmax versus rank.
    pub rmax_alpha: f64,
}

impl Default for SyntheticConfig {
    fn default() -> SyntheticConfig {
        SyntheticConfig {
            n: 500,
            seed: 0x5EED_CAFE,
            // Nov 2024: rank 1 ≈ 1.74 EFlop/s, rank 500 ≈ 2.3 PFlop/s.
            rank1_rmax_tflops: 1.742e6,
            rmax_alpha: 1.067,
        }
    }
}

/// Weighted vendor mix (approximate November 2024 shares).
const VENDORS: &[(&str, f64)] = &[
    ("Lenovo", 0.32),
    ("HPE", 0.22),
    ("EVIDEN", 0.10),
    ("DELL EMC", 0.08),
    ("NVIDIA", 0.07),
    ("Inspur", 0.06),
    ("Fujitsu", 0.05),
    ("Atos", 0.04),
    ("NEC", 0.03),
    ("MEGWARE", 0.03),
]; // remainder: "Self-made"

/// Weighted country mix.
const COUNTRIES: &[(&str, f64)] = &[
    ("United States", 0.34),
    ("China", 0.12),
    ("Germany", 0.08),
    ("Japan", 0.08),
    ("France", 0.05),
    ("United Kingdom", 0.04),
    ("South Korea", 0.03),
    ("Canada", 0.03),
    ("Italy", 0.03),
    ("Netherlands", 0.02),
    ("Saudi Arabia", 0.02),
    ("Brazil", 0.02),
    ("Australia", 0.02),
    ("Sweden", 0.02),
    ("Finland", 0.015),
    ("Spain", 0.015),
    ("Switzerland", 0.01),
    ("Norway", 0.01),
    ("Poland", 0.01),
    ("India", 0.01),
]; // remainder: Region-only systems (anonymous/commercial)

/// CPU description strings with per-socket core counts baked in.
const PROCESSORS: &[(&str, f64)] = &[
    ("AMD EPYC 9654 96C 2.4GHz", 0.14),
    ("AMD EPYC 7763 64C 2.45GHz", 0.16),
    ("AMD Optimized 3rd Generation EPYC 64C 2GHz", 0.08),
    ("Xeon Platinum 8480C 56C 2GHz", 0.14),
    ("Xeon Platinum 8380 40C 2.3GHz", 0.10),
    ("Xeon Platinum 8280 28C 2.7GHz", 0.08),
    ("Xeon Gold 6338 32C 2GHz", 0.10),
    ("AMD EPYC 9554 64C 3.1GHz", 0.06),
    ("Fujitsu A64FX 48C 2.2GHz", 0.03),
    ("NVIDIA Grace 72C 3.1GHz", 0.03),
    ("IBM POWER9 22C 3.07GHz", 0.03),
    ("Sunway SW26010 260C 1.45GHz", 0.02),
]; // remainder: an unusual/novel host CPU

/// Accelerator models with adoption weights; `None`-weight remainder means
/// a novel accelerator EasyC will have to approximate.
const ACCELERATORS: &[(&str, f64)] = &[
    ("NVIDIA H100 SXM5", 0.30),
    ("NVIDIA A100 SXM4 80GB", 0.22),
    ("NVIDIA GH200 Superchip", 0.08),
    ("AMD Instinct MI250X", 0.09),
    ("AMD Instinct MI300A", 0.06),
    ("NVIDIA V100 SXM2", 0.10),
    ("Intel Data Center GPU Max 1550", 0.04),
    ("NEC SX-Aurora TSUBASA", 0.02),
    ("NVIDIA H200", 0.02),
]; // remainder (~7 %): novel accelerator

fn pick_weighted<'a>(rng: &mut SplitMix64, table: &[(&'a str, f64)]) -> Option<&'a str> {
    let mut x = rng.next_f64();
    for &(name, w) in table {
        if x < w {
            return Some(name);
        }
        x -= w;
    }
    None
}

/// Generates the complete (no-missing-fields) ground-truth list.
pub fn generate_full(config: &SyntheticConfig) -> Top500List {
    Top500List::new(generate_range(config, 1, config.n))
}

/// Generates ranks `first..=last` only. Every record depends on nothing but
/// `(seed, rank)` and the shape parameters, so any range is bit-identical
/// to the same slice of [`generate_full`] — this is what lets
/// [`crate::stream::SyntheticChunks`] produce arbitrarily large fleets one
/// bounded chunk at a time.
pub fn generate_range(config: &SyntheticConfig, first: u32, last: u32) -> Vec<SystemRecord> {
    let streams = RngStreams::new(config.seed);
    (first..=last)
        .map(|rank| generate_system(config, &streams, rank))
        .collect()
}

/// A standard normal by Box–Muller from the next two uniforms of `rng`
/// (the pair's twin is discarded). The rank jitter has drawn its normal
/// this way since the generator was calibrated, and every field generated
/// after it reads the stream positions that follow these two draws, so
/// the synthetic fleets keep every bit.
fn box_muller(rng: &mut SplitMix64) -> f64 {
    // Avoid ln(0) by offsetting u1 away from zero.
    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn generate_system(config: &SyntheticConfig, streams: &RngStreams, rank: u32) -> SystemRecord {
    let mut rng = streams.stream(u64::from(rank));
    let jitter = (0.0 + 0.08 * box_muller(&mut rng)).exp();
    let rmax = config.rank1_rmax_tflops * f64::from(rank).powf(-config.rmax_alpha) * jitter;
    let hpl_efficiency = 0.62 + 0.2 * rng.next_f64(); // Rmax / Rpeak
    let rpeak = rmax / hpl_efficiency;

    // Accelerator adoption is top-heavy (~205 systems overall).
    let accel_prob = if rank <= 25 {
        0.8
    } else if rank <= 100 {
        0.6
    } else {
        0.35
    };
    let accelerated = rng.next_f64() < accel_prob;
    let accelerator = if accelerated {
        Some(
            pick_weighted(&mut rng, ACCELERATORS)
                .unwrap_or("Custom AI Accelerator X1")
                .to_string(),
        )
    } else {
        None
    };

    let processor = pick_weighted(&mut rng, PROCESSORS).unwrap_or("RISC-V Custom 64C 2GHz");
    let parsed = hwdb::parse::parse_processor(processor);
    let cores_per_socket = parsed.cores_per_socket.unwrap_or(64);

    // Node architecture: accelerated nodes carry 4 or 8 devices.
    let gpus_per_node = if accelerated {
        if rng.next_f64() < 0.6 {
            4
        } else {
            8
        }
    } else {
        0
    };
    let sockets_per_node = if accelerated { 1 } else { 2 };

    // Per-node LINPACK throughput (TFlop/s) from the device mix.
    let node_tflops = if accelerated {
        let accel_spec = accelerator
            .as_deref()
            .and_then(hwdb::accel::lookup)
            .unwrap_or(&hwdb::accel::MAINSTREAM_FALLBACK);
        f64::from(gpus_per_node) * accel_spec.tdp_watts * accel_spec.gflops_per_watt / 1000.0
    } else {
        // CPU node: ~32 GFlops/core HPL (EPYC Milan/Genoa class).
        f64::from(sockets_per_node) * f64::from(cores_per_socket) * 0.032
    };
    let node_count = (rmax / node_tflops).ceil().max(1.0) as u64;
    let cpu_count = node_count * sockets_per_node as u64;
    let gpu_count = node_count * gpus_per_node as u64;
    let total_cores = cpu_count * u64::from(cores_per_socket);

    // True power: CPU sockets + accelerators + 10 % node overhead.
    let cpu_spec = hwdb::cpu::lookup_or_generic(processor).0;
    let accel_watts = accelerator
        .as_deref()
        .map(|a| hwdb::accel::lookup_or_mainstream(a).0.tdp_watts)
        .unwrap_or(0.0);
    let node_watts = (f64::from(sockets_per_node) * cpu_spec.tdp_watts
        + f64::from(gpus_per_node) * accel_watts)
        * 1.1
        + 200.0;
    let power_kw = node_count as f64 * node_watts / 1000.0;

    // Memory: 512 GB per CPU node, 1 TB per accelerated node + HBM.
    let memory_gb = node_count as f64 * if accelerated { 1024.0 } else { 512.0 };
    let ssd_gb = node_count as f64 * 1920.0;

    let year = if rank <= 50 {
        2021 + (rng.next_bounded(4)) as u32
    } else {
        2016 + (rng.next_bounded(9)) as u32
    };

    let country = pick_weighted(&mut rng, COUNTRIES).map(str::to_string);
    let region = country
        .as_deref()
        .and_then(hwdb::grid::country_region)
        .or(Some(Region::World));

    SystemRecord {
        rank,
        name: Some(format!("synth-{rank:03}")),
        country,
        region,
        year: Some(year),
        vendor: Some(
            pick_weighted(&mut rng, VENDORS)
                .unwrap_or("Self-made")
                .to_string(),
        ),
        processor: Some(processor.to_string()),
        total_cores: Some(total_cores),
        accelerator,
        accelerator_count: if accelerated { Some(gpu_count) } else { None },
        rmax_tflops: rmax,
        rpeak_tflops: rpeak,
        nmax: Some((rmax.sqrt() * 1.0e4) as u64),
        power_kw: Some(power_kw),
        node_count: Some(node_count),
        cpu_count: Some(cpu_count),
        memory_gb: Some(memory_gb),
        memory_type: Some(if accelerated { "HBM2e + DDR5" } else { "DDR4" }.to_string()),
        ssd_gb: Some(ssd_gb),
        utilization: Some(0.65 + 0.3 * rng.next_f64()),
        annual_energy_mwh: Some(power_kw * 8760.0 * 0.8 / 1000.0),
    }
}

/// Per-field incompleteness rates of the *top500.org* scenario (Table I,
/// first column, normalised to 500 systems), as hide-probabilities.
#[derive(Debug, Clone, Copy)]
pub struct MaskRates {
    /// P(node count hidden | accelerated). Accelerated systems are
    /// disproportionately commercial/cloud installations that disclose
    /// little; calibrated so the *global* node-count gap lands at Table I's
    /// 209/500 while the operational coverage lands at the paper's 78 %.
    pub nodes_accelerated: f64,
    /// P(node count hidden | CPU-only).
    pub nodes_cpu_only: f64,
    /// P(accelerator count hidden when nodes are visible) — residual rate;
    /// the dominant effect is the correlation with hidden node counts.
    pub gpus: f64,
    /// P(accelerator model degraded to a coarse family label). Top500.org
    /// frequently lists just "NVIDIA GPU"-grade information; the paper
    /// names this the main embodied-coverage blocker for the Top 150.
    pub accel_label: f64,
    /// P(memory capacity hidden) — 499/500.
    pub memory: f64,
    /// P(memory type hidden) — 500/500.
    pub memory_type: f64,
    /// P(SSD capacity hidden) — 500/500.
    pub ssd: f64,
    /// P(utilisation hidden) — 500/500.
    pub utilization: f64,
    /// P(annual energy hidden) — 500/500.
    pub annual_energy: f64,
    /// P(LINPACK power hidden | accelerated). Calibrated with
    /// [`MaskRates::nodes_accelerated`] so operational coverage from
    /// top500.org data lands at the paper's 78 %.
    pub power_accelerated: f64,
    /// P(LINPACK power hidden | CPU-only).
    pub power_cpu_only: f64,
    /// P(operation year hidden) — 0/500.
    pub year: f64,
}

impl Default for MaskRates {
    fn default() -> MaskRates {
        // Global node-count gap: 0.70·205 + 0.22·295 ≈ 209 (Table I), while
        // P(no power AND no nodes | accelerated) ≈ 0.76·0.70 ≈ 0.53 ≈ the
        // paper's 109/205 uncovered accelerated systems.
        MaskRates {
            nodes_accelerated: 0.70,
            nodes_cpu_only: 0.22,
            gpus: 0.04,
            accel_label: 0.60,
            memory: 499.0 / 500.0,
            memory_type: 1.0,
            ssd: 1.0,
            utilization: 1.0,
            annual_energy: 1.0,
            power_accelerated: 0.76,
            power_cpu_only: 0.50,
            year: 0.0,
        }
    }
}

/// Applies top500.org missingness to a complete list, producing the
/// Baseline scenario. Hiding is correlated the way the paper describes:
/// when the node count is hidden, the accelerator count is hidden too, and
/// power reporting skews to *absent* in the 26–100 rank band (the paper's
/// observed gap).
pub fn mask_baseline(full: &Top500List, rates: &MaskRates, seed: u64) -> Top500List {
    let streams = RngStreams::new(seed ^ MASK_SALT);
    let systems = full
        .systems()
        .iter()
        .map(|sys| {
            let mut rng = streams.stream(u64::from(sys.rank));
            let mut s = sys.clone();
            let nodes_rate = if sys.has_accelerator() {
                rates.nodes_accelerated
            } else {
                rates.nodes_cpu_only
            };
            let hide_nodes = rng.next_f64() < nodes_rate;
            if hide_nodes {
                s.node_count = None;
                // Correlated: sites that do not disclose nodes do not
                // disclose device counts either.
                s.accelerator_count = None;
            } else if rng.next_f64() < rates.gpus {
                s.accelerator_count = None;
            }
            // Degrade the accelerator model to a vendor-family label.
            if let Some(model) = s.accelerator.clone() {
                if rng.next_f64() < rates.accel_label {
                    let lower = model.to_ascii_lowercase();
                    let label = if lower.contains("nvidia") {
                        "NVIDIA GPU"
                    } else if lower.contains("amd") {
                        "AMD GPU"
                    } else if lower.contains("intel") {
                        "Intel GPU"
                    } else {
                        "Accelerator"
                    };
                    s.accelerator = Some(label.to_string());
                }
            }
            // Power gap concentrated in ranks 26-100 (paper §IV-A).
            let base_power_rate = if sys.has_accelerator() {
                rates.power_accelerated
            } else {
                rates.power_cpu_only
            };
            let power_hide = if (26..=100).contains(&s.rank) {
                (base_power_rate + 0.20).min(1.0)
            } else {
                base_power_rate
            };
            if rng.next_f64() < power_hide {
                s.power_kw = None;
            }
            if rng.next_f64() < rates.memory {
                s.memory_gb = None;
            }
            if rng.next_f64() < rates.memory_type {
                s.memory_type = None;
            }
            if rng.next_f64() < rates.ssd {
                s.ssd_gb = None;
            }
            if rng.next_f64() < rates.utilization {
                s.utilization = None;
            }
            if rng.next_f64() < rates.annual_energy {
                s.annual_energy_mwh = None;
            }
            if rng.next_f64() < rates.year {
                s.year = None;
            }
            // ~5 % of systems are anonymous commercial entries that hide
            // name and country as well.
            if rng.next_f64() < 0.05 {
                s.name = None;
                s.country = None;
            }
            s
        })
        .collect();
    Top500List::new(systems)
}

/// Seed salt separating the masking RNG domain from the generator's.
const MASK_SALT: u64 = 0x00AA_55AA_55AA_55AA;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let list = generate_full(&SyntheticConfig {
            n: 100,
            ..Default::default()
        });
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn rmax_decreases_with_rank() {
        let list = generate_full(&SyntheticConfig::default());
        let r1 = list.by_rank(1).unwrap().rmax_tflops;
        let r100 = list.by_rank(100).unwrap().rmax_tflops;
        let r500 = list.by_rank(500).unwrap().rmax_tflops;
        assert!(r1 > r100 && r100 > r500);
        // Endpoints within a factor ~2 of the real list.
        assert!(r1 > 8e5 && r1 < 4e6, "r1={r1}");
        assert!(r500 > 1e3 && r500 < 6e3, "r500={r500}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate_full(&SyntheticConfig::default());
        let b = generate_full(&SyntheticConfig::default());
        assert_eq!(a.systems(), b.systems());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_full(&SyntheticConfig::default());
        let b = generate_full(&SyntheticConfig {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a.systems(), b.systems());
    }

    #[test]
    fn full_records_are_complete() {
        let list = generate_full(&SyntheticConfig {
            n: 50,
            ..Default::default()
        });
        for s in list.systems() {
            assert!(s.node_count.is_some());
            assert!(s.power_kw.is_some());
            assert!(s.memory_gb.is_some());
            // Accelerated systems carry device counts.
            assert_eq!(s.accelerator.is_some(), s.accelerator_count.is_some());
        }
    }

    #[test]
    fn accelerator_adoption_is_top_heavy() {
        let list = generate_full(&SyntheticConfig::default());
        let top100 = list
            .systems()
            .iter()
            .take(100)
            .filter(|s| s.has_accelerator())
            .count();
        let tail100 = list
            .systems()
            .iter()
            .skip(400)
            .filter(|s| s.has_accelerator())
            .count();
        assert!(top100 > tail100, "top {top100} vs tail {tail100}");
        let total = list
            .systems()
            .iter()
            .filter(|s| s.has_accelerator())
            .count();
        assert!((150..=260).contains(&total), "total accelerated {total}");
    }

    #[test]
    fn mask_hides_fields_at_calibrated_rates() {
        let full = generate_full(&SyntheticConfig::default());
        let masked = mask_baseline(&full, &MaskRates::default(), 7);
        let nodes_missing = masked
            .systems()
            .iter()
            .filter(|s| s.node_count.is_none())
            .count();
        // 209/500 ± sampling noise.
        assert!(
            (170..=250).contains(&nodes_missing),
            "nodes missing {nodes_missing}"
        );
        let ssd_missing = masked
            .systems()
            .iter()
            .filter(|s| s.ssd_gb.is_none())
            .count();
        assert_eq!(ssd_missing, 500);
        let year_missing = masked.systems().iter().filter(|s| s.year.is_none()).count();
        assert_eq!(year_missing, 0);
    }

    #[test]
    fn mask_correlates_nodes_and_gpus() {
        let full = generate_full(&SyntheticConfig::default());
        let masked = mask_baseline(&full, &MaskRates::default(), 7);
        for s in masked.systems() {
            if s.node_count.is_none() {
                assert!(s.accelerator_count.is_none(), "rank {}", s.rank);
            }
        }
    }

    #[test]
    fn power_gap_in_26_to_100_band() {
        let full = generate_full(&SyntheticConfig::default());
        let masked = mask_baseline(&full, &MaskRates::default(), 7);
        let band: Vec<_> = masked
            .systems()
            .iter()
            .filter(|s| (26..=100).contains(&s.rank))
            .collect();
        let tail: Vec<_> = masked.systems().iter().filter(|s| s.rank > 300).collect();
        let band_missing =
            band.iter().filter(|s| s.power_kw.is_none()).count() as f64 / band.len() as f64;
        let tail_missing =
            tail.iter().filter(|s| s.power_kw.is_none()).count() as f64 / tail.len() as f64;
        assert!(
            band_missing > tail_missing,
            "band {band_missing} tail {tail_missing}"
        );
    }
}
