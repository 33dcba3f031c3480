//! Compression experiments: Table 1 and the §4.2 synthetic study.

use quicert_analysis::{render_table, Table};
use quicert_compress::Algorithm;
use quicert_quic::amplification;
use quicert_tls::browser::all_profiles;

use crate::Campaign;

/// Table 1: the tested browsers' parameters, plus each algorithm's measured
/// service support and achieved ratio from the campaign's cached survey
/// ([`crate::ScanEngine::compression_support`]).
pub fn table1(campaign: &Campaign) -> String {
    let mut t = Table::new(&["browser", "version", "Initial [B]", "compression"]);
    for b in all_profiles() {
        t.row(&[
            b.name.to_string(),
            b.version.to_string(),
            b.initial_size
                .map(|s| s.to_string())
                .unwrap_or_else(|| "no QUIC".into()),
            b.compression
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join("+"),
        ]);
    }
    let mut s = format!("Table 1 — browser profiles\n{}", render_table(&t));
    let support = campaign.engine().compression_support();
    let mut t2 = Table::new(&["algorithm", "service support %", "mean ratio"]);
    for (&algorithm, column) in Algorithm::ALL.iter().zip(&support.shard.algorithms) {
        t2.row(&[
            algorithm.name().to_string(),
            format!("{:.2}", column.share()),
            format!("{:.2}", support.mean_ratio(algorithm)),
        ]);
    }
    s.push_str(&render_table(&t2));
    let (all_three, total) = (support.shard.all_three, support.total());
    s.push_str(&format!(
        "services supporting all three algorithms: {} of {} ({:.2}%)\n",
        all_three,
        total,
        all_three as f64 / total.max(1) as f64 * 100.0
    ));
    s
}

/// The §4.2 synthetic compression study of every `stride`-th chain with
/// `algorithm`, from the campaign's cached, sharded engine pass
/// ([`crate::ScanEngine::compression_study`]): the compressed/original
/// ratio, the compressed size and the share of chains under the 3·1357
/// limit.
pub fn compression_study(campaign: &Campaign, algorithm: Algorithm, stride: usize) -> String {
    let study = campaign
        .engine()
        .compression_study(campaign.scenario().era, algorithm, stride);
    let under = study.under(amplification::limit(1357));
    let ratios = study.ratio_cdf();
    format!(
        "§4.2 compression study (n={}): median ratio {:.2}, \
         median compressed size {:.0} B, {:.1}% under the 3x1357 limit\n",
        ratios.len(),
        ratios.median(),
        study.compressed_cdf().median(),
        under as f64 / study.chains().max(1) as f64 * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(41).with_domains(3_000))
    }

    #[test]
    fn table1_matches_paper_support_pattern() {
        let c = campaign();
        let support = c.engine().compression_support();
        let share = |alg| {
            let mut columns = Algorithm::ALL.iter().zip(&support.shard.algorithms);
            let column = columns.find(|(&a, _)| a == alg).map(|(_, column)| column);
            column.expect("every algorithm is surveyed").share()
        };
        // Paper: 96% brotli support; zlib/zstd 0.05% (Meta only).
        assert!(share(Algorithm::Brotli) > 90.0);
        assert!(share(Algorithm::Zlib) < 3.0);
        assert!(share(Algorithm::Zstd) < 3.0);
        let (all, total) = (support.shard.all_three, support.total());
        assert!((all as f64 / total.max(1) as f64) < 0.02);
        // Browser constants.
        let browsers = all_profiles();
        assert_eq!(browsers[0].initial_size, Some(1357));
        assert_eq!(browsers[1].initial_size, Some(1250));
        assert_eq!(browsers[2].initial_size, None);
    }

    #[test]
    fn study_keeps_nearly_all_chains_under_limit() {
        let c = campaign();
        let study = c
            .engine()
            .compression_study(c.scenario().era, Algorithm::Brotli, 5);
        let ratios = study.ratio_cdf();
        assert!(ratios.len() > 100);
        // Paper: 99% under limit with a ~0.65 ratio; shape: the vast
        // majority fit, and compression is substantial.
        let under_limit =
            study.under(amplification::limit(1357)) as f64 / study.chains().max(1) as f64;
        assert!(under_limit > 0.93, "under {under_limit}");
        assert!(ratios.median() < 0.85, "ratio {}", ratios.median());
    }

    #[test]
    fn zlib_and_zstd_profiles_also_compress() {
        let c = campaign();
        for alg in [Algorithm::Zlib, Algorithm::Zstd] {
            let study = c.engine().compression_study(c.scenario().era, alg, 20);
            let median = study.ratio_cdf().median();
            assert!(median < 0.95, "{alg}: {median}");
        }
    }
}
