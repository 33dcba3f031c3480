//! Compression experiments: Table 1 and the §4.2 synthetic study.

use std::sync::Arc;

use quicert_analysis::{render_table, Cdf, Table};
use quicert_compress::Algorithm;
use quicert_quic::amplification;
use quicert_scanner::compression::CompressionSupport;
use quicert_tls::browser::{all_profiles, BrowserProfile};

use crate::Campaign;

/// Table 1: browser parameters plus measured algorithm support/ratios.
#[derive(Debug)]
pub struct Table1 {
    /// Browser rows (static parameters of the tested versions).
    pub browsers: Vec<BrowserProfile>,
    /// Measured per-algorithm support and achieved ratios plus the
    /// all-three count, shared with the campaign's artifact.
    pub support: Arc<CompressionSupport>,
}

/// Compute Table 1 from the campaign's cached artifacts.
pub fn table1(campaign: &Campaign) -> Table1 {
    Table1 {
        browsers: all_profiles(),
        support: campaign.engine().compression_support(),
    }
}

impl Table1 {
    /// Mean ratio for one algorithm.
    pub fn mean_ratio(&self, alg: Algorithm) -> f64 {
        self.support.mean_ratio(alg)
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["browser", "version", "Initial [B]", "compression"]);
        for b in &self.browsers {
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
        let mut t2 = Table::new(&["algorithm", "service support %", "mean ratio"]);
        let columns = Algorithm::ALL.iter().zip(&self.support.shard.algorithms);
        for (&algorithm, column) in columns {
            t2.row(&[
                algorithm.name().to_string(),
                format!("{:.2}", column.share()),
                format!("{:.2}", self.mean_ratio(algorithm)),
            ]);
        }
        s.push_str(&render_table(&t2));
        let (all_three, total) = (self.support.shard.all_three, self.support.total());
        s.push_str(&format!(
            "services supporting all three algorithms: {} of {} ({:.2}%)\n",
            all_three,
            total,
            all_three as f64 / total.max(1) as f64 * 100.0
        ));
        s
    }
}

/// The §4.2 synthetic compression study.
#[derive(Debug)]
pub struct CompressionStudy {
    /// Ratio CDF (compressed/original) over the sampled chains.
    pub ratios: Cdf,
    /// Compressed-size CDF.
    pub compressed_sizes: Cdf,
    /// Share of compressed chains under the 3·1357 limit.
    pub under_limit: f64,
}

/// Run the study on every `stride`-th chain with the given algorithm,
/// through the campaign's cached, sharded engine path.
pub fn compression_study(
    campaign: &Campaign,
    algorithm: Algorithm,
    stride: usize,
) -> CompressionStudy {
    let study = campaign
        .engine()
        .compression_study(campaign.scenario().era, algorithm, stride);
    let under = study.under(amplification::limit(1357));
    CompressionStudy {
        ratios: study.ratio_cdf(),
        compressed_sizes: study.compressed_cdf(),
        under_limit: under as f64 / study.chains().max(1) as f64,
    }
}

impl CompressionStudy {
    /// Render the study's headline numbers.
    pub fn render(&self) -> String {
        format!(
            "§4.2 compression study (n={}): median ratio {:.2}, \
             median compressed size {:.0} B, {:.1}% under the 3x1357 limit\n",
            self.ratios.len(),
            self.ratios.median(),
            self.compressed_sizes.median(),
            self.under_limit * 100.0,
        )
    }
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
        let t = table1(&c);
        let share = |alg| {
            let mut columns = Algorithm::ALL.iter().zip(&t.support.shard.algorithms);
            let column = columns.find(|(&a, _)| a == alg).map(|(_, column)| column);
            column.expect("every algorithm is surveyed").share()
        };
        // Paper: 96% brotli support; zlib/zstd 0.05% (Meta only).
        assert!(share(Algorithm::Brotli) > 90.0);
        assert!(share(Algorithm::Zlib) < 3.0);
        assert!(share(Algorithm::Zstd) < 3.0);
        let (all, total) = (t.support.shard.all_three, t.support.total());
        assert!((all as f64 / total.max(1) as f64) < 0.02);
        // Browser constants.
        assert_eq!(t.browsers[0].initial_size, Some(1357));
        assert_eq!(t.browsers[1].initial_size, Some(1250));
        assert_eq!(t.browsers[2].initial_size, None);
        assert!(!t.render().is_empty());
    }

    #[test]
    fn study_keeps_nearly_all_chains_under_limit() {
        let c = campaign();
        let study = compression_study(&c, Algorithm::Brotli, 5);
        assert!(study.ratios.len() > 100);
        // Paper: 99% under limit with a ~0.65 ratio; shape: the vast
        // majority fit, and compression is substantial.
        assert!(study.under_limit > 0.93, "under {}", study.under_limit);
        assert!(
            study.ratios.median() < 0.85,
            "ratio {}",
            study.ratios.median()
        );
        assert!(!study.render().is_empty());
    }

    #[test]
    fn zlib_and_zstd_profiles_also_compress() {
        let c = campaign();
        for alg in [Algorithm::Zlib, Algorithm::Zstd] {
            let study = compression_study(&c, alg, 20);
            assert!(
                study.ratios.median() < 0.95,
                "{alg}: {}",
                study.ratios.median()
            );
        }
    }
}
