//! Certificate-corpus experiments: Figs 2b, 6, 7, 8, 14 and Table 2.

use std::collections::{BTreeMap, HashMap};

use quicert_analysis::{render_table, Cdf, Table};
use quicert_quic::amplification;
use quicert_scanner::https_scan::service_set;
use quicert_x509::{FieldSizes, KeyAlgorithm};

use crate::Campaign;

/// The common amplification limit used as a reference line: 3 × 1357
/// (Firefox's Initial).
pub(crate) const LIMIT_3X_1357: usize = amplification::limit(1357);

// ---------------------------------------------------------------- Fig 2b --

/// Fig 2(b): CDFs of X.509 field sizes across the certificate corpus.
#[derive(Debug)]
pub struct Fig2b {
    /// Subject name sizes.
    pub subject: Cdf,
    /// Issuer name sizes.
    pub issuer: Cdf,
    /// SubjectPublicKeyInfo sizes.
    pub spki: Cdf,
    /// Extension block sizes.
    pub extensions: Cdf,
    /// Signature (algorithm + value) sizes.
    pub signature: Cdf,
}

/// The CDF of a value→count map of byte sizes.
fn cdf_of(sizes: &BTreeMap<usize, usize>) -> Cdf {
    Cdf::from_counts(sizes.iter().map(|(&size, &n)| (size as f64, n)))
}

/// Compute Fig 2(b) over every certificate collected by the HTTPS scan.
pub fn fig2b(campaign: &Campaign) -> Fig2b {
    let summary = campaign.engine().certificates();
    let [subject, issuer, spki, extensions, signature] = summary.field_sizes.each_ref().map(cdf_of);
    Fig2b {
        subject,
        issuer,
        spki,
        extensions,
        signature,
    }
}

impl Fig2b {
    /// Render medians per field (the figure's qualitative content:
    /// extensions ≥ signature/SPKI ≥ names).
    pub fn render(&self) -> String {
        let mut t = Table::new(&["field", "median [B]", "p90 [B]"]);
        for (name, cdf) in [
            ("subject", &self.subject),
            ("issuer", &self.issuer),
            ("spki", &self.spki),
            ("extensions", &self.extensions),
            ("signature", &self.signature),
        ] {
            t.row(&[
                name.to_string(),
                format!("{:.0}", cdf.median()),
                format!("{:.0}", cdf.quantile(0.9)),
            ]);
        }
        format!(
            "Fig 2b — X.509 field size distribution\n{}",
            render_table(&t)
        )
    }
}

// ----------------------------------------------------------------- Fig 6 --

/// Fig 6: certificate chain size distributions by QUIC support.
#[derive(Debug)]
pub struct Fig6 {
    /// Chain sizes of QUIC services.
    pub quic: Cdf,
    /// Chain sizes of HTTPS-only services.
    pub https_only: Cdf,
}

/// Compute Fig 6.
pub fn fig6(campaign: &Campaign) -> Fig6 {
    let sizes = &campaign.engine().certificates().chain_sizes;
    Fig6 {
        quic: cdf_of(&sizes[service_set(true)]),
        https_only: cdf_of(&sizes[service_set(false)]),
    }
}

impl Fig6 {
    /// Share of all chains exceeding 3·1357 bytes (the paper finds 35%).
    pub(crate) fn share_over_limit(&self) -> f64 {
        let over_quic =
            (1.0 - self.quic.fraction_below(LIMIT_3X_1357 as f64)) * self.quic.len() as f64;
        let over_https = (1.0 - self.https_only.fraction_below(LIMIT_3X_1357 as f64))
            * self.https_only.len() as f64;
        (over_quic + over_https) / (self.quic.len() + self.https_only.len()).max(1) as f64
    }

    /// Render the figure's headline numbers.
    pub fn render(&self) -> String {
        format!(
            "Fig 6 — chain sizes: QUIC median {:.0} B (n={}), HTTPS-only median {:.0} B (n={}), \
             {:.1}% of all chains exceed {} B\n",
            self.quic.median(),
            self.quic.len(),
            self.https_only.median(),
            self.https_only.len(),
            self.share_over_limit() * 100.0,
            LIMIT_3X_1357,
        )
    }
}

// ----------------------------------------------------------------- Fig 7 --

/// One row of Fig 7: a parent chain with its share and sizes.
#[derive(Debug, Clone)]
pub(crate) struct Fig7Row {
    /// Chain label.
    pub label: &'static str,
    /// Share among the service set, in percent.
    pub share: f64,
    /// Parent chain size (sum over intermediates).
    pub parent_bytes: usize,
    /// Number of parent certificates.
    pub depth: usize,
    /// Median leaf size in the set.
    pub median_leaf: f64,
    /// Largest leaf observed.
    pub max_leaf: usize,
}

/// Fig 7: top parent chains for one service population.
#[derive(Debug)]
pub struct Fig7 {
    /// Rows sorted by share, descending (top 10).
    pub(crate) rows: Vec<Fig7Row>,
    /// Share of services covered by the top 10 (96.5% for QUIC, 72% for
    /// HTTPS-only in the paper).
    pub top10_coverage: f64,
}

/// Compute Fig 7 for QUIC (`quic = true`) or HTTPS-only services, over
/// their correctly ordered chains.
pub fn fig7(campaign: &Campaign, quic: bool) -> Fig7 {
    let summary = campaign.engine().certificates();
    let groups: Vec<_> = summary
        .parent_chains
        .iter()
        .filter(|(&(set_is_quic, _), _)| set_is_quic == quic)
        .collect();
    let ordered: usize = groups.iter().map(|(_, group)| group.chains).sum();
    let total = ordered.max(1) as f64;
    let mut rows: Vec<Fig7Row> = groups
        .into_iter()
        .map(|(&(_, chain_id), group)| Fig7Row {
            label: chain_id.label(),
            share: group.chains as f64 / total * 100.0,
            parent_bytes: group.parent_bytes.get().copied().unwrap_or_default(),
            depth: group.parents.get().copied().unwrap_or_default(),
            median_leaf: cdf_of(&group.leaf_sizes).percentile(50.0),
            max_leaf: group
                .leaf_sizes
                .last_key_value()
                .map_or(0, |(&size, _)| size),
        })
        .collect();
    // Tie-break equal shares by label: the rendered row order must never
    // depend on the chain ids' order (the report is bit-reproducible).
    rows.sort_by(|a, b| {
        b.share
            .total_cmp(&a.share)
            .then_with(|| a.label.cmp(b.label))
    });
    let top10_coverage: f64 = rows.iter().take(10).map(|r| r.share).sum();
    rows.truncate(10);
    Fig7 {
        rows,
        top10_coverage,
    }
}

impl Fig7 {
    /// Render the top-10 table.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(&[
            "chain",
            "share %",
            "parents",
            "parent B",
            "median leaf B",
            "max leaf B",
        ]);
        for row in &self.rows {
            t.row(&[
                row.label.to_string(),
                format!("{:.2}", row.share),
                row.depth.to_string(),
                row.parent_bytes.to_string(),
                format!("{:.0}", row.median_leaf),
                row.max_leaf.to_string(),
            ]);
        }
        format!(
            "Fig 7 — {title} (top-10 cover {:.1}%)\n{}",
            self.top10_coverage,
            render_table(&t)
        )
    }
}

// ----------------------------------------------------------------- Fig 8 --

/// Mean field sizes for one (cert type, chain size class) cell of Fig 8.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// True for leaf certificates.
    pub leaf: bool,
    /// True for chains over 4000 bytes.
    pub big_chain: bool,
    /// Mean sizes per field.
    pub mean: FieldSizes,
    /// Number of certificates in the cell.
    pub count: usize,
}

/// Fig 8: mean certificate field sizes by type, for QUIC domains.
pub fn fig8(campaign: &Campaign) -> Vec<Fig8Row> {
    let summary = campaign.engine().certificates();
    let mut rows: Vec<Fig8Row> = summary
        .field_cells
        .iter()
        .map(|(&(leaf, big_chain), cell)| {
            let (sum, n) = (cell.sums, cell.certificates.max(1));
            Fig8Row {
                leaf,
                big_chain,
                mean: FieldSizes {
                    subject: sum.subject / n,
                    issuer: sum.issuer / n,
                    spki: sum.spki / n,
                    extensions: sum.extensions / n,
                    signature: sum.signature / n,
                    other: sum.other / n,
                },
                count: cell.certificates,
            }
        })
        .collect();
    rows.sort_by_key(|r| (r.big_chain, r.leaf));
    rows
}

/// Render Fig 8.
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut t = Table::new(&[
        "cell",
        "subject",
        "issuer",
        "spki",
        "extensions",
        "signature",
        "n",
    ]);
    for row in rows {
        let label = format!(
            "({}, {})",
            if row.big_chain { ">4000" } else { "<=4000" },
            if row.leaf { "leaf" } else { "non-leaf" }
        );
        t.row(&[
            label,
            row.mean.subject.to_string(),
            row.mean.issuer.to_string(),
            row.mean.spki.to_string(),
            row.mean.extensions.to_string(),
            row.mean.signature.to_string(),
            row.count.to_string(),
        ]);
    }
    format!(
        "Fig 8 — mean field sizes by certificate type [B]\n{}",
        render_table(&t)
    )
}

// --------------------------------------------------------------- Table 2 --

/// Table 2: key algorithm shares per (service set, leaf/non-leaf), in
/// percent. Computed over unique certificates, leaves being unique per
/// domain and parents deduplicated per chain position.
#[derive(Debug, Default)]
pub struct Table2 {
    /// (quic?, leaf?) → algorithm → share %.
    pub shares: HashMap<(bool, bool), HashMap<KeyAlgorithm, f64>>,
}

/// Compute Table 2.
pub fn table2(campaign: &Campaign) -> Table2 {
    let summary = campaign.engine().certificates();
    let mut out = Table2::default();
    for quic in [true, false] {
        // Leaves: one per service.
        let mut leaf_counts: HashMap<KeyAlgorithm, usize> = HashMap::new();
        for (&(_, key), &n) in summary
            .leaf_keys
            .iter()
            .filter(|((set, _), _)| *set == quic)
        {
            leaf_counts.insert(key, n);
        }
        // Parents: unique per (chain, position).
        let parents = summary
            .parent_keys
            .iter()
            .filter(|((set, ..), _)| *set == quic);
        let leaf_total: usize = leaf_counts.values().sum();
        let leaf_shares = leaf_counts
            .into_iter()
            .map(|(k, v)| (k, v as f64 / leaf_total.max(1) as f64 * 100.0))
            .collect();
        let mut parent_counts: HashMap<KeyAlgorithm, usize> = HashMap::new();
        for key in parents.filter_map(|(_, key)| key.get()) {
            *parent_counts.entry(*key).or_default() += 1;
        }
        let parent_total: usize = parent_counts.values().sum();
        let parent_shares = parent_counts
            .into_iter()
            .map(|(k, v)| (k, v as f64 / parent_total.max(1) as f64 * 100.0))
            .collect();
        out.shares.insert((quic, true), leaf_shares);
        out.shares.insert((quic, false), parent_shares);
    }
    out
}

impl Table2 {
    /// Share for one cell (0 when absent).
    pub fn share(&self, quic: bool, leaf: bool, alg: KeyAlgorithm) -> f64 {
        self.shares
            .get(&(quic, leaf))
            .and_then(|m| m.get(&alg))
            .copied()
            .unwrap_or(0.0)
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "service / cert",
            "RSA-2048",
            "RSA-4096",
            "ECDSA-256",
            "ECDSA-384",
        ]);
        for (quic, leaf, label) in [
            (true, false, "QUIC non-leaf"),
            (true, true, "QUIC leaf"),
            (false, false, "HTTPS-only non-leaf"),
            (false, true, "HTTPS-only leaf"),
        ] {
            t.row(&[
                label.to_string(),
                format!("{:.1}%", self.share(quic, leaf, KeyAlgorithm::Rsa2048)),
                format!("{:.1}%", self.share(quic, leaf, KeyAlgorithm::Rsa4096)),
                format!("{:.1}%", self.share(quic, leaf, KeyAlgorithm::EcdsaP256)),
                format!("{:.1}%", self.share(quic, leaf, KeyAlgorithm::EcdsaP384)),
            ]);
        }
        format!("Table 2 — crypto algorithms in use\n{}", render_table(&t))
    }
}

// ---------------------------------------------------------------- Fig 14 --

/// Fig 14: SAN byte share vs leaf size for QUIC services.
#[derive(Debug)]
pub struct Fig14 {
    /// (leaf size, SAN byte share in percent, QUIC services whose leaf has
    /// both), one entry per distinct leaf.
    pub points: Vec<(usize, f64, usize)>,
    /// The CDF of the SAN byte share over QUIC services' leaves.
    pub shares: Cdf,
}

/// Compute Fig 14.
pub fn fig14(campaign: &Campaign) -> Fig14 {
    let summary = campaign.engine().certificates();
    let points: Vec<(usize, f64, usize)> = summary
        .leaf_sans
        .iter()
        .map(|(&(leaf, san), &n)| (leaf, san as f64 / leaf.max(1) as f64 * 100.0, n))
        .collect();
    let shares = Cdf::from_counts(points.iter().map(|&(_, share, n)| (share, n)));
    Fig14 { points, shares }
}

impl Fig14 {
    /// The SAN share above which the top 1% of leaves sit (paper: 28.9%).
    pub(crate) fn top_1pct_share_threshold(&self) -> f64 {
        self.shares.percentile(99.0)
    }

    /// Share of leaves that are both SAN-heavy (top 1%) and exceed the
    /// common amplification limit (paper: ~0.1%).
    pub(crate) fn cruise_liners_over_limit(&self) -> f64 {
        let threshold = self.top_1pct_share_threshold();
        let n: usize = self
            .points
            .iter()
            .filter(|&&(size, share, _)| share >= threshold && size > LIMIT_3X_1357)
            .map(|&(.., n)| n)
            .sum();
        n as f64 / self.shares.len().max(1) as f64 * 100.0
    }

    /// Render the headline numbers.
    pub fn render(&self) -> String {
        format!(
            "Fig 14 — SAN byte share: median {:.1}%, top-1% threshold {:.1}%, \
             cruise-liners over limit {:.2}%\n",
            self.shares.percentile(50.0),
            self.top_1pct_share_threshold(),
            self.cruise_liners_over_limit(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(101).with_domains(4_000))
    }

    #[test]
    fn fig2b_field_ordering_matches_paper() {
        let c = campaign();
        let fig = fig2b(&c);
        // Fig 2b: extensions are the most space-consuming field group,
        // followed by signature and public key; names are smallest.
        assert!(fig.extensions.median() > fig.signature.median());
        assert!(fig.signature.median() >= fig.spki.median() * 0.5);
        assert!(fig.subject.median() < fig.spki.median());
        assert!(!fig.render().is_empty());
    }

    #[test]
    fn fig6_quic_chains_are_smaller() {
        let c = campaign();
        let fig = fig6(&c);
        assert!(fig.quic.median() < fig.https_only.median());
        // Paper: 35% of all chains exceed 3*1357; shape: between 15 and 55%.
        let share = fig.share_over_limit();
        assert!((0.15..0.55).contains(&share), "share {share}");
    }

    #[test]
    fn fig7_consolidation_is_stronger_for_quic() {
        let c = campaign();
        let quic = fig7(&c, true);
        let https = fig7(&c, false);
        // Paper: top-10 cover 96.5% (QUIC) vs 72% (HTTPS-only) — shape:
        // QUIC is more consolidated.
        assert!(quic.top10_coverage > https.top10_coverage);
        assert!(quic.top10_coverage > 90.0, "{}", quic.top10_coverage);
        // The dominant QUIC chain is Let's Encrypt R3.
        assert_eq!(quic.rows[0].label, "Let's Enc. R3");
        assert!(quic.rows[0].share > 40.0);
    }

    #[test]
    fn fig8_non_leaves_dominate_big_chains() {
        let c = campaign();
        let rows = fig8(&c);
        let cell = |leaf: bool, big: bool| {
            rows.iter()
                .find(|r| r.leaf == leaf && r.big_chain == big)
                .copied()
        };
        if let (Some(big_nonleaf), Some(big_leaf)) = (cell(false, true), cell(true, true)) {
            // Paper: for large chains, non-leaf spki+signature dominate.
            let nl = big_nonleaf.mean.spki + big_nonleaf.mean.signature;
            let l = big_leaf.mean.spki + big_leaf.mean.signature;
            assert!(nl > l, "non-leaf {nl} vs leaf {l}");
        }
        assert!(!render_fig8(&rows).is_empty());
    }

    #[test]
    fn table2_quic_leans_ecdsa_https_leans_rsa() {
        let c = campaign();
        let t = table2(&c);
        assert!(t.share(true, true, KeyAlgorithm::EcdsaP256) > 55.0);
        assert!(t.share(false, true, KeyAlgorithm::Rsa2048) > 65.0);
        // Each row sums to ~100.
        for (quic, leaf) in [(true, true), (true, false), (false, true), (false, false)] {
            let sum: f64 = KeyAlgorithm::ALL
                .iter()
                .map(|&a| t.share(quic, leaf, a))
                .sum();
            assert!((sum - 100.0).abs() < 1.0, "({quic},{leaf}) sums to {sum}");
        }
    }

    #[test]
    fn fig14_cruise_liners_are_rare() {
        let c = campaign();
        let fig = fig14(&c);
        assert!(!fig.points.is_empty());
        // Most leaves spend <10% of bytes on SANs.
        assert!(fig.shares.percentile(50.0) < 12.0);
        assert!(fig.cruise_liners_over_limit() < 2.0);
    }
}
