//! Certificate-corpus experiments: the §3.1 funnel, Figs 2b, 6, 7, 8, 14
//! and Table 2, each rendered from the engine's certificate summary
//! ([`crate::ScanEngine::certificates`]).

use std::collections::BTreeMap;

use quicert_analysis::{render_table, Cdf, Same, Table};
use quicert_quic::amplification;
use quicert_scanner::https_scan::{service_set, CertificateSummary, FieldCell, ParentChainGroup};
use quicert_x509::{FieldSizes, KeyAlgorithm};

use crate::Campaign;

/// The common amplification limit used as a reference line: 3 × 1357
/// (Firefox's Initial).
const LIMIT_3X_1357: usize = amplification::limit(1357);

/// The CDF of a value→count map of byte sizes.
fn cdf_of(sizes: &BTreeMap<usize, usize>) -> Cdf {
    Cdf::from_counts(sizes.iter().map(|(&size, &n)| (size as f64, n)))
}

/// The §3.1 adoption funnel and the §3.2 QScanner consistency check.
pub(crate) fn funnel(campaign: &Campaign) -> String {
    let funnel = &campaign.engine().certificates().funnel;
    let consistency = campaign.engine().qscanner();
    format!(
        "§3.1 funnel — resolved {} / {}, A records {}, TLS-reachable {}, \
         QUIC services {}\n\
         §3.2 QScanner consistency — {:.1}% of {} QUIC chains match HTTPS \
         ({} rotated, {} other)\n",
        funnel.resolved,
        funnel.total,
        funnel.a_records,
        funnel.tls_reachable,
        funnel.quic_services,
        consistency.same_rate() * 100.0,
        consistency.total,
        consistency.rotated,
        consistency.other,
    )
}

/// Fig 2(b): medians per X.509 field over every certificate collected by
/// the HTTPS scan (the figure's qualitative content: extensions ≥
/// signature/SPKI ≥ names).
pub fn fig2b(campaign: &Campaign) -> String {
    let summary = campaign.engine().certificates();
    let mut t = Table::new(&["field", "median [B]", "p90 [B]"]);
    let fields = ["subject", "issuer", "spki", "extensions", "signature"];
    for (name, sizes) in fields.into_iter().zip(&summary.field_sizes) {
        let cdf = cdf_of(sizes);
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

/// Share of all chains exceeding 3·1357 bytes (the paper finds 35%).
fn share_over_limit(quic: &Cdf, https_only: &Cdf) -> f64 {
    let over = |cdf: &Cdf| (1.0 - cdf.fraction_below(LIMIT_3X_1357 as f64)) * cdf.len() as f64;
    (over(quic) + over(https_only)) / (quic.len() + https_only.len()).max(1) as f64
}

/// Fig 6: certificate chain sizes by QUIC support.
pub fn fig6(campaign: &Campaign) -> String {
    let sizes = &campaign.engine().certificates().chain_sizes;
    let quic = cdf_of(&sizes[service_set(true)]);
    let https_only = cdf_of(&sizes[service_set(false)]);
    format!(
        "Fig 6 — chain sizes: QUIC median {:.0} B (n={}), HTTPS-only median {:.0} B (n={}), \
         {:.1}% of all chains exceed {} B\n",
        quic.median(),
        quic.len(),
        https_only.median(),
        https_only.len(),
        share_over_limit(&quic, &https_only) * 100.0,
        LIMIT_3X_1357,
    )
}

/// Fig 7's parent chains of one service set with their share of its
/// correctly ordered chains in percent, by share, descending. Equal shares
/// sort by label: the row order must never depend on the chain ids' order
/// (the report is bit-reproducible).
fn parent_chain_shares(
    summary: &CertificateSummary,
    quic: bool,
) -> Vec<(f64, &'static str, &ParentChainGroup)> {
    let groups = summary.parent_chains.iter();
    let groups: Vec<_> = groups.filter(|(&(set, _), _)| set == quic).collect();
    let total = groups.iter().map(|(_, group)| group.chains).sum::<usize>();
    let total = total.max(1) as f64;
    let mut shares: Vec<_> = groups
        .into_iter()
        .map(|(&(_, id), group)| (group.chains as f64 / total * 100.0, id.label(), group))
        .collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    shares
}

/// Fig 7: the top-10 parent chains of QUIC (`quic = true`) or HTTPS-only
/// services and how much of the set they cover (the paper: 96.5% and 72%).
pub fn fig7(campaign: &Campaign, quic: bool) -> String {
    let summary = campaign.engine().certificates();
    let shares = parent_chain_shares(&summary, quic);
    let mut t = Table::new(&[
        "chain",
        "share %",
        "parents",
        "parent B",
        "median leaf B",
        "max leaf B",
    ]);
    for &(share, label, group) in shares.iter().take(10) {
        let same = |value: &Same<usize>| value.get().copied().unwrap_or_default().to_string();
        let max_leaf = group
            .leaf_sizes
            .last_key_value()
            .map_or(0, |(&size, _)| size);
        t.row(&[
            label.to_string(),
            format!("{share:.2}"),
            same(&group.parents),
            same(&group.parent_bytes),
            format!("{:.0}", cdf_of(&group.leaf_sizes).percentile(50.0)),
            max_leaf.to_string(),
        ]);
    }
    let title = ["QUIC services", "HTTPS-only services"][service_set(quic)];
    let top10_coverage: f64 = shares.iter().take(10).map(|&(share, ..)| share).sum();
    format!(
        "Fig 7 — {title} (top-10 cover {top10_coverage:.1}%)\n{}",
        render_table(&t)
    )
}

/// The mean field sizes of a Fig 8 cell's certificates.
fn mean_fields(cell: &FieldCell) -> FieldSizes {
    let (sum, n) = (cell.sums, cell.certificates.max(1));
    FieldSizes {
        subject: sum.subject / n,
        issuer: sum.issuer / n,
        spki: sum.spki / n,
        extensions: sum.extensions / n,
        signature: sum.signature / n,
        other: sum.other / n,
    }
}

/// Fig 8: mean certificate field sizes of QUIC domains per (chain size
/// class, leaf or not).
pub fn fig8(campaign: &Campaign) -> String {
    let summary = campaign.engine().certificates();
    let mut cells: Vec<_> = summary.field_cells.iter().collect();
    cells.sort_by_key(|&(&(leaf, big_chain), _)| (big_chain, leaf));
    let mut t = Table::new(&[
        "cell",
        "subject",
        "issuer",
        "spki",
        "extensions",
        "signature",
        "n",
    ]);
    for (&(leaf, big_chain), cell) in cells {
        let mean = mean_fields(cell);
        t.row(&[
            format!(
                "({}, {})",
                if big_chain { ">4000" } else { "<=4000" },
                if leaf { "leaf" } else { "non-leaf" }
            ),
            mean.subject.to_string(),
            mean.issuer.to_string(),
            mean.spki.to_string(),
            mean.extensions.to_string(),
            mean.signature.to_string(),
            cell.certificates.to_string(),
        ]);
    }
    format!(
        "Fig 8 — mean field sizes by certificate type [B]\n{}",
        render_table(&t)
    )
}

/// Table 2's key algorithms of one (service set, leaf?) row, counted over
/// unique certificates: leaves are unique per domain, parents per chain
/// position.
fn key_counts(
    summary: &CertificateSummary,
    quic: bool,
    leaf: bool,
) -> BTreeMap<KeyAlgorithm, usize> {
    let mut counts = BTreeMap::new();
    if leaf {
        for (&(set, key), &n) in &summary.leaf_keys {
            if set == quic {
                *counts.entry(key).or_default() += n;
            }
        }
    } else {
        for (&(set, ..), key) in &summary.parent_keys {
            if let (true, Some(&key)) = (set == quic, key.get()) {
                *counts.entry(key).or_default() += 1;
            }
        }
    }
    counts
}

/// The share of `algorithm` in a row's key counts, percent (0 when absent).
fn key_share(counts: &BTreeMap<KeyAlgorithm, usize>, algorithm: KeyAlgorithm) -> f64 {
    let total = counts.values().sum::<usize>().max(1) as f64;
    counts
        .get(&algorithm)
        .map_or(0.0, |&n| n as f64 / total * 100.0)
}

/// Table 2: key algorithm shares per (service set, leaf/non-leaf).
pub fn table2(campaign: &Campaign) -> String {
    let summary = campaign.engine().certificates();
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
        let counts = key_counts(&summary, quic, leaf);
        let share = |algorithm| format!("{:.1}%", key_share(&counts, algorithm));
        t.row(&[
            label.to_string(),
            share(KeyAlgorithm::Rsa2048),
            share(KeyAlgorithm::Rsa4096),
            share(KeyAlgorithm::EcdsaP256),
            share(KeyAlgorithm::EcdsaP384),
        ]);
    }
    format!("Table 2 — crypto algorithms in use\n{}", render_table(&t))
}

/// Fig 14's SAN byte share CDF over QUIC services' leaves (percent of the
/// leaf's bytes), and the share of those leaves, in percent, that are both
/// SAN-heavy (at or above the top 1%'s threshold, paper: 28.9%) and
/// exceed the common amplification limit (paper: ~0.1%).
fn san_shares(summary: &CertificateSummary) -> (Cdf, f64) {
    let points: Vec<(usize, f64, usize)> = summary
        .leaf_sans
        .iter()
        .map(|(&(leaf, san), &n)| (leaf, san as f64 / leaf.max(1) as f64 * 100.0, n))
        .collect();
    let shares = Cdf::from_counts(points.iter().map(|&(_, share, n)| (share, n)));
    let threshold = shares.percentile(99.0);
    let cruise_liners: usize = points
        .iter()
        .filter(|&&(size, share, _)| share >= threshold && size > LIMIT_3X_1357)
        .map(|&(.., n)| n)
        .sum();
    let over_limit = cruise_liners as f64 / shares.len().max(1) as f64 * 100.0;
    (shares, over_limit)
}

/// Fig 14: SAN byte share vs leaf size for QUIC services.
pub fn fig14(campaign: &Campaign) -> String {
    let (shares, cruise_liners_over_limit) = san_shares(&campaign.engine().certificates());
    format!(
        "Fig 14 — SAN byte share: median {:.1}%, top-1% threshold {:.1}%, \
         cruise-liners over limit {:.2}%\n",
        shares.percentile(50.0),
        shares.percentile(99.0),
        cruise_liners_over_limit,
    )
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
        let summary = c.engine().certificates();
        let [subject, _, spki, extensions, signature] = summary.field_sizes.each_ref().map(cdf_of);
        // Fig 2b: extensions are the most space-consuming field group,
        // followed by signature and public key; names are smallest.
        assert!(extensions.median() > signature.median());
        assert!(signature.median() >= spki.median() * 0.5);
        assert!(subject.median() < spki.median());
    }

    #[test]
    fn fig6_quic_chains_are_smaller() {
        let c = campaign();
        let sizes = &c.engine().certificates().chain_sizes;
        let quic = cdf_of(&sizes[service_set(true)]);
        let https_only = cdf_of(&sizes[service_set(false)]);
        assert!(quic.median() < https_only.median());
        // Paper: 35% of all chains exceed 3*1357; shape: between 15 and 55%.
        let share = share_over_limit(&quic, &https_only);
        assert!((0.15..0.55).contains(&share), "share {share}");
    }

    #[test]
    fn fig7_consolidation_is_stronger_for_quic() {
        let c = campaign();
        let summary = c.engine().certificates();
        let quic = parent_chain_shares(&summary, true);
        let https = parent_chain_shares(&summary, false);
        let coverage = |shares: &[(f64, &str, &ParentChainGroup)]| -> f64 {
            shares.iter().take(10).map(|&(share, ..)| share).sum()
        };
        let (quic_coverage, https_coverage) = (coverage(&quic), coverage(&https));
        // Paper: top-10 cover 96.5% (QUIC) vs 72% (HTTPS-only) — shape:
        // QUIC is more consolidated.
        assert!(quic_coverage > https_coverage);
        assert!(quic_coverage > 90.0, "{quic_coverage}");
        // The dominant QUIC chain is Let's Encrypt R3.
        assert_eq!(quic[0].1, "Let's Enc. R3");
        assert!(quic[0].0 > 40.0);
    }

    #[test]
    fn fig8_non_leaves_dominate_big_chains() {
        let c = campaign();
        let cells = &c.engine().certificates().field_cells;
        let cell = |leaf: bool, big: bool| cells.get(&(leaf, big)).map(mean_fields);
        if let (Some(big_nonleaf), Some(big_leaf)) = (cell(false, true), cell(true, true)) {
            // Paper: for large chains, non-leaf spki+signature dominate.
            let nl = big_nonleaf.spki + big_nonleaf.signature;
            let l = big_leaf.spki + big_leaf.signature;
            assert!(nl > l, "non-leaf {nl} vs leaf {l}");
        }
    }

    #[test]
    fn table2_quic_leans_ecdsa_https_leans_rsa() {
        let c = campaign();
        let summary = c.engine().certificates();
        let share = |quic, leaf, algorithm| key_share(&key_counts(&summary, quic, leaf), algorithm);
        assert!(share(true, true, KeyAlgorithm::EcdsaP256) > 55.0);
        assert!(share(false, true, KeyAlgorithm::Rsa2048) > 65.0);
        // Each row sums to ~100.
        for (quic, leaf) in [(true, true), (true, false), (false, true), (false, false)] {
            let sum: f64 = KeyAlgorithm::ALL
                .iter()
                .map(|&a| share(quic, leaf, a))
                .sum();
            assert!((sum - 100.0).abs() < 1.0, "({quic},{leaf}) sums to {sum}");
        }
    }

    #[test]
    fn fig14_cruise_liners_are_rare() {
        let c = campaign();
        let summary = c.engine().certificates();
        assert!(!summary.leaf_sans.is_empty());
        let (shares, cruise_liners_over_limit) = san_shares(&summary);
        // Most leaves spend <10% of bytes on SANs.
        assert!(shares.percentile(50.0) < 12.0);
        assert!(cruise_liners_over_limit < 2.0);
    }
}
