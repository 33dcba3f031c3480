//! One module per group of paper experiments.
//!
//! | module | reproduces |
//! |---|---|
//! | [`certs`] | Fig 2b, Fig 6, Fig 7, Fig 8, Table 2, Fig 14 |
//! | [`handshakes`] | Fig 3, Fig 4, Fig 5, Fig 12, Fig 13, §4.1 reachability |
//! | [`amplification`] | Fig 9, the §4.3 ZMap scan, Fig 11, Table 3 |
//! | [`guidance`] | the §5 discussion as runnable ablations |
//! | [`compression`] | Table 1 and the §4.2 compression study |
//! | [`resumption`] | the §5 session-resumption mitigation, cold vs warm |
//! | [`pq`] | the post-quantum certificate-era axis (beyond the paper) |
//! | [`scale`] | the population-scale ladder on the streaming scan path |
//! | [`chaos`] | the fault-grid axis and its loss-recovery cost (beyond the paper) |
//! | [`churn`] | ecosystem churn over a resident campaign (beyond the paper) |

pub mod amplification;
pub mod certs;
pub mod chaos;
pub mod churn;
pub mod compression;
pub mod guidance;
pub mod handshakes;
pub mod pq;
pub mod resumption;
pub mod scale;
