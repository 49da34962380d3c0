//! The four workloads. Each stresses a different layer of the lab, so an
//! optimization of one layer shows on one workload and reads as no change
//! on the others.

pub mod corpus;
pub mod differential;
pub mod fleet;
pub mod invoke;
