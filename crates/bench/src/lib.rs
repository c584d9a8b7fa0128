//! Criterion micro-benches for the shapes the performance ledger
//! (`benchmark/`, `BENCHMARK.json`) has no probe for yet; everything
//! else about speed is a ledger row. The benches live in `benches/`
//! (`engine`, `substrates`, each listing its shapes) and this crate
//! has no code of its own — Cargo wants a lib target.

#![forbid(unsafe_code)]
