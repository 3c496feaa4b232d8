// Package repro is a complete Go reproduction of "CPI²: CPU
// performance isolation for shared compute clusters" (Zhang, Tune,
// Hagmann, Jnagal, Gokhale, Wilkes — EuroSys 2013).
//
// The module root holds micro-benchmarks for the hot paths whose costs
// the paper quotes (bench_test.go) and the fleet step benchmarks
// (bench_cluster_test.go); cmd/experiments regenerates every paper
// table and figure. The system itself
// lives under internal/ (see README.md for the architecture map), the
// runnable binaries under cmd/, and the tutorial programs under
// examples/.
package repro
