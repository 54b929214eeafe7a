// Package weakkeys is a from-scratch Go reproduction of "Weak Keys Remain
// Widespread in Network Devices" (Hastings, Fried, Heninger; ACM IMC
// 2016): the batch-GCD factoring core (single-tree and cluster-
// partitioned), the flawed-RNG key-generation substrate, a simulated
// six-year internet-wide scan corpus, the implementation-fingerprint
// pipeline, and the longitudinal vendor-response analysis.
//
// The implementation lives under internal/; the runnable surfaces are the
// commands under cmd/ (weakkeys, batchgcd, zscand), the examples under
// examples/, and the benchmark harness in bench_test.go, which
// regenerates every table and figure of the paper's evaluation. See
// README.md, DESIGN.md and EXPERIMENTS.md.
package weakkeys
