// Package albireo is a pure-Go reproduction of "Albireo:
// Energy-Efficient Acceleration of Convolutional Neural Networks via
// Silicon Photonics" (Shiflett, Karanth, Bunescu, Louri - ISCA 2021).
//
// The module rebuilds the paper's entire stack from scratch: analytic
// silicon-photonic device models (internal/photonics), noise and
// crosstalk precision analysis (internal/noise, internal/circuit), the
// Albireo PLCU/PLCG/chip architecture as both a functional analog
// simulator and a cycle-level mapping model (internal/core),
// performance/power/area accounting (internal/perf), photonic and
// electronic baselines (internal/baseline), CNN workloads and exact
// references (internal/nn, internal/tensor), and one experiment list
// that regenerates every table and figure of the paper's evaluation,
// its design ablations and the end-to-end fidelity studies
// (internal/experiments, printed by cmd/albireo-figures and committed
// as RESULTS.json).
//
// Start with README.md for the tour, DESIGN.md for the system
// inventory and modeling decisions, and EXPERIMENTS.md for the
// paper-vs-measured record. The runnable entry points are the seven
// commands under cmd/ and the six programs under examples/.
package albireo
