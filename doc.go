// Package knlcap is a reproduction of "Capability Models for Manycore
// Memory Systems: A Case-Study with Xeon Phi KNL" (Ramos & Hoefler, 2017)
// as a Go library: a simulated Knights Landing memory system, the paper's
// benchmarking methodology, the capability model with its cost equations,
// model-tuned collectives, and the bitonic merge-sort application study.
//
// Command overview (the runnable entry points under cmd/):
//
//	knl-bench    regenerate Tables I/II and the experiment registry
//	knl-tune     model-tuned trees and barrier fan-outs (Figure 1)
//	knl-coll     collectives vs baselines on the simulator (Figures 6-8)
//	knl-sweep    latency/bandwidth/saturation sweeps (Figures 4, 5, 9)
//	knl-sort     the bitonic merge-sort application study (Figure 10)
//	knl-model    fit, save, inspect and diff capability models
//	knl-explain  explain one access's protocol walk and cost
//	knl-advise   model-driven flat-mode MCDRAM placement advice
//	knl-trace    per-operation tracing and latency distributions
//	knl-lint     repo-specific static analysis: simulator determinism,
//	             model-math hygiene, error-handling discipline (run by
//	             ci.sh; exits non-zero on findings)
//
// See README.md for the layout, DESIGN.md for the system inventory,
// substitution rationale and the determinism/lint rules (§7), and
// EXPERIMENTS.md for paper-versus-measured results. The library packages
// live under internal/; a checked godoc example of the machine API is
// internal/machine's Example.
package knlcap
