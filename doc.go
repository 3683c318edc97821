// Package starnuma is a from-scratch Go reproduction of "StarNUMA:
// Mitigating NUMA Challenges with Memory Pooling" (Cho & Daglis, MICRO
// 2024).
//
// StarNUMA augments a hierarchical 16-socket NUMA system with a
// CXL-attached memory pool that every socket reaches in a single
// high-bandwidth hop, and migrates "vagabond" pages — pages actively
// shared by many sockets, which have no good home socket — into it.
//
// The repository contains:
//
//   - a deterministic discrete-event simulator of the multi-socket
//     system (interconnect, memory, coherence) under internal/...;
//   - the StarNUMA architecture: pool, trackers, Algorithm 1 migration;
//   - synthetic models of the paper's eight workloads;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation, plus the extension and ablation studies
//     (internal/exp; cmd/starnuma -exp all).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
package starnuma

// Version identifies this reproduction release.
const Version = "1.0.0"
