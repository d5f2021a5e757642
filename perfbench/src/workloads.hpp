#pragma once

// The benchmark's workloads. Each one builds its inputs from the seed,
// times its operations for RunConfig::seconds, checks every result, and
// fills the report: end-to-end metrics when RunConfig::trace is false,
// per-layer metrics (timed from here, around calls into the library's
// public functions) when it is true.

#include <cstdint>
#include <string>

#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"
#include "report.hpp"

namespace perfbench {

/// Threads a workload runs at on `nproc` CPUs.
int workload_threads(const std::string& workload, int nproc);

void run_scf_seq(const RunConfig& config, Report& report);
void run_fock_hybrid(const RunConfig& config, Report& report);
void run_serve_mix(const RunConfig& config, Report& report);
void run_sim_models(const RunConfig& config, Report& report);

/// `molecule` rotated and translated by a seeded rigid motion: every
/// seed gives other coordinates with the same energy and the same
/// integral work, split into the same tasks.
emc::chem::Molecule rigid_motion(const emc::chem::Molecule& molecule,
                                 std::uint64_t seed);

/// Per-layer metrics of the chem layer on one basis, timed around its
/// public calls: basis, shell-pair and Schwarz set-up, one-electron
/// integrals (when `one_electron`), one ERI sweep over the surviving
/// quartets of a build, per-task build times against `density`, and the
/// exact quartet counts. `fock_build_s` is the caller's median G(P) time.
void report_chem_layer(Report& report, const emc::chem::Molecule& molecule,
                       const std::string& basis_name,
                       const emc::linalg::Matrix& density,
                       double fock_build_s, bool one_electron);

}  // namespace perfbench
