// Full Hartree-Fock runner: choose a molecule and basis on the command
// line, run RHF (optionally through the parallel work-stealing executor)
// and print the energy decomposition and orbital spectrum.
//
//   ./build/examples/scf_hartree_fock --molecule water --basis 6-31g
//   ./build/examples/scf_hartree_fock --molecule alkane4 --ranks 4

#include <exception>
#include <functional>
#include <iostream>

#include "chem/scf.hpp"
#include "core/distributed_fock.hpp"
#include "pgas/runtime.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  using namespace emc;

  std::string molecule_name = "water";
  std::string basis_name = "sto-3g";
  std::int64_t ranks = 1;
  std::int64_t net_charge = 0;
  bool verbose = false;

  Cli cli("scf_hartree_fock", "Restricted Hartree-Fock driver");
  cli.add_string("molecule", 'm',
                 "molecule: h2, water, methane, benzene, water<k>, "
                 "alkane<k>",
                 &molecule_name);
  cli.add_string("basis", 'b', "basis set: sto-3g, 6-31g, 6-31g*",
                 &basis_name);
  cli.add_int("ranks", 'r', "PGAS ranks for the parallel Fock build",
              &ranks);
  cli.add_int("charge", 'q', "net molecular charge", &net_charge);
  cli.add_flag("verbose", 'v', "print orbital energies", &verbose);
  if (!cli.parse(argc, argv)) return 2;

  const chem::Molecule mol = chem::make_named_molecule(molecule_name);
  const chem::BasisSet basis = chem::BasisSet::build(mol, basis_name);
  std::cout << molecule_name << " (" << mol.size() << " atoms, "
            << mol.electron_count(static_cast<int>(net_charge))
            << " electrons) in " << basis_name << " ("
            << basis.function_count() << " functions, "
            << basis.shell_count() << " shells)\n";

  chem::ScfOptions options;
  options.net_charge = static_cast<int>(net_charge);

  Timer timer;
  chem::ScfResult result;
  if (ranks <= 1) {
    result = chem::run_rhf(mol, basis, options);
  } else {
    // Parallel Fock build: the distributed builder under work stealing,
    // rank partials accumulated one-sided each iteration, G built
    // incrementally as run_rhf builds it.
    pgas::Runtime runtime(static_cast<int>(ranks));
    core::DistributedFockBuilder builder(basis, runtime);
    chem::IncrementalGBuilder g(builder);
    result = chem::run_rhf_with_builder(mol, basis, std::ref(g), options);
  }
  const double seconds = timer.seconds();

  if (!result.converged) {
    std::cerr << "SCF did not converge in " << result.iterations
              << " iterations\n";
    return 1;
  }
  std::cout << "converged in " << result.iterations << " iterations, "
            << seconds << " s\n"
            << "  E(total)      = " << result.energy << " Hartree\n"
            << "  E(electronic) = " << result.electronic_energy << "\n"
            << "  E(nuclear)    = " << result.nuclear_repulsion << "\n"
            << "  E(kinetic)    = " << result.kinetic_energy
            << "  (virial -V/T = "
            << -(result.energy - result.kinetic_energy) /
                   result.kinetic_energy
            << ")\n";

  if (verbose) {
    std::cout << "orbital energies (Hartree):\n";
    const int n_occ =
        mol.electron_count(static_cast<int>(net_charge)) / 2;
    for (std::size_t i = 0; i < result.orbital_energies.size(); ++i) {
      std::cout << "  " << (static_cast<int>(i) < n_occ ? "occ " : "virt")
                << "  " << result.orbital_energies[i] << "\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "scf_hartree_fock: " << e.what() << "\n";
  return 2;
}
