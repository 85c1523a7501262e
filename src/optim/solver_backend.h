// Solver backend selection: the dense iterate (the bit-exact oracle,
// O(n³) nuclear prox) versus the factored low-rank iterate
// (FactoredMatrix, O(n·r²) prox — the path past the dense-SVD wall).
// The backend is threaded from the CLI through SlamPredConfig into
// SolveStage and down to the optim layer; see DESIGN.md "Factored
// low-rank solver".

#ifndef SLAMPRED_OPTIM_SOLVER_BACKEND_H_
#define SLAMPRED_OPTIM_SOLVER_BACKEND_H_

#include <cstddef>
#include <cstdint>

namespace slampred {

/// Which iterate representation the CCCP solve runs on.
enum class SolverBackend : std::uint8_t {
  kDense = 0,     ///< Dense n×n iterate, exact SVD prox (the oracle).
  kFactored = 1,  ///< S = U·Vᵀ iterate, factored prox + subspace reuse.
};

inline const char* SolverBackendName(SolverBackend backend) {
  return backend == SolverBackend::kFactored ? "factored" : "dense";
}

/// Size of the factored backend's randomized range sketch (its power
/// iterations and sketch seed are fixed in optim/factored_solver.cc).
struct FactoredSolverOptions {
  /// Target rank r of the iterate. The nuclear shrinkage truncates the
  /// spectrum anyway; r only needs to cover the surviving ranks.
  std::size_t rank = 24;
  /// Extra sketch columns beyond `rank` (range-finder oversampling).
  std::size_t oversampling = 8;
};

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_SOLVER_BACKEND_H_
