// Theorem 1's Laplacian sandwiches Z·L·Zᵀ, with L = D − W the graph
// Laplacian of an instance indicator W (Section III-C1) and Z the
// block-diagonal feature matrix of the instance sample (column i holds
// instance i's features in its own network's rows, exact zeros
// elsewhere). Neither L nor Z is formed: one kernel walks W's rows
// through a visitor and reads each instance's own feature block. Only
// the aligned indicator W_A is stored (embedding/indicator_matrices.h);
// W_S and W_D depend on nothing but the existence labels — row i of
// W_S is the other instances of i's class, row i of W_D the other
// class, every value 1 — so they are walked from the two class index
// lists and nothing of size |L|² is ever built.

#ifndef SLAMPRED_EMBEDDING_LAPLACIAN_H_
#define SLAMPRED_EMBEDDING_LAPLACIAN_H_

#include "embedding/link_instance.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"

namespace slampred {

/// The label indicators of Section III-C: W_S(i, j) = 1 iff i ≠ j and
/// the instances share their existence label, W_D(i, j) = 1 iff the
/// labels differ.
enum class LabelIndicator { kSimilar, kDissimilar };

/// Z L Zᵀ = Σᵢ dᵢ zᵢ zᵢᵀ − Σ_{(i,j)∈W} wᵢⱼ zᵢ zⱼᵀ for a symmetric,
/// non-negative W over the sample's instances, stored as a CSR matrix
/// of order `sample.total()`. The result is (Σ_k d_k) x (Σ_k d_k).
Matrix SandwichLaplacian(const InstanceSample& sample, const CsrMatrix& w);

/// The same sandwich for W_S or W_D, read from the existence labels.
/// Bit for bit what the CSR overload gives on the indicator stored
/// with its rows in ascending column order.
Matrix SandwichLaplacian(const InstanceSample& sample, LabelIndicator w);

}  // namespace slampred

#endif  // SLAMPRED_EMBEDDING_LAPLACIAN_H_
