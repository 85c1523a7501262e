#include "features/structural_features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/thread_pool.h"

namespace slampred {

namespace {

// Applies `score(w)` over the common neighbors w of every pair (u, v)
// and accumulates into a symmetric map. Shared skeleton of CN/AA/RA.
//
// Gather form: row u collects score(w) for every two-hop path u–w–v,
// so each map row has exactly one writing chunk and the middle nodes w
// arrive in ascending order (neighbor lists are sorted) — the same
// per-element accumulation order as the classic scatter loop, hence
// bit-identical results for any thread count. Total work stays
// O(Σ deg(w)²).
template <typename ScoreFn>
Matrix AccumulateCommonNeighborScores(const SocialGraph& graph,
                                      ScoreFn score) {
  const std::size_t n = graph.num_users();
  std::vector<double> s(n, 0.0);
  std::size_t degree_sq_sum = 0;
  for (std::size_t w = 0; w < n; ++w) {
    s[w] = score(w);
    degree_sq_sum += graph.Degree(w) * graph.Degree(w);
  }
  const std::size_t avg_row_work = n == 0 ? 1 : degree_sq_sum / n + 1;
  Matrix map(n, n);
  ParallelFor(0, n, GrainForWork(avg_row_work),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t u = row0; u < row1; ++u) {
                  for (std::size_t w : graph.Neighbors(u)) {
                    if (s[w] == 0.0) continue;
                    for (std::size_t v : graph.Neighbors(w)) {
                      if (v != u) map(u, v) += s[w];
                    }
                  }
                }
              });
  return map;
}

// Sparse twin of AccumulateCommonNeighborScores: identical loops into a
// per-chunk accumulator, emitted as CSR rows. Per element (u, v) the
// middle nodes w arrive in the same ascending order, so stored values
// are bit-identical to the dense map's.
template <typename ScoreFn>
CsrMatrix AccumulateCommonNeighborScoresCsr(const SocialGraph& graph,
                                            ScoreFn score) {
  const std::size_t n = graph.num_users();
  std::vector<double> s(n, 0.0);
  std::size_t degree_sq_sum = 0;
  for (std::size_t w = 0; w < n; ++w) {
    s[w] = score(w);
    degree_sq_sum += graph.Degree(w) * graph.Degree(w);
  }
  const std::size_t avg_row_work = n == 0 ? 1 : degree_sq_sum / n + 1;
  return CsrMatrix::FromRowFill(
      n, n, GrainForWork(avg_row_work),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        SparseAccumulator acc(n);
        for (std::size_t u = row0; u < row1; ++u) {
          for (std::size_t w : graph.Neighbors(u)) {
            if (s[w] == 0.0) continue;
            for (std::size_t v : graph.Neighbors(w)) {
              if (v != u) acc.Add(v, s[w]);
            }
          }
          acc.Drain([&](std::size_t v, double x) { out.Push(v, x); });
          out.EndRow();
        }
      });
}

}  // namespace

Matrix CommonNeighborsMap(const SocialGraph& graph) {
  return AccumulateCommonNeighborScores(graph,
                                        [](std::size_t) { return 1.0; });
}

Matrix JaccardMap(const SocialGraph& graph) {
  const std::size_t n = graph.num_users();
  Matrix cn = CommonNeighborsMap(graph);
  Matrix map(n, n);
  // Each row is computed in full by its one writing chunk; cn is exactly
  // symmetric, so (u,v) and (v,u) still get equal scores.
  ParallelFor(0, n, GrainForWork(n),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t u = row0; u < row1; ++u) {
                  const double du = static_cast<double>(graph.Degree(u));
                  for (std::size_t v = 0; v < n; ++v) {
                    if (v == u) continue;
                    const double inter = cn(u, v);
                    if (inter == 0.0) continue;
                    const double uni =
                        du + static_cast<double>(graph.Degree(v)) - inter;
                    map(u, v) = uni > 0.0 ? inter / uni : 0.0;
                  }
                }
              });
  return map;
}

Matrix AdamicAdarMap(const SocialGraph& graph) {
  return AccumulateCommonNeighborScores(graph, [&](std::size_t w) {
    const double deg = static_cast<double>(graph.Degree(w));
    if (deg < 1.0) return 0.0;
    // deg=1 would give 1/log(1)=inf; use log 2 as the floor.
    return 1.0 / std::log(std::max(deg, 2.0));
  });
}

Matrix ResourceAllocationMap(const SocialGraph& graph) {
  return AccumulateCommonNeighborScores(graph, [&](std::size_t w) {
    const double deg = static_cast<double>(graph.Degree(w));
    return deg > 0.0 ? 1.0 / deg : 0.0;
  });
}

Matrix PreferentialAttachmentMap(const SocialGraph& graph) {
  const std::size_t n = graph.num_users();
  Matrix map(n, n);
  ParallelFor(0, n, GrainForWork(n),
              [&](std::size_t row0, std::size_t row1) {
                for (std::size_t u = row0; u < row1; ++u) {
                  const double du = static_cast<double>(graph.Degree(u));
                  for (std::size_t v = 0; v < n; ++v) {
                    if (u == v) continue;
                    map(u, v) = du * static_cast<double>(graph.Degree(v));
                  }
                }
              });
  return map;
}

Matrix TruncatedKatzMap(const SocialGraph& graph, double beta) {
  const Matrix a = graph.AdjacencyMatrix();
  Matrix a2 = a * a;
  Matrix a3 = a2 * a;
  Matrix katz = a2 * beta + a3 * (beta * beta);
  // Self paths are meaningless for link prediction.
  for (std::size_t i = 0; i < katz.rows(); ++i) katz(i, i) = 0.0;
  return katz;
}

CsrMatrix CommonNeighborsCsr(const SocialGraph& graph) {
  return AccumulateCommonNeighborScoresCsr(graph,
                                           [](std::size_t) { return 1.0; });
}

CsrMatrix JaccardCsr(const SocialGraph& graph) {
  const std::size_t n = graph.num_users();
  const CsrMatrix cn = CommonNeighborsCsr(graph);
  // The Jaccard pattern is exactly the common-neighbor pattern (the
  // dense map skips inter == 0 pairs); values use the dense expression.
  return CsrMatrix::FromRowFill(
      n, n, GrainForWork(cn.nnz() / std::max<std::size_t>(1, n) + 1),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        for (std::size_t u = row0; u < row1; ++u) {
          const double du = static_cast<double>(graph.Degree(u));
          const std::size_t begin = cn.row_ptr()[u];
          const std::size_t end = cn.row_ptr()[u + 1];
          for (std::size_t p = begin; p < end; ++p) {
            const std::size_t v = cn.col_idx()[p];
            const double inter = cn.values()[p];
            const double uni =
                du + static_cast<double>(graph.Degree(v)) - inter;
            out.Push(v, uni > 0.0 ? inter / uni : 0.0);
          }
          out.EndRow();
        }
      });
}

CsrMatrix AdamicAdarCsr(const SocialGraph& graph) {
  return AccumulateCommonNeighborScoresCsr(graph, [&](std::size_t w) {
    const double deg = static_cast<double>(graph.Degree(w));
    if (deg < 1.0) return 0.0;
    return 1.0 / std::log(std::max(deg, 2.0));
  });
}

CsrMatrix ResourceAllocationCsr(const SocialGraph& graph) {
  return AccumulateCommonNeighborScoresCsr(graph, [&](std::size_t w) {
    const double deg = static_cast<double>(graph.Degree(w));
    return deg > 0.0 ? 1.0 / deg : 0.0;
  });
}

CsrMatrix TruncatedKatzCsr(const SocialGraph& graph, double beta) {
  const std::size_t n = graph.num_users();
  std::size_t degree_sum = 0;
  std::size_t degree_sq_sum = 0;
  for (std::size_t w = 0; w < n; ++w) {
    degree_sum += graph.Degree(w);
    degree_sq_sum += graph.Degree(w) * graph.Degree(w);
  }
  // A row walks its two-hop set, then one more hop out of every member.
  const std::size_t avg_row_work =
      n == 0 ? 1 : (degree_sq_sum / n + 1) * (degree_sum / n + 1);
  const double beta_sq = beta * beta;
  return CsrMatrix::FromRowFill(
      n, n, GrainForWork(avg_row_work),
      [&](std::size_t row0, std::size_t row1, CsrRowWriter& out) {
        SparseAccumulator walks2(n);
        SparseAccumulator walks3(n);
        for (std::size_t u = row0; u < row1; ++u) {
          // Row u of A²: one per walk u–w–v, the diagonal included.
          for (std::size_t w : graph.Neighbors(u)) {
            for (std::size_t v : graph.Neighbors(w)) walks2.Add(v, 1.0);
          }
          walks2.Sort();
          // Row u of A³ = (row u of A²)·A, the middle k ascending. Every
          // count is an exact integer, so these equal the entries of the
          // dense products bit for bit. Adding 0 to k keeps the two-hop
          // set in walks3's pattern, an exact no-op on its count.
          for (std::size_t k : walks2.touched()) {
            walks3.Add(k, 0.0);
            for (std::size_t v : graph.Neighbors(k)) walks3.Add(v, walks2[k]);
          }
          walks3.Drain([&](std::size_t v, double c3) {
            // The dense map's a2·β + a3·(β·β), self paths dropped.
            if (v != u) out.Push(v, walks2[v] * beta + c3 * beta_sq);
          });
          walks2.Clear();
          out.EndRow();
        }
      });
}

}  // namespace slampred
