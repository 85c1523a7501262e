// The guardrail policy is written once for both solver backends: the
// same fault schedule, run through the dense (SolveCccp) and the
// factored (SolveCccpFactored) solve of the same 3×3 problem, must take
// the same recovery actions, counter for counter.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "optim/cccp.h"
#include "optim/factored_solver.h"
#include "optim/guardrails.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

#if SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_REQUIRE_INJECTION()
#else
#define SLAMPRED_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

// The fixture of the fault-injection suites: small, symmetric and
// converging hard.
const Matrix kAdjacency{{0.0, 1.0, 0.0}, {1.0, 0.0, 1.0}, {0.0, 1.0, 0.0}};

Matrix Gradient() {
  Matrix g(3, 3, 0.2);
  for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
  return g;
}

Objective DenseObjective() {
  Objective objective;
  objective.a = CsrMatrix::FromDense(kAdjacency);
  objective.grad_v = Gradient();
  objective.gamma = 0.05;
  objective.tau = 0.05;
  return objective;
}

FactoredObjective SketchedObjective() {
  FactoredObjective objective;
  objective.a = CsrMatrix::FromDense(kAdjacency);
  objective.grad_v = CsrMatrix::FromDense(Gradient());
  objective.gamma = 0.05;
  objective.tau = 0.05;
  return objective;
}

struct Schedule {
  std::string name;
  std::string site;
  FaultSpec spec;
  int max_recoveries = GuardrailOptions().max_recoveries;
  int max_checkpoint_resumes = GuardrailOptions().max_checkpoint_resumes;
  bool solves = true;  // Whether the solve survives the schedule.
};

// Names the schedule in test output (and so in the ctest test names).
void PrintTo(const Schedule& schedule, std::ostream* os) {
  *os << schedule.name;
}

FaultSpec Spec(FaultKind kind, int trigger_after, int max_triggers) {
  FaultSpec spec;
  spec.kind = kind;
  spec.trigger_after = trigger_after;
  spec.max_triggers = max_triggers;
  return spec;
}

// The schedules of the dense and factored fault-injection suites.
std::vector<Schedule> Schedules() {
  std::vector<Schedule> schedules = {
      {"GradStepNaNOnce", "fb.grad_step",
       Spec(FaultKind::kPoisonNaN, 2, 1)},
      {"GradStepInfOnce", "fb.grad_step",
       Spec(FaultKind::kPoisonInf, 0, 1)},
      {"SixNaNTriggersOverABudgetOfFour", "fb.grad_step",
       Spec(FaultKind::kPoisonNaN, 0, 6)},
      {"EveryStepPoisoned", "fb.grad_step",
       Spec(FaultKind::kPoisonNaN, 0, -1)},
      {"SvdProxFailsOnce", "svd.prox",
       Spec(FaultKind::kFailNotConverged, 3, 1)},
  };
  schedules[2].max_recoveries = 4;
  schedules[3].max_recoveries = 2;
  schedules[3].max_checkpoint_resumes = 1;
  schedules[3].solves = false;
  return schedules;
}

class GuardrailPolicyTest : public ::testing::TestWithParam<Schedule> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(GuardrailPolicyTest, DenseAndFactoredRecoverAlike) {
  SLAMPRED_REQUIRE_INJECTION();
  const Schedule& schedule = GetParam();
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 3000;
  options.inner.tol = 1e-11;
  options.max_outer_iterations = 3;
  options.inner.guardrails.max_recoveries = schedule.max_recoveries;
  options.inner.guardrails.max_checkpoint_resumes =
      schedule.max_checkpoint_resumes;
  FactoredSolverOptions full_rank;
  full_rank.rank = 3;
  full_rank.oversampling = 0;

  FaultInjector::Instance().Arm(schedule.site, schedule.spec);
  CccpTrace dense;
  const auto dense_s = SolveCccp(DenseObjective(), options, &dense);
  FaultInjector::Instance().Arm(schedule.site, schedule.spec);
  CccpTrace factored;
  const auto factored_s =
      SolveCccpFactored(SketchedObjective(), options, full_rank, &factored);

  EXPECT_EQ(dense_s.ok(), schedule.solves) << dense_s.status().ToString();
  EXPECT_EQ(factored_s.ok(), schedule.solves)
      << factored_s.status().ToString();
  EXPECT_GE(dense.recovery.Total(), 1);
  const RecoveryStats& d = dense.recovery;
  const RecoveryStats& f = factored.recovery;
  EXPECT_EQ(d.nan_rollbacks, f.nan_rollbacks);
  EXPECT_EQ(d.prox_rollbacks, f.prox_rollbacks);
  EXPECT_EQ(d.divergence_backoffs, f.divergence_backoffs);
  EXPECT_EQ(d.svd_fallbacks, f.svd_fallbacks);
  EXPECT_EQ(d.checkpoint_resumes, f.checkpoint_resumes);
  EXPECT_EQ(d.swap_failures, f.swap_failures);
  EXPECT_EQ(d.batch_failures, f.batch_failures);
  EXPECT_EQ(d.shed, f.shed);
  EXPECT_EQ(d.deadline_exceeded, f.deadline_exceeded);
  EXPECT_EQ(d.breaker_trips, f.breaker_trips);
  EXPECT_EQ(d.degraded_responses, f.degraded_responses);
  EXPECT_EQ(d.artifact_rollbacks, f.artifact_rollbacks);
}

INSTANTIATE_TEST_SUITE_P(FaultSchedules, GuardrailPolicyTest,
                         ::testing::ValuesIn(Schedules()));

}  // namespace
}  // namespace slampred
