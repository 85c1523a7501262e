// Tests for the deterministic fault injector and for every solver
// guardrail it exercises: NaN rollback, divergence backoff, the SVD
// fallback chain, checkpoint resume, and the graph_io parse policies.

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "optim/cccp.h"
#include "optim/forward_backward.h"
#include "optim/guardrails.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

// Tests that arm a site only make sense with the hooks compiled in
// (-DSLAMPRED_FAULT_INJECTION=ON, the default).
#if SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_REQUIRE_INJECTION()
#else
#define SLAMPRED_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(FaultInjectionTest, HitCountingAndTriggerWindow) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  EXPECT_EQ(injector.Hit("unarmed.site"), FaultKind::kNone);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  injector.Arm("site.a", spec);

  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kFailNotConverged);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);  // Budget spent.
  EXPECT_EQ(injector.HitCount("site.a"), 4);
  EXPECT_EQ(injector.TriggerCount("site.a"), 1);

  injector.Disarm("site.a");
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
}

TEST_F(FaultInjectionTest, UnlimitedTriggersAndReset) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = -1;
  injector.Arm("site.b", spec);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.Hit("site.b"), FaultKind::kPoisonNaN);
  }
  injector.Reset();
  EXPECT_EQ(injector.Hit("site.b"), FaultKind::kNone);
  // Hits are not tracked while nothing is armed (zero-overhead fast path).
  EXPECT_EQ(injector.HitCount("site.b"), 0);
  EXPECT_EQ(injector.TriggerCount("site.b"), 0);
}

TEST_F(FaultInjectionTest, EveryNFiresOnPeriodicEligibleHits) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  spec.every_n = 3;
  spec.max_triggers = -1;
  injector.Arm("site.n", spec);

  // Fires on exactly the 3rd, 6th, 9th, ... hit.
  for (int hit = 1; hit <= 12; ++hit) {
    const FaultKind got = injector.Hit("site.n");
    if (hit % 3 == 0) {
      EXPECT_EQ(got, FaultKind::kFailIo) << "hit " << hit;
    } else {
      EXPECT_EQ(got, FaultKind::kNone) << "hit " << hit;
    }
  }
  EXPECT_EQ(injector.HitCount("site.n"), 12);
  EXPECT_EQ(injector.TriggerCount("site.n"), 4);
}

TEST_F(FaultInjectionTest, EveryNComposesWithTriggerAfterAndMaxTriggers) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kFailNumerical;
  spec.trigger_after = 2;  // Hits 1-2 pass; eligible hits start at 3.
  spec.every_n = 2;        // Fire on the 2nd, 4th, ... eligible hit.
  spec.max_triggers = 2;   // ...but only twice in total.
  injector.Arm("site.c", spec);

  // Eligible index is (hit - trigger_after): hit 4 → eligible 2 (fires),
  // hit 6 → eligible 4 (fires, budget spent), nothing afterwards.
  const FaultKind expected[] = {
      FaultKind::kNone,          FaultKind::kNone, FaultKind::kNone,
      FaultKind::kFailNumerical, FaultKind::kNone, FaultKind::kFailNumerical,
      FaultKind::kNone,          FaultKind::kNone, FaultKind::kNone,
      FaultKind::kNone};
  for (int hit = 0; hit < 10; ++hit) {
    EXPECT_EQ(injector.Hit("site.c"), expected[hit]) << "hit " << (hit + 1);
  }
  EXPECT_EQ(injector.TriggerCount("site.c"), 2);
}

TEST_F(FaultInjectionTest, EveryNOfOneKeepsHistoricalEveryHitBehavior) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  for (const int every_n : {0, 1}) {
    FaultSpec spec;
    spec.kind = FaultKind::kPoisonNaN;
    spec.every_n = every_n;
    spec.max_triggers = -1;
    injector.Arm("site.one", spec);
    for (int hit = 0; hit < 4; ++hit) {
      EXPECT_EQ(injector.Hit("site.one"), FaultKind::kPoisonNaN)
          << "every_n " << every_n << " hit " << hit;
    }
    injector.Disarm("site.one");
  }
}

// kStall parks the hitting thread until the site's arming ends — by
// Disarm, by a re-Arm or by Reset — and then injects nothing. The
// trigger is counted before the hit blocks.
TEST_F(FaultInjectionTest, StallBlocksUntilItsArmingEnds) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kStall;
  const std::function<void()> releases[] = {
      [&] { injector.Disarm("site.stall"); },
      [&] { injector.Arm("site.stall", spec); },
      [&] { injector.Reset(); },
  };
  for (std::size_t r = 0; r < 3; ++r) {
    injector.Arm("site.stall", spec);
    std::atomic<bool> returned{false};
    FaultKind got = FaultKind::kPoisonNaN;
    std::thread hitter([&] {
      got = injector.Hit("site.stall");
      returned = true;
    });
    while (injector.TriggerCount("site.stall") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned) << "release " << r;
    EXPECT_EQ(injector.HitCount("site.stall"), 1) << "release " << r;

    // Other sites are not held up by the parked hit.
    EXPECT_EQ(injector.Hit("site.other"), FaultKind::kNone);

    releases[r]();
    hitter.join();
    EXPECT_EQ(got, FaultKind::kNone) << "release " << r;
  }

  // Past the trigger budget (max_triggers = 1) a hit passes straight
  // through, and Disarm leaves the counters for inspection.
  injector.Arm("site.stall", spec);
  std::thread first([&] { injector.Hit("site.stall"); });
  while (injector.TriggerCount("site.stall") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(injector.Hit("site.stall"), FaultKind::kNone);
  injector.Disarm("site.stall");
  first.join();
  EXPECT_EQ(injector.HitCount("site.stall"), 2);
  EXPECT_EQ(injector.TriggerCount("site.stall"), 1);
  EXPECT_STREQ(FaultKindToString(FaultKind::kStall), "STALL");
}

// Small symmetric fixture whose solve converges hard, so fault-free and
// recovered runs land on the same fixed point.
Objective SmallObjective() {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0, 0.0},
                                            {1.0, 0.0, 1.0},
                                            {0.0, 1.0, 0.0}});
  Matrix g(3, 3, 0.2);
  for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
  objective.grad_v = g;
  objective.gamma = 0.05;
  objective.tau = 0.05;
  return objective;
}

CccpOptions TightOptions() {
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 3000;
  options.inner.tol = 1e-11;
  options.max_outer_iterations = 3;
  return options;
}

TEST_F(FaultInjectionTest, SvdProxFaultTriggersFallbackChain) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();

  CccpTrace clean_trace;
  auto clean = SolveCccp(objective, options, &clean_trace);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean_trace.recovery.Total(), 0);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.trigger_after = 3;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("svd.prox", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.svd_fallbacks, 1);
  EXPECT_EQ(FaultInjector::Instance().TriggerCount("svd.prox"), 1);
  // The recovered solve reaches the same fixed point (which bounds any
  // score-derived metric such as AUC far below the 1e-6 budget).
  EXPECT_LT((faulted.value() - clean.value()).MaxAbs(), 1e-6);
}

TEST_F(FaultInjectionTest, SvdProxPoisonIsCaughtByFallback) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  auto clean = SolveCccp(objective, options);
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.trigger_after = 1;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("svd.prox", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.svd_fallbacks, 1);
  EXPECT_LT((faulted.value() - clean.value()).MaxAbs(), 1e-6);
}

TEST_F(FaultInjectionTest, GradStepPoisonRollsBackAndRecovers) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  auto clean = SolveCccp(objective, options);
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.nan_rollbacks, 1);
  EXPECT_LT((faulted.value() - clean.value()).MaxAbs(), 1e-6);
}

TEST_F(FaultInjectionTest, GradStepInfPoisonAlsoCaught) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonInf;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.nan_rollbacks, 1);
  EXPECT_TRUE(MatrixIsFinite(faulted.value()));
}

TEST_F(FaultInjectionTest, PersistentFaultExhaustsInnerBudgetThenResumes) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 4;

  // 5 poisoned steps exhaust the inner budget of 4; the 6th and last
  // trigger is absorbed by the resumed run's first recovery.
  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = 6;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
  EXPECT_GE(trace.recovery.nan_rollbacks, 5);
  EXPECT_TRUE(MatrixIsFinite(faulted.value()));

  auto clean = SolveCccp(objective, TightOptions());
  ASSERT_TRUE(clean.ok());
  EXPECT_LT((faulted.value() - clean.value()).MaxAbs(), 1e-6);
}

TEST_F(FaultInjectionTest, UnrecoverableFaultReturnsStatusNotAbort) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 2;
  options.inner.guardrails.max_checkpoint_resumes = 1;

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = -1;  // Every gradient step is poisoned, forever.
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = SolveCccp(objective, options, &trace);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
}

TEST_F(FaultInjectionTest, DivergenceBackoffTamesUnstableStepSize) {
  // θ = 5 is far beyond the 1/L = 0.5 stability bound: without the
  // guardrail the iterates oscillate with geometrically growing change.
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  objective.grad_v = Matrix(2, 2);
  objective.gamma = 0.0;
  objective.tau = 0.0;

  ForwardBackwardOptions options;
  options.theta = 5.0;
  options.max_iterations = 400;
  options.tol = 1e-10;
  options.project_unit_box = false;

  IterationTrace trace;
  RecoveryStats recovery;
  auto s = GeneralizedForwardBackward(objective, Matrix(2, 2), options,
                                      &trace, &recovery);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_GE(recovery.divergence_backoffs, 1);
  // After the backoffs bring θ into the stable range the loop converges
  // to the unregularised minimiser S = A.
  EXPECT_LT((s.value() - objective.a.ToDense()).MaxAbs(), 1e-3);
}

TEST_F(FaultInjectionTest, GuardrailsDisabledPropagatesProxFailure) {
  SLAMPRED_REQUIRE_INJECTION();
  const Objective objective = SmallObjective();
  CccpOptions options = TightOptions();
  options.inner.guardrails.enabled = false;

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("svd.prox", spec);

  auto faulted = SolveCccp(objective, options);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
}

TEST_F(FaultInjectionTest, HealthyRunsAreDeterministicWithHooksCompiledIn) {
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  CccpTrace trace_a;
  CccpTrace trace_b;
  auto a = SolveCccp(objective, options, &trace_a);
  auto b = SolveCccp(objective, options, &trace_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().data(), b.value().data());  // Bit-identical.
  EXPECT_EQ(trace_a.steps.s_change_l1, trace_b.steps.s_change_l1);
  EXPECT_EQ(trace_a.recovery.Total(), 0);
  EXPECT_EQ(trace_b.recovery.Total(), 0);
}

TEST_F(FaultInjectionTest, GraphIoParseFaultStrictFailsLenientSkips) {
  SLAMPRED_REQUIRE_INJECTION();
  const std::string text = "nodes user 3\nedge friend 0 1\nedge friend 1 2\n";

  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  spec.trigger_after = 1;  // Fault the first edge record.
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("graph_io.parse", spec);

  auto strict = ParseNetwork(text, ParseOptions{ParsePolicy::kStrict});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kIoError);
  EXPECT_NE(strict.status().message().find("line 2"), std::string::npos);

  FaultInjector::Instance().Arm("graph_io.parse", spec);
  ParseStats stats;
  auto lenient =
      ParseNetwork(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_EQ(stats.first_error.code(), StatusCode::kIoError);
  // The faulted record is lost, the rest of the file is salvaged.
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 1u);
  EXPECT_TRUE(lenient.value().HasEdge(EdgeType::kFriend, 1, 2));
}

TEST_F(FaultInjectionTest, RecoveryStatsMergeAndToString) {
  RecoveryStats a;
  a.nan_rollbacks = 1;
  a.svd_fallbacks = 2;
  RecoveryStats b;
  b.prox_rollbacks = 3;
  b.divergence_backoffs = 4;
  b.checkpoint_resumes = 5;
  a.Merge(b);
  EXPECT_EQ(a.Total(), 15);
  const std::string text = a.ToString();
  EXPECT_NE(text.find("nan_rollbacks=1"), std::string::npos);
  EXPECT_NE(text.find("svd_fallbacks=2"), std::string::npos);
  EXPECT_NE(text.find("checkpoint_resumes=5"), std::string::npos);
}

}  // namespace
}  // namespace slampred
