// Randomized eviction-churn property tests for indexed victim selection (DESIGN.md §5,
// "Indexed eviction"). The property: with audit mode on, every indexed pick is cross-checked
// against the retained O(residents) reference scan and the process dies on the first
// divergence — so a run that completes IS the assertion. Exercised two ways:
//   1. a direct MemorySystem driver with a hand-installed static oracle, random
//      acquire/release/dirty/free churn on a tiny two-GPU machine (hits clean drops,
//      write-backs, p2p steals, staged fetches, prefetch cancellation and defragmentation
//      under both policies and both eviction modes), and
//   2. whole-session runs at minimal feasible capacity, seeded like RandomRunTest.
// Plus deterministic regressions: the indexes survive Defragment and FreeTensor, and
// CheckQuiescent reports leaked cancelled best-effort handles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/transfer_manager.h"
#include "src/mem/memory_manager.h"
#include "src/mem/tensor.h"
#include "src/runtime/next_use.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "tests/acquire_probe.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// Static per-(tensor, device) distance: answers never change, so it trivially satisfies the
// lazy heap's push-on-change contract while still producing varied tie-break tuples
// (including kNever, which combines with clean tensors into free-drop entries).
MemorySystem::NextUseFn StaticOracle() {
  return [](TensorId tensor, int device) -> std::uint64_t {
    std::uint64_t h = static_cast<std::uint64_t>(tensor) * std::uint64_t{0x9E3779B97F4A7C15} +
                      static_cast<std::uint64_t>(device) * std::uint64_t{0xBF58476D1CE4E5B9};
    h ^= h >> 31;
    h *= std::uint64_t{0x94D049BB133111EB};
    h ^= h >> 27;
    if (h % 5 == 0) {
      return kNever;
    }
    return h % 1000;
  };
}

class ChurnHarness {
 public:
  ChurnHarness(MemoryPolicy policy, Bytes capacity, bool install_oracle) {
    ServerConfig config;
    config.num_gpus = 2;
    topo_ = MakeCommodityServerTopology(config);
    tm_ = std::make_unique<TransferManager>(&sim_, &topo_);
    system_ = std::make_unique<MemorySystem>(&sim_, tm_.get(), &reg_, &topo_,
                                             std::vector<Bytes>{capacity, capacity}, policy);
    system_->set_audit_eviction(true);
    if (install_oracle) {
      system_->SetNextUseOracle(StaticOracle());
    }
  }

  Simulator sim_;
  AcquireProbe probe_{&sim_};
  Topology topo_;
  TensorRegistry reg_;
  std::unique_ptr<TransferManager> tm_;
  std::unique_ptr<MemorySystem> system_;
};

void ExpectIndexesConsistent(const MemorySystem& system) {
  for (int d = 0; d < system.num_devices(); ++d) {
    EXPECT_EQ(system.manager(d).DebugCheckIndexConsistency(), "");
  }
}

class EvictionChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(EvictionChurnTest, IndexedVictimMatchesReferenceScanUnderRandomChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * std::uint64_t{2654435761} + 11);

  MemoryPolicy policy;
  policy.write_back_clean = rng.NextBounded(2) == 0;
  policy.allow_p2p = rng.NextBounded(2) == 0;
  policy.eviction =
      rng.NextBounded(2) == 0 ? EvictionPolicy::kLru : EvictionPolicy::kLookahead;
  // Capacity fits ~5 aligned tensors while the population holds ~20, so almost every
  // acquisition evicts; two held sets (≤ 3584 B each) always fit side by side, so no
  // request can wedge behind pinned memory.
  const Bytes capacity = 8192;
  ChurnHarness h(policy, capacity, /*install_oracle=*/true);

  std::vector<TensorId> alive;
  for (int i = 0; i < 20; ++i) {
    const Bytes bytes = 64 + static_cast<Bytes>(rng.NextBounded(1437));  // aligns to ≤ 1536
    std::string name = "t";
    name.append(std::to_string(i));
    alive.push_back(h.reg_.Create(std::move(name), bytes, TensorClass::kActivation,
                                   /*host_valid=*/true));
  }

  struct HeldSet {
    int device;
    MemoryManager::AcquireHandle handle;
    std::vector<TensorId> pinned;
  };
  std::vector<HeldSet> held;
  int created = 20;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5 && held.size() < 2) {
      // Acquire 1-2 distinct alive tensors plus maybe scratch; occasionally best-effort
      // (prefetch-style), which may cancel instead of waiting.
      const int device = static_cast<int>(rng.NextBounded(2));
      WorkingSet set;
      const std::size_t want = 1 + rng.NextBounded(2);
      std::vector<TensorId> pool = alive;
      for (const HeldSet& hs : held) {
        for (TensorId pinned : hs.pinned) {
          pool.erase(std::remove(pool.begin(), pool.end(), pinned), pool.end());
        }
      }
      for (std::size_t k = 0; k < want && !pool.empty(); ++k) {
        const std::size_t pick = rng.NextBounded(pool.size());
        set.fetch.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (set.fetch.empty()) {
        continue;
      }
      set.scratch_bytes = static_cast<Bytes>(rng.NextBounded(3)) * 256;
      const bool best_effort = rng.NextBounded(4) == 0;
      std::vector<TensorId> pinned = set.fetch;
      const AcquireOutcome* acq =
          h.probe_.Acquire(h.system_->manager(device), std::move(set), best_effort);
      h.sim_.RunUntilIdle();
      ASSERT_TRUE(acq->fired);
      held.push_back(HeldSet{device, acq->handle, std::move(pinned)});
    } else if (!held.empty() && (op < 7 || held.size() >= 2)) {
      // Release one held set, sometimes dirtying its members first (Release is required
      // even for cancelled best-effort handles — that erase is what keeps cancelled_
      // bounded).
      const std::size_t pick = rng.NextBounded(held.size());
      HeldSet hs = held[static_cast<std::size_t>(pick)];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      MemoryManager& manager = h.system_->manager(hs.device);
      if (!manager.WasCancelled(hs.handle) && rng.NextBounded(2) == 0) {
        for (TensorId id : hs.pinned) {
          if (manager.IsResidentHere(id) && rng.NextBounded(2) == 0) {
            manager.MarkDirty(id);
          }
        }
      }
      manager.Release(hs.handle);
      h.sim_.RunUntilIdle();
    } else if (op == 8 && alive.size() > 6) {
      // Free an unpinned tensor (end of life) and mint a replacement so the population —
      // and with it the eviction pressure — stays constant.
      std::vector<TensorId> pool = alive;
      for (const HeldSet& hs : held) {
        for (TensorId pinned : hs.pinned) {
          pool.erase(std::remove(pool.begin(), pool.end(), pinned), pool.end());
        }
      }
      if (pool.empty()) {
        continue;
      }
      const TensorId victim = pool[rng.NextBounded(pool.size())];
      const TensorState& s = h.reg_.state(victim);
      const int owner = s.device >= 0 ? s.device : 0;
      h.system_->manager(owner).FreeTensor(victim);
      h.sim_.RunUntilIdle();
      alive.erase(std::remove(alive.begin(), alive.end(), victim), alive.end());
      const Bytes bytes = 64 + static_cast<Bytes>(rng.NextBounded(1437));
      alive.push_back(h.reg_.Create("t" + std::to_string(created++), bytes,
                                     TensorClass::kActivation, /*host_valid=*/true));
    }
    if (step % 50 == 0) {
      ExpectIndexesConsistent(*h.system_);
    }
  }

  for (const HeldSet& hs : held) {
    h.system_->manager(hs.device).Release(hs.handle);
  }
  h.sim_.RunUntilIdle();
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
  EXPECT_GT(h.system_->manager(0).counters().evictions +
                h.system_->manager(1).counters().evictions,
            0);

}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionChurnTest, ::testing::Range(0, 24));

// Whole-session churn: the engine installs its real plan-derived oracle and the audit
// cross-checks every pick the full runtime stack makes, at the minimum feasible capacity
// where eviction pressure is worst.
class SessionAuditChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionAuditChurnTest, FullRunsAuditCleanAtMinimalCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
  SessionConfig config = test_models::RandomChurnSession(rng, model.num_layers());
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  EXPECT_GT(result.report.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionAuditChurnTest, ::testing::Range(0, 12));

// The indexes (LRU list, lookahead heap, oracle keys) survive Defragment: compaction moves
// allocation offsets but never changes ticks or oracle answers, so a post-defrag eviction
// still matches the reference scan.
TEST(IndexRegressionTest, IndexesSurviveDefragment) {
  MemoryPolicy policy;
  policy.write_back_clean = false;
  policy.eviction = EvictionPolicy::kLookahead;
  ChurnHarness h(policy, /*capacity=*/2048, /*install_oracle=*/true);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 256, TensorClass::kActivation, true);
  const TensorId b = reg.Create("B", 256, TensorClass::kActivation, true);
  const TensorId c = reg.Create("C", 256, TensorClass::kActivation, true);
  const TensorId d = reg.Create("D", 256, TensorClass::kActivation, true);
  WorkingSet warm;
  warm.fetch = {a, b, c, d};
  const AcquireOutcome* acq = h.probe_.Acquire(mgr, std::move(warm));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(acq->fired);

  // Pin A and C through a second handle, then release the warm-up pins and punch holes at
  // B and D. Free space is now 256 @B + 256 @D + 1024 at the end — 1536 B total but only
  // 1024 contiguous, and the two residents are pinned, so a 1536-B allocation can neither
  // fit nor evict: the manager must defragment.
  WorkingSet pin_ac;
  pin_ac.fetch = {a, c};
  const AcquireOutcome* pins = h.probe_.Acquire(mgr, std::move(pin_ac));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(pins->fired);
  mgr.Release(acq->handle);
  h.sim_.RunUntilIdle();
  mgr.FreeTensor(b);
  mgr.FreeTensor(d);
  h.sim_.RunUntilIdle();

  const TensorId e = reg.Create("E", 1536, TensorClass::kActivation, false);
  WorkingSet big;
  big.allocate = {e};
  const AcquireOutcome* big_acq = h.probe_.Acquire(mgr, std::move(big));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(big_acq->fired);
  EXPECT_EQ(mgr.counters().defrags, 1);
  EXPECT_EQ(mgr.DebugCheckIndexConsistency(), "");

  // Post-defrag churn: evicting with relocated offsets must still audit clean.
  mgr.Release(pins->handle);
  mgr.Release(big_acq->handle);
  h.sim_.RunUntilIdle();
  const TensorId f = reg.Create("F", 1024, TensorClass::kActivation, true);
  WorkingSet squeeze;
  squeeze.fetch = {f};
  const AcquireOutcome* sq = h.probe_.Acquire(mgr, std::move(squeeze));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(sq->fired);
  mgr.Release(sq->handle);
  h.sim_.RunUntilIdle();
  EXPECT_GT(mgr.counters().evictions, 0);
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
}

// FreeTensor mid-stream removes the tensor from every index; later evictions and a final
// quiescence check must not see ghosts of it.
TEST(IndexRegressionTest, IndexesSurviveFreeTensor) {
  MemoryPolicy policy;
  policy.write_back_clean = true;  // LMS-style: evictions are write-backs, never free drops
  policy.eviction = EvictionPolicy::kLru;
  ChurnHarness h(policy, /*capacity=*/2048, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 512, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 512, TensorClass::kWeight, true);
  const TensorId c = reg.Create("C", 512, TensorClass::kWeight, true);
  for (TensorId id : {a, b, c}) {
    WorkingSet set;
    set.fetch = {id};
    const AcquireOutcome* acq = h.probe_.Acquire(mgr, std::move(set));
    h.sim_.RunUntilIdle();
    ASSERT_TRUE(acq->fired);
    mgr.Release(acq->handle);
    h.sim_.RunUntilIdle();
  }
  mgr.FreeTensor(b);
  h.sim_.RunUntilIdle();
  EXPECT_EQ(mgr.DebugCheckIndexConsistency(), "");

  // A is now the LRU head; the next pressure evicts it (audited against the scan), not
  // the freed B.
  const TensorId d = reg.Create("D", 1024, TensorClass::kWeight, true);
  WorkingSet set;
  set.fetch = {d};
  const AcquireOutcome* acq = h.probe_.Acquire(mgr, std::move(set));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(acq->fired);
  EXPECT_EQ(reg.state(a).residency, Residency::kNone);
  mgr.Release(acq->handle);
  h.sim_.RunUntilIdle();
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
}

// A cancelled best-effort handle that is never Released leaks an entry in cancelled_;
// CheckQuiescent must call that out (the tuner sweep would otherwise grow it forever), and
// the late Release must clear it.
TEST(IndexRegressionTest, CheckQuiescentReportsLeakedCancelledHandles) {
  ChurnHarness h(HarmonyPolicy(), /*capacity=*/1024, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 768, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 768, TensorClass::kWeight, true);
  WorkingSet pin_a;
  pin_a.fetch = {a};
  const AcquireOutcome* held = h.probe_.Acquire(mgr, std::move(pin_a));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(held->fired);

  // B cannot fit without evicting pinned A: the best-effort request cancels.
  WorkingSet want_b;
  want_b.fetch = {b};
  const AcquireOutcome* prefetch =
      h.probe_.Acquire(mgr, std::move(want_b), /*best_effort=*/true);
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(prefetch->fired);
  ASSERT_TRUE(mgr.WasCancelled(prefetch->handle));

  mgr.Release(held->handle);
  h.sim_.RunUntilIdle();
  const Status leaked = h.system_->CheckQuiescent();
  ASSERT_FALSE(leaked.ok());
  EXPECT_NE(leaked.ToString().find("cancelled"), std::string::npos) << leaked.ToString();

  mgr.Release(prefetch->handle);  // the required cleanup erases the entry
  const Status clean = h.system_->CheckQuiescent();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

// ---- NextUseIndex (the engine's O(1) amortized oracle substrate) --------------------------

TEST(NextUseIndexTest, CursorAnswersMatchDefinition) {
  NextUseIndex index(/*num_devices=*/1);
  const TensorId t = 3;
  index.AddUse(t, 0, 2);
  index.AddUse(t, 0, 5);
  index.AddUse(t, 0, 5);  // duplicate positions are legal (two tasks at one queue slot)
  index.AddUse(t, 0, 9);
  index.Finalize();
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 0), 2u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 2), 2u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 3), 5u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 6), 9u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 10), NextUseIndex::kNever);
}

TEST(NextUseIndexTest, UnknownTensorIsNeverUsed) {
  NextUseIndex index(/*num_devices=*/2);
  index.AddUse(1, 0, 4);
  index.Finalize();
  EXPECT_EQ(index.NextUseAtOrAfter(7, 0, 0), NextUseIndex::kNever);
  EXPECT_EQ(index.NextUseAtOrAfter(1, 1, 0), NextUseIndex::kNever);  // used, but elsewhere
  EXPECT_EQ(index.NextUseAtOrAfter(1, 0, 0), 4u);
}

TEST(NextUseIndexTest, MatchesLowerBoundReferenceUnderMonotoneQueries) {
  // Three devices sharing 16 tensors, so every row holds one group per device.
  constexpr int kDevices = 3;
  Rng rng(0xFEED);
  std::vector<std::vector<std::vector<std::uint64_t>>> reference(
      kDevices, std::vector<std::vector<std::uint64_t>>(16));
  NextUseIndex index(kDevices);
  for (int d = 0; d < kDevices; ++d) {
    for (std::uint64_t pos = 0; pos < 500; ++pos) {
      const TensorId t = static_cast<TensorId>(rng.NextBounded(16));
      index.AddUse(t, d, pos);
      reference[static_cast<std::size_t>(d)][static_cast<std::size_t>(t)].push_back(pos);
    }
  }
  index.Finalize();
  // Devices advance independently: each has its own query position.
  std::vector<std::uint64_t> pos(kDevices, 0);
  while (true) {
    const int d = static_cast<int>(rng.NextBounded(kDevices));
    std::uint64_t& p = pos[static_cast<std::size_t>(d)];
    if (p > 500) {
      if (std::all_of(pos.begin(), pos.end(), [](std::uint64_t q) { return q > 500; })) {
        break;
      }
      continue;
    }
    for (TensorId t = 0; t < 16; ++t) {
      const auto& uses = reference[static_cast<std::size_t>(d)][static_cast<std::size_t>(t)];
      const auto it = std::lower_bound(uses.begin(), uses.end(), p);
      const std::uint64_t expected = it == uses.end() ? NextUseIndex::kNever : *it;
      EXPECT_EQ(index.NextUseAtOrAfter(t, d, p), expected)
          << "device " << d << " tensor " << t << " pos " << p;
    }
    p += 1 + rng.NextBounded(7);
  }
}

// The engine's index over a real multi-device lookahead plan answers exactly what a linear
// scan of plan.per_device_order gives from each device's current position, and its
// footprint is linear in the plan, not devices x tensors.
TEST(NextUseIndexTest, PlanIndexMatchesBruteForceScan) {
  for (const Scheme scheme : {Scheme::kHarmonyPp, Scheme::kHarmonyDp, Scheme::kBaselinePp}) {
    const Model model = test_models::FaultModel(6);
    SessionConfig config = test_models::FaultConfig(/*n_gpus=*/4, /*microbatches=*/3);
    config.scheme = scheme;
    config.iterations = 2;
    config.lookahead_eviction = true;
    const Machine machine = MakeSessionMachine(config);
    TensorRegistry registry;
    const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
    ASSERT_EQ(plan.num_devices(), 4);

    NextUseIndex index = NextUseIndex::ForPlan(plan);
    std::size_t uses = 0;
    for (const Task& task : plan.tasks) {
      uses += task.working_set.fetch.size() + task.working_set.accumulate.size() +
              task.working_set.allocate.size();
    }
    // 12 bytes per group (at most one per use), 4 per position and per row, 8 per device.
    const std::size_t tensors = static_cast<std::size_t>(registry.size());
    EXPECT_LE(index.MemoryBytes(), 16 * uses + 4 * (tensors + 1) + 8 * 4)
        << SchemeName(scheme);

    auto touches = [&](TaskId task_id, TensorId id) {
      const WorkingSet& ws = plan.tasks[static_cast<std::size_t>(task_id)].working_set;
      for (const std::vector<TensorId>* ids : {&ws.fetch, &ws.accumulate, &ws.allocate}) {
        if (std::find(ids->begin(), ids->end(), id) != ids->end()) {
          return true;
        }
      }
      return false;
    };
    // Step the devices round-robin through their queues, the way the engine interleaves
    // them, asking about every tensor in the registry at each stop.
    std::vector<std::size_t> pos(4, 0);
    bool advanced = true;
    while (advanced) {
      advanced = false;
      for (int d = 0; d < 4; ++d) {
        const std::vector<TaskId>& order = plan.per_device_order[static_cast<std::size_t>(d)];
        std::size_t& p = pos[static_cast<std::size_t>(d)];
        if (p > order.size()) {
          continue;
        }
        for (TensorId id = 0; id < registry.size(); ++id) {
          std::uint64_t expected = NextUseIndex::kNever;
          for (std::size_t q = p; q < order.size(); ++q) {
            if (touches(order[q], id)) {
              expected = q;
              break;
            }
          }
          ASSERT_EQ(index.NextUseAtOrAfter(id, d, p), expected)
              << SchemeName(scheme) << " device " << d << " tensor " << id << " pos " << p;
        }
        p += 1 + static_cast<std::size_t>(d);  // devices advance at different rates
        advanced = true;
      }
    }
  }
}

}  // namespace
}  // namespace harmony
