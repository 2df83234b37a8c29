// Golden tests for the structured observability exports (DESIGN.md §8).
//
// The first test rebuilds bench_fig4_schedule's toy configuration (4-layer model, 2 GPUs,
// Harmony-PP, 2 microbatches, record_timeline on), renders the JSON run report plus the
// --explain attribution, and compares the result *byte-for-byte* against the committed
// golden file.
// The JSON is also schema-validated through util/json.h, so a drift failure distinguishes
// "output changed" from "output is no longer well-formed". The second pins the two other
// JSON exports the same way: a deep lint report whose findings quote tensor names holding
// a quote and a newline, and the cluster report of a fixed three-job stream with one
// preemption. Regenerate the goldens after an intentional schema/format change with:
//   build/tests/explain_golden_test --update_golden    (any argv[1] triggers the rewrite)
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/runtime/plan_lint.h"
#include "src/runtime/report_io.h"
#include "src/util/check.h"
#include "src/util/json.h"

#ifndef HARMONY_EXPLAIN_GOLDEN_PATH
#define HARMONY_EXPLAIN_GOLDEN_PATH "tools/golden_explain.json"
#endif
#ifndef HARMONY_LINT_CLUSTER_GOLDEN_PATH
#define HARMONY_LINT_CLUSTER_GOLDEN_PATH "tools/golden_lint_cluster.json"
#endif

namespace harmony {
namespace {

bool g_update_golden = false;

// The exact bench_fig4_schedule configuration — the toy schedule the paper's Fig. 4 draws.
SessionResult RunToySchedule() {
  UniformModelConfig mc;
  mc.name = "toy-4layer";
  mc.num_layers = 4;
  mc.param_bytes = 256 * kMiB;
  mc.act_bytes_per_sample = 64 * kMiB;
  mc.fwd_flops_per_sample = 4e11;
  mc.optimizer_state_factor = 1.0;
  const Model model = MakeUniformModel(mc);

  SessionConfig config;
  config.server.num_gpus = 2;
  config.server.gpu = TestGpu(2 * kGiB, TFlops(4.0));
  config.scheme = Scheme::kHarmonyPp;
  config.microbatches = 2;
  config.microbatch_size = 4;
  config.iterations = 1;
  config.record_timeline = true;
  return RunTraining(model, config);
}

// The golden document: the JSON report followed by the rendered attribution, separated so
// one file pins both the machine-readable and the human-readable form.
std::string GoldenDocument(const SessionResult& result) {
  std::string out = ReportToJson(result.report);
  out += "---- explain ----\n";
  out += Attribute(result.report).Render();
  return out;
}

// Compares `document` byte-for-byte against the golden at `path`, or rewrites the golden
// under --update_golden.
void ExpectMatchesGolden(const std::string& document, const char* path) {
  if (g_update_golden) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << document;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with --update_golden";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(document, golden.str())
      << "output drifted from the committed golden " << path
      << "; if intentional, regenerate with: build/tests/explain_golden_test --update_golden";
}

// A two-device plan whose consumer lost its edge to the producer: the deep lint reports the
// unordered cross-device use of a tensor whose name carries a quote and a newline, so the
// JSON string escaping is pinned along with the report layout.
std::string LintReportDocument() {
  TensorRegistry registry;
  const TensorId weight =
      registry.Create("W[\"q\"]", 4 * kMiB, TensorClass::kWeight, /*host_valid=*/true);
  const TensorId act =
      registry.Create("X\n0", 2 * kMiB, TensorClass::kActivation, /*host_valid=*/false);
  Plan plan;
  plan.scheme = "golden \"lint\"";
  plan.num_iterations = 1;
  plan.per_device_order = {{0}, {1}};
  Task producer;
  producer.id = 0;
  producer.kind = TaskKind::kForward;
  producer.device = 0;
  producer.working_set.fetch = {weight};
  producer.working_set.allocate = {act};
  producer.dirty_outputs = {act};
  Task consumer;
  consumer.id = 1;
  consumer.kind = TaskKind::kForward;
  consumer.device = 1;
  consumer.working_set.fetch = {act};
  plan.tasks = {producer, consumer};

  LintOptions options;
  options.deep = true;
  options.device_capacities = {16 * kMiB, 16 * kMiB};
  return LintPlan(plan, registry, options).ToJson() + "\n";
}

// A fixed --jobs stream under the priority policy: the high-priority arrival preempts the
// low-priority gang once, and a serving job queues behind both.
std::string ClusterReportDocument() {
  const StatusOr<std::vector<JobSpec>> jobs = ParseJobsSpec(
      "train@0:tenant=low,gpus=4,iters=4,prio=0;"
      "train@1.25:tenant=hi,gpus=4,iters=2,prio=5,scheme=harmony-dp;"
      "serve@2.5:tenant=web,model=toy,mb=2,mbs=1");
  HCHECK(jobs.ok()) << jobs.status().ToString();
  ClusterSchedulerConfig config;
  config.server.num_gpus = 4;
  config.policy = SchedPolicy::kPriority;
  const StatusOr<ClusterReport> report = RunJobStream(jobs.value(), config);
  HCHECK(report.ok()) << report.status().ToString();
  HCHECK_EQ(report.value().preemptions, 1);
  return ClusterReportToJson(report.value());
}

TEST(ExplainGoldenTest, LintAndClusterJsonIsByteStable) {
  const std::string lint = LintReportDocument();
  const std::string cluster = ClusterReportDocument();
  for (const std::string* json : {&lint, &cluster}) {
    const StatusOr<JsonValue> parsed = ParseJson(*json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  const JsonValue lint_root = ParseJson(lint).value();
  ASSERT_FALSE(lint_root.Find("findings")->as_array().empty());
  EXPECT_TRUE(lint_root.Find("deep")->as_bool());
  EXPECT_EQ(ParseJson(cluster).value().Find("preemptions")->as_number(), 1.0);

  ExpectMatchesGolden(lint + "---- cluster ----\n" + cluster,
                      HARMONY_LINT_CLUSTER_GOLDEN_PATH);
}

TEST(ExplainGoldenTest, ToyScheduleExplainOutputIsByteStable) {
  const SessionResult result = RunToySchedule();
  const std::string document = GoldenDocument(result);

  // Schema gate first: the JSON half must parse and carry the §8 required fields.
  const std::string json_part = document.substr(0, document.find("---- explain ----\n"));
  const StatusOr<JsonValue> parsed = ParseJson(json_part);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  for (const char* key : {"schema", "version", "scheme", "makespan_s", "totals", "devices",
                          "links", "node_io", "tensor_churn", "iterations", "attribution"}) {
    EXPECT_TRUE(root.Find(key) != nullptr) << "missing required key: " << key;
  }
  EXPECT_EQ(root.Find("schema")->as_string(), "harmony-run-report");
  EXPECT_EQ(root.Find("scheme")->as_string(), "harmony-pp");
  ASSERT_EQ(root.Find("devices")->as_array().size(), 2u);
  // record_timeline was on, so the queue timelines must have been captured.
  EXPECT_FALSE(result.report.link_queue_timeline.empty());

  ExpectMatchesGolden(document, HARMONY_EXPLAIN_GOLDEN_PATH);
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  harmony::g_update_golden = argc > 1;
  return RUN_ALL_TESTS();
}
