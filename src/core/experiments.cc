#include "core/experiments.h"

#include <cmath>

#include "common/logging.h"

namespace cloudview {

ExperimentConfig::ExperimentConfig() {
  // Calibrated to the paper's Section 6 setup: a 10 GB sales subset on
  // five small (1 ECU) instances, where one full-scan aggregation takes
  // ~0.28 h — the paper's per-query scale (its Q1 takes 0.2 h).
  scenario.sales.logical_size = DataSize::FromGB(10);
  scenario.sales.sample_rows = 100'000;
  scenario.mapreduce.job_startup = Duration::FromSeconds(45);
  scenario.mapreduce.map_throughput_per_unit =
      DataSize::FromBytes(2'100 * 1024);  // 2.1 MB/s per compute unit.
  scenario.mapreduce.shuffle_throughput_per_node = DataSize::FromMB(12);
  scenario.mapreduce.write_throughput_per_node = DataSize::FromMB(24);
  scenario.instance_name = "small";
  scenario.nb_instances = 5;
  scenario.prorate_storage = true;
  scenario.maintenance_cycles = 0;
  // A Section 6 run is one rental session (materialize, then query).
  scenario.single_compute_session = true;
  scenario.candidates.max_candidates = 16;
  scenario.candidates.max_size_fraction = 0.5;
  // Stand-in for the paper's external candidate selection [8]: drop
  // near-fact-granularity cuboids (barely aggregating views).
  scenario.candidates.max_rows_fraction = 0.05;
}

double ExperimentRunner::PaperRate(const double (&rates)[3], size_t i) {
  return i < 3 ? rates[i] : std::nan("");
}

Result<ExperimentRunner> ExperimentRunner::Create(ExperimentConfig config) {
  if (config.workload_sizes.empty()) {
    return Status::InvalidArgument("no workload sizes configured");
  }
  if (config.budget_limits.size() != config.workload_sizes.size() ||
      config.time_limits.size() != config.workload_sizes.size()) {
    return Status::InvalidArgument(
        "budgets/time limits must align with workload sizes");
  }
  CV_ASSIGN_OR_RETURN(CloudScenario scenario,
                      CloudScenario::Create(config.scenario));
  auto holder = std::make_unique<CloudScenario>(std::move(scenario));

  // MV2 bills by the started hour (paper Example 2); MV1/MV3 run on the
  // per-second default.
  ScenarioConfig hourly_config = config.scenario;
  hourly_config.pricing_overrides.compute_granularity =
      BillingGranularity::kHour;
  CV_ASSIGN_OR_RETURN(CloudScenario hourly,
                      CloudScenario::Create(hourly_config));
  auto hourly_holder = std::make_unique<CloudScenario>(std::move(hourly));
  return ExperimentRunner(std::move(config), std::move(holder),
                          std::move(hourly_holder));
}

Result<std::vector<MV1Row>> ExperimentRunner::RunMV1() const {
  CV_ASSIGN_OR_RETURN(Workload full, scenario_->PaperWorkload());
  std::vector<MV1Row> rows;
  for (size_t i = 0; i < config_.workload_sizes.size(); ++i) {
    size_t m = config_.workload_sizes[i];
    if (m > full.size()) {
      return Status::InvalidArgument("workload size exceeds paper workload");
    }
    Workload workload = full.Prefix(m);
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV1BudgetLimit;
    spec.budget_limit = config_.budget_limits[i];
    CV_ASSIGN_OR_RETURN(
        AdvisorResponse response,
        scenario_->Dispatch({.kind = AdvisorRequestKind::kSolve,
                             .solver = config_.solver,
                             .objective = spec,
                             .inline_workload = &workload}));
    const SolveRun& run = response.solve;

    MV1Row row;
    row.num_queries = m;
    row.budget = spec.budget_limit;
    row.time_without = run.baseline.makespan;
    row.time_with = run.selection.time;
    row.views_selected = run.selection.evaluation.selected.size();
    row.cost_without = run.baseline.cost.total();
    row.cost_with = run.selection.evaluation.cost.total();
    row.ip_rate = run.TimeImprovement(spec);
    row.paper_rate = PaperRate(PaperReportedRates::kTable6IP, i);
    row.feasible = run.selection.feasible;
    rows.push_back(row);
  }
  return rows;
}

Result<std::vector<MV2Row>> ExperimentRunner::RunMV2() const {
  // MV2 runs under the paper's started-hour billing; see EXPERIMENTS.md.
  const CloudScenario& scenario = *hourly_scenario_;
  CV_ASSIGN_OR_RETURN(Workload full, scenario.PaperWorkload());
  std::vector<MV2Row> rows;
  for (size_t i = 0; i < config_.workload_sizes.size(); ++i) {
    size_t m = config_.workload_sizes[i];
    if (m > full.size()) {
      return Status::InvalidArgument("workload size exceeds paper workload");
    }
    Workload workload = full.Prefix(m);
    Duration limit = config_.time_limits[i];

    // With-view arm: stay on the base cluster, materialize to meet the
    // deadline at minimal cost. The deadline constrains TprocessingQ
    // (Formula 14 as written): views are built out-of-band but billed.
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV2TimeLimit;
    spec.time_limit = limit;
    spec.time_includes_materialization = false;
    CV_ASSIGN_OR_RETURN(
        AdvisorResponse response,
        scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                           .solver = config_.solver,
                           .objective = spec,
                           .inline_workload = &workload}));
    const SolveRun& run = response.solve;

    MV2Row row;
    row.num_queries = m;
    row.time_limit = limit;
    row.cost_with = run.selection.evaluation.cost.total();
    row.time_with = run.selection.time;
    row.views_selected = run.selection.evaluation.selected.size();
    row.feasible = run.selection.feasible;
    row.paper_rate = PaperRate(PaperReportedRates::kTable7IC, i);

    // No-view arm: the raw-scalability alternative — rent the cheapest
    // instance tier that meets the limit without views.
    auto scale_up = scenario.CheapestClusterMeeting(workload, limit);
    if (scale_up.ok()) {
      CV_ASSIGN_OR_RETURN(
          SubsetEvaluation no_views,
          scenario.EvaluateWithoutViews(workload, scale_up.value()));
      row.scale_up_instance = scale_up.value().instance.name;
      row.cost_without = no_views.cost.total();
      row.time_without = no_views.processing_time;
    } else {
      // Not even the largest tier meets the limit; report the base
      // cluster's no-view run and flag it.
      row.scale_up_instance = "(none feasible)";
      row.cost_without = run.baseline.cost.total();
      row.time_without = run.baseline.processing_time;
      row.feasible = false;
    }
    if (!row.cost_without.is_zero()) {
      row.ic_rate =
          1.0 - static_cast<double>(row.cost_with.micros()) /
                    static_cast<double>(row.cost_without.micros());
    }
    rows.push_back(row);
  }
  return rows;
}

Result<std::vector<MV3Row>> ExperimentRunner::RunMV3(double alpha) const {
  CV_ASSIGN_OR_RETURN(Workload full, scenario_->PaperWorkload());
  std::vector<MV3Row> rows;
  for (size_t i = 0; i < config_.workload_sizes.size(); ++i) {
    size_t m = config_.workload_sizes[i];
    if (m > full.size()) {
      return Status::InvalidArgument("workload size exceeds paper workload");
    }
    Workload workload = full.Prefix(m);
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = alpha;

    // Reference deployment: the base cluster without views. All tiers
    // are normalized against it so the blend compares like with like.
    CV_ASSIGN_OR_RETURN(
        SubsetEvaluation reference,
        scenario_->EvaluateWithoutViews(workload, scenario_->cluster()));
    spec.mv3_reference_time = reference.makespan;
    spec.mv3_reference_cost = reference.cost.total();

    // Joint optimization: the paper's "view materialization vs CPU power
    // consumption" tradeoff — MV3 may *give up* compute power (drop to a
    // cheaper tier) and recover time with views. Tiers above the
    // configured one are out of scope (MV1/MV2 fix the cluster; scaling
    // up is MV2's no-view arm).
    MV3Row row;
    row.num_queries = m;
    row.alpha = alpha;
    bool first = true;
    Money base_price = scenario_->cluster().instance.price_per_hour;
    for (const InstanceType& type :
         scenario_->pricing().instances().types()) {
      if (type.price_per_hour > base_price) continue;
      ClusterSpec cluster{type, scenario_->cluster().nodes};
      CV_ASSIGN_OR_RETURN(
          AdvisorResponse response,
          scenario_->Dispatch({.kind = AdvisorRequestKind::kSolve,
                               .solver = config_.solver,
                               .objective = spec,
                               .inline_workload = &workload,
                               .cluster_override = &cluster}));
      const SolveRun& run = response.solve;
      double objective = run.selection.objective_value;
      if (first || objective < row.objective_with) {
        row.objective_with = objective;
        row.time_with = run.selection.time;
        row.cost_with = run.selection.evaluation.cost.total();
        row.views_selected = run.selection.evaluation.selected.size();
        row.instance = type.name;
        first = false;
      }
    }
    row.rate = 1.0 - row.objective_with;
    const bool near_03 = std::abs(alpha - 0.3) < 0.025;
    const bool near_07 = std::abs(alpha - 0.7) < 0.075;  // Covers 0.65.
    if (near_03) {
      row.paper_rate = PaperRate(PaperReportedRates::kTable8Alpha03, i);
    } else if (near_07) {
      row.paper_rate = PaperRate(PaperReportedRates::kTable8Alpha07, i);
    } else {
      row.paper_rate = std::nan("");
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace cloudview
