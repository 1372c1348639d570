#include "core/scenario.h"

#include <utility>

#include "common/logging.h"
#include "pricing/provider_registry.h"

namespace cloudview {

Result<CloudScenario> CloudScenario::Create(ScenarioConfig config) {
  CloudScenario scenario(std::move(config));
  Result<StarSchema> schema =
      scenario.config_.schema == "sales"
          ? MakeSalesSchema(scenario.config_.sales)
      : scenario.config_.schema == "ssb"
          ? MakeSsbSchema(scenario.config_.ssb)
          : Result<StarSchema>(Status::InvalidArgument(
                "unknown ScenarioConfig::schema \"" +
                scenario.config_.schema + "\"; expected sales or ssb"));
  CV_RETURN_IF_ERROR(schema.status());
  CV_ASSIGN_OR_RETURN(CubeLattice lattice,
                      CubeLattice::Build(schema.MoveValue()));
  scenario.lattice_ = std::make_unique<CubeLattice>(std::move(lattice));
  scenario.simulator_ = std::make_unique<MapReduceSimulator>(
      *scenario.lattice_, scenario.config_.mapreduce);
  CV_ASSIGN_OR_RETURN(
      PricingModel model,
      ProviderRegistry::Global().Model(scenario.config_.provider));
  scenario.pricing_ = std::make_unique<PricingModel>(
      model.WithOverrides(scenario.config_.pricing_overrides));
  scenario.cost_model_ =
      std::make_unique<CloudCostModel>(*scenario.pricing_);
  CV_ASSIGN_OR_RETURN(
      scenario.cluster_.instance,
      scenario.pricing_->instances().Find(scenario.config_.instance_name));
  if (scenario.config_.nb_instances <= 0) {
    return Status::InvalidArgument("nb_instances must be positive");
  }
  scenario.cluster_.nodes = scenario.config_.nb_instances;
  return scenario;
}

Result<Workload> CloudScenario::PaperWorkload() const {
  if (config_.schema != "sales") {
    return Status::InvalidArgument(
        "the paper workload targets the sales schema; this scenario "
        "uses \"" +
        config_.schema + "\" (see DefaultWorkload)");
  }
  return MakePaperWorkload(*lattice_);
}

Result<Workload> CloudScenario::DefaultWorkload() const {
  return config_.schema == "ssb" ? MakeSsbWorkload(*lattice_)
                                 : MakePaperWorkload(*lattice_);
}

Result<DeploymentSpec> CloudScenario::MakeDeployment(
    const Workload& workload, const ClusterSpec& cluster) const {
  DeploymentSpec deployment;
  deployment.instance = cluster.instance;
  deployment.nb_instances = cluster.nodes;
  deployment.maintenance_cycles = config_.maintenance_cycles;
  deployment.single_compute_session = config_.single_compute_session;

  DataSize dataset = lattice_->schema().fact_size();
  deployment.base_storage = StorageTimeline(dataset);
  deployment.ingress.initial_dataset = dataset;

  if (config_.prorate_storage) {
    // Bill storage for the session: the no-view workload makespan,
    // the same for both arms so the comparison stays fair.
    Duration session = Duration::Zero();
    for (const QuerySpec& q : workload.queries()) {
      session += simulator_->QueryTimeFromFact(q.target, cluster) *
                 static_cast<int64_t>(q.frequency);
    }
    Months prorated = Months::FromDuration(session);
    deployment.storage_period =
        prorated < Months::FromMilli(1) ? Months::FromMilli(1) : prorated;
  } else {
    deployment.storage_period = config_.storage_period;
  }
  return deployment;
}

Result<CloudScenario> CloudScenario::ForProvider(
    const std::string& name, std::string* instance,
    BillingGranularity* granularity) const {
  CV_ASSIGN_OR_RETURN(PricingModel model,
                      ProviderRegistry::Global().Model(name));

  // Catalogs name their tiers differently: keep the configured
  // instance when this provider offers it, otherwise rent the
  // cheapest type matching the configured compute power.
  Result<InstanceType> type =
      model.instances().Find(config_.instance_name);
  if (!type.ok()) {
    type =
        model.instances().CheapestWithUnits(cluster_.instance.compute_units);
  }
  CV_RETURN_IF_ERROR(type.status());

  ScenarioConfig config = config_;
  config.provider = name;
  // Native billing semantics: the comparison is between the sheets as
  // published, not between override combinations.
  config.pricing_overrides = PricingOverrides{};
  config.instance_name = type->name;
  *instance = type->name;
  *granularity = model.compute_granularity();
  return CloudScenario::Create(std::move(config));
}

Result<SubsetEvaluation> CloudScenario::EvaluateWithoutViews(
    const Workload& workload, const ClusterSpec& cluster) const {
  CV_ASSIGN_OR_RETURN(DeploymentSpec deployment,
                      MakeDeployment(workload, cluster));
  CV_ASSIGN_OR_RETURN(
      SelectionEvaluator evaluator,
      SelectionEvaluator::Create(*lattice_, workload, *simulator_,
                                 cluster, *cost_model_, deployment, {}));
  return evaluator.baseline();
}

Result<ClusterSpec> CloudScenario::CheapestClusterMeeting(
    const Workload& workload, Duration limit) const {
  const ClusterSpec base_cluster = cluster_;
  Result<ClusterSpec> best = Status::NotFound(
      "no instance type meets the time limit");
  Money best_cost;
  for (const InstanceType& type : pricing_->instances().types()) {
    ClusterSpec candidate{type, base_cluster.nodes};
    CV_ASSIGN_OR_RETURN(SubsetEvaluation eval,
                        EvaluateWithoutViews(workload, candidate));
    if (eval.processing_time > limit) continue;
    Money cost = eval.cost.total();
    if (!best.ok() || cost < best_cost) {
      best = candidate;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace cloudview
