#include "core/study.h"

#include "exec/thread_pool.h"

namespace dm::core {

Study::Study(sim::ScenarioConfig config, detect::DetectionConfig detection,
             detect::TimeoutTable timeouts)
    : scenario_(std::move(config)) {
  // One pool for all three sharded stages; every stage merges its shards in
  // shard-index order, so the study is byte-identical for any thread_count.
  exec::ThreadPool pool(exec::workers_for(scenario_.config().thread_count));
  // Fused streaming path: generation and aggregation run per VIP-range
  // shard, so the unsorted global record vector never exists.
  sim::FusedTrace fused = sim::generate_windows(scenario_, &pool);
  truth_ = std::move(fused.truth);
  record_count_ = fused.generated_records;
  windowed_ = std::move(fused.windowed);
  const detect::DetectionPipeline pipeline(detection, timeouts);
  detection_ = pipeline.run(windowed_, &pool);
}

}  // namespace dm::core
