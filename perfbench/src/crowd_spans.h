// Crowd platforms that record one span per labeling call.
//
// SpanningCrowd is a decorator in the style of ResilientCrowd: it forwards
// every batch to the wrapped platform, records the call as a "crowd" span
// (a child of whatever stage span is open on the calling thread) and keeps
// its own accounting in step with the inner platform's. The batch
// workloads wrap their simulated crowd with it in traced runs.
//
// SpanningSimulatedCrowd is the same tap for the service: the service
// snapshots each session's platform and tags the blob with the platform
// type, so there the tap is a SimulatedCrowd itself rather than a wrapper
// around one, and its saved state is the SimulatedCrowd's.
#ifndef PERFBENCH_CROWD_SPANS_H_
#define PERFBENCH_CROWD_SPANS_H_

#include <utility>

#include "crowd/crowd.h"
#include "trace.h"

namespace perfbench {

/// Opens the crowd span of one call, runs `call`, and fills the span's
/// counters from its result.
template <typename Call>
falcon::Result<falcon::LabelResult> SpannedLabelCall(
    Tracer* tracer, const falcon::LabelRequest& request, Call&& call) {
  ScopedSpan span(tracer, "label_batch", "crowd");
  span.Count("crowd.batches", 1);
  span.Count("crowd.posted", static_cast<double>(request.pairs.size()));
  falcon::Result<falcon::LabelResult> result = call();
  if (!result.ok()) {
    span.Count("crowd.failed_batches", 1);
    span.Label("status", result.status().ToString());
    return result;
  }
  span.Count("crowd.questions", static_cast<double>(result->num_questions));
  span.Count("crowd.cost_usd", result->cost);
  span.Count("crowd.vtime_s", result->latency.seconds);
  return result;
}

class SpanningCrowd : public falcon::CrowdPlatform {
 public:
  SpanningCrowd(falcon::CrowdPlatform* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  falcon::Result<falcon::LabelResult> LabelBatch(
      const falcon::LabelRequest& request) override {
    auto result = SpannedLabelCall(
        tracer_, request, [&] { return inner_->LabelBatch(request); });
    if (result.ok()) Record(*result);
    return result;
  }

  bool QuorumReached(falcon::VoteScheme scheme, uint32_t yes,
                     uint32_t no) const override {
    return inner_->QuorumReached(scheme, yes, no);
  }
  uint32_t MinAnswersToQuorum(falcon::VoteScheme scheme, uint32_t yes,
                              uint32_t no) const override {
    return inner_->MinAnswersToQuorum(scheme, yes, no);
  }

 private:
  falcon::CrowdPlatform* inner_;
  Tracer* tracer_;
};

class SpanningSimulatedCrowd : public falcon::SimulatedCrowd {
 public:
  SpanningSimulatedCrowd(falcon::SimulatedCrowdConfig config,
                         falcon::TruthOracle oracle, Tracer* tracer)
      : SimulatedCrowd(std::move(config), std::move(oracle)),
        tracer_(tracer) {}

  falcon::Result<falcon::LabelResult> LabelBatch(
      const falcon::LabelRequest& request) override {
    return SpannedLabelCall(tracer_, request, [&] {
      return SimulatedCrowd::LabelBatch(request);
    });
  }

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CROWD_SPANS_H_
