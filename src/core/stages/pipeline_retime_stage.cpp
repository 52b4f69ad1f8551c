#include "core/stages/pipeline_retime_stage.hpp"

#include <utility>

#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {

void PipelineRetimeStage::run(FlowContext& ctx) {
  FlowResult& result = ctx.result;
  Circuit mapped = std::move(*ctx.mapped);
  ctx.mapped.reset();
  if (kind_ == Kind::kPipelineRetime) {
    if (ctx.options.pipeline) {
      // Measure the achievable period on a copy: `mapped` stays un-retimed
      // so it is cycle-accurate equivalent to the input from the all-zero
      // state.
      Circuit pipelined = mapped;
      const PipelineResult p = pipeline_and_retime(pipelined, 64, &ctx.options.budget);
      result.period = p.period;
      result.pipeline_stages = p.stages;
      result.status = combine_status(result.status, p.status);
      ctx.count("retime_configs", p.configs_tried);
      ctx.count("retime_solves", p.solves);
      ctx.count("retime_bf_rounds", p.bf_rounds);
      ctx.count("pipeline_stages", p.stages);
    }
    result.mapped = std::move(mapped);
  } else {
    result.period = retime_min_period(mapped);
    result.mapped = std::move(mapped);
  }
  if (final_budget_check_) {
    result.status = combine_status(result.status, ctx.options.budget.check());
  }
}

}  // namespace turbosyn
