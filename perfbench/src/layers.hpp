/**
 * @file
 * The traced run's layer probes. Each probe calls one module's public
 * function from outside, on the workload's own inputs, inside a span;
 * README.md maps each probe to the end-to-end metric it should move.
 */
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench
{

/** Fused kernels probed on every workload. */
const std::vector<std::string> &fusedProbePredictors();
/** Virtual predictors whose simulate() and accounting are probed. */
const std::vector<std::string> &virtualProbePredictors();

struct ProbeContext
{
    const WorkloadDef *workload = nullptr;
    const Inputs *inputs = nullptr;
    const mbp::json_t *reference = nullptr;
    /** Front-end traces (the mapped-frontend set) with a warm store. */
    const WorkloadDef *frontend_workload = nullptr;
    const Inputs *frontend_inputs = nullptr;
    /** Reference of the front-end traces (null when not checked). */
    const mbp::json_t *frontend_reference = nullptr;
    std::string scratch_dir; //!< sidecar writes
};

/**
 * Runs every probe once, adding one sample per series to @p samples.
 * Every probe call is checked — the cells the reference covers against
 * their counts, the rest for errors; @p checked counts the checks and
 * each failed one is appended to @p failures.
 */
void probeRound(const ProbeContext &ctx, Tracer &tracer, Samples &samples,
                std::size_t &checked, std::vector<std::string> &failures);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
