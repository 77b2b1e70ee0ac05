/**
 * @file
 * Correctness gate: reference misprediction counts per (predictor,
 * trace) cell, and the check of a result document against them.
 */
#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

#include <string>

#include "mbp/json/json.hpp"
#include "workloads.hpp"

namespace perfbench
{

/**
 * Computes the reference of @p workload through the virtual streaming
 * simulate() path (frontend::simulate for front-end workloads): one
 * fresh predictor per cell, every trace read by SbbtReader.
 *
 * @return {pred: {trace name: {"mispredictions": n[,
 *         "target_mispredictions": {class: n}]}}}; null on failure, with
 *         @p error saying why.
 */
mbp::json_t computeReference(const WorkloadDef &workload,
                             const Inputs &inputs, std::string &error);

/** Reads the reference of @p workload from a reference.json file.
 *  @return null on failure, with @p error saying why. */
mbp::json_t loadReference(const std::string &path,
                          const WorkloadDef &workload, std::string &error);

/**
 * Checks one cell's result document against the reference.
 *
 * @return "" when the cell ran and its counts match; otherwise why not.
 */
std::string checkCell(const mbp::json_t &reference, const std::string &pred,
                      const std::string &trace, const mbp::json_t &result);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
