/**
 * @file
 * Reference counts and the per-cell correctness check.
 */
#include "reference.hpp"

#include <fstream>
#include <sstream>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"

namespace perfbench
{

namespace
{

/** The counts of one cell that must repeat exactly on every path. */
mbp::json_t
countsOf(const mbp::json_t &result)
{
    mbp::json_t counts = mbp::json_t::object({
        {"mispredictions",
         result.find("metrics")->find("mispredictions")->asUint()},
    });
    if (const mbp::json_t *fe = result.find("frontend")) {
        mbp::json_t targets = mbp::json_t::object();
        for (const auto &[cls, c] : fe->find("classes")->members())
            targets[cls] = c.find("target_mispredictions")->asUint();
        counts["target_mispredictions"] = std::move(targets);
    }
    return counts;
}

} // namespace

mbp::json_t
computeReference(const WorkloadDef &workload, const Inputs &inputs,
                 std::string &error)
{
    mbp::json_t reference = mbp::json_t::object();
    for (const std::string &pred : workload.predictors) {
        mbp::json_t per_trace = mbp::json_t::object();
        for (std::size_t t = 0; t < inputs.paths.size(); ++t) {
            mbp::SimArgs args;
            args.trace_path = inputs.paths[t];
            // The read-ahead thread cannot change the counts; without it
            // the reference leaves no thread-local malloc arena behind to
            // inflate the run's peak RSS.
            args.prefetch = false;
            std::unique_ptr<mbp::Predictor> predictor =
                mbp::pred::makeByName(pred);
            mbp::json_t result;
            if (workload.frontend) {
                mbp::frontend::FrontEnd front_end(std::move(predictor));
                result = mbp::frontend::simulate(front_end, args);
            } else {
                result = mbp::simulate(*predictor, args);
            }
            if (const mbp::json_t *e = result.find("error")) {
                error = "reference " + pred + " on " +
                        workload.traces[t].name + ": " + e->asString();
                return nullptr;
            }
            per_trace[workload.traces[t].name] = countsOf(result);
        }
        reference[pred] = std::move(per_trace);
    }
    return reference;
}

mbp::json_t
loadReference(const std::string &path, const WorkloadDef &workload,
              std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return nullptr;
    }
    std::stringstream text;
    text << in.rdbuf();
    std::optional<mbp::json_t> doc = mbp::json_t::parse(text.str(), &error);
    if (!doc) {
        error = path + ": " + error;
        return nullptr;
    }
    const mbp::json_t *all = doc->find("workloads");
    const mbp::json_t *ref = all ? all->find(workload.name) : nullptr;
    if (ref == nullptr) {
        error = path + " has no reference for " + workload.name;
        return nullptr;
    }
    return *ref;
}

std::string
checkCell(const mbp::json_t &reference, const std::string &pred,
          const std::string &trace, const mbp::json_t &result)
{
    if (const mbp::json_t *e = result.find("error"))
        return "error: " + e->asString();
    const mbp::json_t *by_pred = reference.find(pred);
    const mbp::json_t *want = by_pred ? by_pred->find(trace) : nullptr;
    if (want == nullptr)
        return "no reference count";
    const mbp::json_t got = countsOf(result);
    if (got != *want)
        return "counts " + got.dump() + " differ from reference " +
               want->dump();
    return "";
}

} // namespace perfbench
