/**
 * @file
 * Parallel sweep campaign implementation.
 */
#include "mbp/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <thread>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"

namespace mbp::sweep
{

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    jobs = effectiveJobs(jobs, std::thread::hardware_concurrency());
    if (jobs > n)
        jobs = static_cast<unsigned>(n);
    if (jobs < 2) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
}

PredictorSpec
rosterSpec(const std::string &name)
{
    return {name, [name] { return pred::makeByName(name); },
            [name] { return pred::fusedKernelByName(name); }};
}

bool
campaignFromJson(const json_t &spec, Campaign &out, std::string &error)
{
    if (!spec.isObject()) {
        error = "campaign spec must be a JSON object";
        return false;
    }
    const json_t *predictors = spec.find("predictors");
    const json_t *traces = spec.find("traces");
    if (predictors == nullptr || !predictors->isArray() ||
        predictors->size() == 0) {
        error = "spec needs a non-empty \"predictors\" array";
        return false;
    }
    if (traces == nullptr || !traces->isArray() || traces->size() == 0) {
        error = "spec needs a non-empty \"traces\" array";
        return false;
    }
    Campaign campaign;
    for (const json_t &name : predictors->elements()) {
        if (!name.isString()) {
            error = "\"predictors\" entries must be strings";
            return false;
        }
        // Resolve now so a typo fails the parse, not N trace runs later.
        if (pred::makeByName(name.asString()) == nullptr) {
            error = "unknown predictor '" + name.asString() +
                    "' (see mbp_sweep list)";
            return false;
        }
        campaign.predictors.push_back(rosterSpec(name.asString()));
    }
    for (const json_t &path : traces->elements()) {
        if (!path.isString()) {
            error = "\"traces\" entries must be strings";
            return false;
        }
        campaign.traces.push_back(path.asString());
    }
    // A count: an integer in [0, max]. An integral double (1e6) counts;
    // a negative, fractional or larger number is an error naming the key.
    auto uintField = [&](const char *key, std::uint64_t &field,
                         std::uint64_t max =
                             std::numeric_limits<std::uint64_t>::max()) {
        const json_t *v = spec.find(key);
        if (v == nullptr)
            return true;
        bool ok = false;
        if (v->type() == json_t::Type::kUint) {
            ok = true;
        } else if (v->type() == json_t::Type::kInt) {
            ok = v->asInt() >= 0;
        } else if (v->type() == json_t::Type::kDouble) {
            const double d = v->asDouble();
            ok = d >= 0.0 && d < 0x1p64 && std::floor(d) == d;
        }
        if (!ok || v->asUint() > max) {
            error = std::string("\"") + key +
                    "\" must be an integer from 0 to " + std::to_string(max);
            return false;
        }
        field = v->asUint();
        return true;
    };
    auto boolField = [&](const char *key, bool &field) {
        const json_t *v = spec.find(key);
        if (v == nullptr)
            return true;
        if (!v->isBool()) {
            error = std::string("\"") + key + "\" must be a bool";
            return false;
        }
        field = v->asBool();
        return true;
    };
    std::uint64_t jobs = campaign.jobs;
    if (!uintField("warmup_instr", campaign.base_args.warmup_instr) ||
        !uintField("sim_instr", campaign.base_args.sim_instr) ||
        !boolField("track_only_conditional",
                   campaign.base_args.track_only_conditional) ||
        !boolField("collect_most_failed",
                   campaign.base_args.collect_most_failed) ||
        !uintField("jobs", jobs, kMaxJobs) ||
        !boolField("in_memory", campaign.in_memory) ||
        !boolField("fused", campaign.fused) ||
        !boolField("arena_cache", campaign.arena_cache))
        return false;
    campaign.jobs = static_cast<unsigned>(jobs);
    if (const json_t *v = spec.find("arena_cache_dir")) {
        if (!v->isString()) {
            error = "\"arena_cache_dir\" must be a string";
            return false;
        }
        campaign.arena_cache_dir = v->asString();
    }
    if (!uintField("mem_budget", campaign.mem_budget))
        return false;
    if (const json_t *v = spec.find("frontend")) {
        if (v->isBool()) {
            campaign.frontend = v->asBool();
        } else if (v->isString()) {
            campaign.frontend = true;
            campaign.frontend_spec = v->asString();
        } else {
            error = "\"frontend\" must be a bool or a spec string";
            return false;
        }
        // Validate the spec at parse time, same as predictor names.
        frontend::FrontEndConfig config;
        std::string spec_error;
        if (campaign.frontend &&
            !frontend::parseFrontEndSpec(campaign.frontend_spec, config,
                                         spec_error)) {
            error = "invalid \"frontend\" spec: " + spec_error;
            return false;
        }
    }
    out = std::move(campaign);
    return true;
}

namespace
{

/**
 * A fresh kernel for one cell of @p spec: the spec's fused kernel when
 * the campaign runs fused kernels and the spec has a factory for one,
 * else a virtual FusedKernel<Predictor> owning make()'s instance. Null
 * for an unknown predictor; throws whatever the factory throws.
 */
std::unique_ptr<BlockKernel>
makeKernel(const Campaign &campaign, const PredictorSpec &spec)
{
    if (campaign.fused && spec.make_kernel)
        return spec.make_kernel();
    std::unique_ptr<Predictor> instance = spec.make ? spec.make() : nullptr;
    if (instance == nullptr)
        return nullptr;
    return std::make_unique<FusedKernel<Predictor>>(std::move(instance));
}

/** Per-predictor rollup rows of the aggregate section. */
struct PredictorRollup
{
    double mpki_sum = 0.0;
    std::uint64_t mispredictions = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;
};

} // namespace

json_t
run(const Campaign &campaign, unsigned jobs)
{
    const std::size_t num_predictors = campaign.predictors.size();
    const std::size_t num_traces = campaign.traces.size();
    const std::size_t num_cells = num_predictors * num_traces;
    unsigned used_jobs = jobs != 0 ? jobs : campaign.jobs;
    used_jobs =
        effectiveJobs(used_jobs, std::thread::hardware_concurrency());
    if (num_cells > 0 && used_jobs > num_cells)
        used_jobs = static_cast<unsigned>(num_cells);

    std::shared_ptr<sbbt::ArenaStore> store;
    if (campaign.in_memory && campaign.arena_cache)
        store = std::make_shared<sbbt::ArenaStore>(campaign.arena_cache_dir);
    TraceCache cache(campaign.in_memory ? campaign.mem_budget : 0,
                     store);
    sbbt::ReaderOptions decode_options;
    decode_options.block_packets = campaign.base_args.reader_block_packets;

    // Campaigns built programmatically bypass campaignFromJson's parse
    // check; a bad spec then fails every cell rather than the process.
    frontend::FrontEndConfig frontend_config;
    json_t frontend_failure;
    if (std::string spec_error;
        campaign.frontend &&
        !frontend::parseFrontEndSpec(campaign.frontend_spec,
                                     frontend_config, spec_error))
        frontend_failure = json_t::object(
            {{"error", "invalid frontend spec: " + spec_error}});

    std::vector<json_t> cell_results(num_cells);
    const auto place = [&](std::size_t p, std::size_t t, json_t result) {
        json_t cell = json_t::object({
            {"predictor", campaign.predictors[p].name},
            {"trace", campaign.traces[t]},
        });
        cell["result"] = std::move(result);
        cell_results[p * num_traces + t] = std::move(cell);
    };
    // The arguments of a run over trace t whose kernel k is the campaign's
    // predictor predictors[k]: a campaign's prediction hook sees that
    // index, not the kernel's index within the run.
    const auto cellArgs = [&](std::size_t t,
                              std::vector<std::size_t> predictors) {
        SimArgs args = campaign.base_args;
        args.trace_path = campaign.traces[t];
        args.in_memory = false;
        args.preloaded = nullptr;
        if (args.prediction_hook) {
            args.prediction_hook =
                [hook = campaign.base_args.prediction_hook,
                 predictors = std::move(predictors)](
                    const Branch &branch, bool predicted,
                    std::uint64_t instr_number, bool measured,
                    std::size_t k) {
                    hook(branch, predicted, instr_number, measured,
                         predictors[k]);
                };
        }
        return args;
    };
    auto start_time = std::chrono::steady_clock::now();

    // The schedule (see run() in sweep.hpp): waves of used_jobs traces,
    // pass-major inside a wave, each trace's predictors dealt round-robin
    // over its `groups` passes.
    struct Pass
    {
        std::size_t trace;
        std::size_t first; // predictors first, first + stride, ...
        std::size_t stride;
    };
    std::vector<Pass> passes;
    for (std::size_t wave_start = 0; wave_start < num_traces;
         wave_start += used_jobs) {
        const std::size_t wave =
            std::min<std::size_t>(used_jobs, num_traces - wave_start);
        const std::size_t groups =
            campaign.in_memory
                ? num_predictors
                : std::min<std::size_t>(num_predictors,
                                        (used_jobs + wave - 1) / wave);
        for (std::size_t g = 0; g < groups; ++g)
            for (std::size_t t = wave_start; t < wave_start + wave; ++t)
                passes.push_back({t, g, groups});
    }

    // Passes left per cache entry, so per TraceCache::identity, not per
    // listing: the pass that finishes an entry's last one releases it.
    std::vector<std::string> identity(num_traces);
    std::map<std::string, std::atomic<std::size_t>> passes_left;
    if (campaign.in_memory) {
        parallelFor(num_traces, used_jobs, [&](std::size_t t) {
            identity[t] = cache.identity(campaign.traces[t], decode_options);
        });
        for (const Pass &pass : passes)
            ++passes_left[identity[pass.trace]];
    }

    parallelFor(passes.size(), used_jobs, [&](std::size_t i) {
        const std::size_t t = passes[i].trace;
        std::vector<std::size_t> members;
        std::vector<std::unique_ptr<BlockKernel>> kernels;
        std::vector<BlockKernel *> kernel_ptrs;
        std::vector<frontend::FrontEnd *> front_end_ptrs;
        for (std::size_t p = passes[i].first; p < num_predictors;
             p += passes[i].stride) {
            const PredictorSpec &spec = campaign.predictors[p];
            json_t failure;
            try {
                std::unique_ptr<BlockKernel> kernel =
                    makeKernel(campaign, spec);
                if (kernel == nullptr) {
                    failure = json_t::object(
                        {{"error", "unknown predictor '" + spec.name + "'"}});
                } else if (campaign.frontend && !frontend_failure.isNull()) {
                    failure = frontend_failure;
                } else {
                    if (campaign.frontend) {
                        auto fe = std::make_unique<frontend::FrontEnd>(
                            std::move(kernel), frontend_config);
                        front_end_ptrs.push_back(fe.get());
                        kernel = std::move(fe);
                    }
                    kernel_ptrs.push_back(kernel.get());
                    kernels.push_back(std::move(kernel));
                }
            } catch (...) {
                failure = detail::exceptionResult(std::current_exception());
            }
            if (failure.isNull())
                members.push_back(p);
            else
                place(p, t, std::move(failure));
        }
        if (!members.empty()) {
            SimArgs args = cellArgs(t, members);
            std::vector<json_t> docs;
            try {
                // A null arena (budget fallback or decode failure) simply
                // streams; a corrupt trace then surfaces its error through
                // the streaming reader, same as before this cache existed.
                if (campaign.in_memory)
                    args.preloaded =
                        cache.acquire(campaign.traces[t], decode_options);
                docs = campaign.frontend
                           ? frontend::simulateEach(front_end_ptrs, args)
                           : detail::simulateEach(kernel_ptrs, args);
            } catch (...) {
                docs.assign(members.size(), detail::exceptionResult(
                                                std::current_exception()));
            }
            for (std::size_t k = 0; k < members.size(); ++k)
                place(members[k], t, std::move(docs[k]));
        }
        if (campaign.in_memory &&
            passes_left.at(identity[t]).fetch_sub(1) == 1)
            cache.release(campaign.traces[t], decode_options);
    });
    auto end_time = std::chrono::steady_clock::now();
    double wall =
        std::chrono::duration<double>(end_time - start_time).count();

    // Aggregate in deterministic grid order.
    std::vector<PredictorRollup> rollups(num_predictors);
    std::size_t failed_cells = 0;
    std::uint64_t total_branches = 0;
    for (std::size_t i = 0; i < num_cells; ++i) {
        PredictorRollup &rollup = rollups[i / num_traces];
        const json_t &result = *cell_results[i].find("result");
        if (result.contains("error")) {
            ++failed_cells;
            ++rollup.failed;
            continue;
        }
        const json_t &metrics = *result.find("metrics");
        rollup.mpki_sum += metrics.find("mpki")->asDouble();
        rollup.mispredictions += metrics.find("mispredictions")->asUint();
        ++rollup.succeeded;
        total_branches += metrics.find("dynamic_branches")->asUint();
    }

    json_t out = json_t::object();
    out["metadata"] = json_t::object({
        {"tool", "MBPlib sweep"},
        {"version", kMbpVersion},
        {"num_predictors", std::uint64_t(num_predictors)},
        {"num_traces", std::uint64_t(num_traces)},
        {"num_cells", std::uint64_t(num_cells)},
        {"jobs", std::uint64_t(used_jobs)},
        {"warmup_instr", campaign.base_args.warmup_instr},
        {"sim_instr", campaign.base_args.sim_instr},
        {"in_memory", campaign.in_memory},
        {"mem_budget", campaign.mem_budget},
        {"arena_cache", store != nullptr},
        {"frontend", campaign.frontend},
    });
    if (campaign.frontend)
        out["metadata"]["frontend_spec"] = campaign.frontend_spec;
    json_t cells = json_t::array();
    for (json_t &cell : cell_results)
        cells.push_back(std::move(cell));
    out["cells"] = std::move(cells);
    json_t per_predictor = json_t::array();
    for (std::size_t p = 0; p < num_predictors; ++p) {
        const PredictorRollup &rollup = rollups[p];
        per_predictor.push_back(json_t::object({
            {"predictor", campaign.predictors[p].name},
            {"amean_mpki", rollup.succeeded
                               ? rollup.mpki_sum / double(rollup.succeeded)
                               : 0.0},
            {"total_mispredictions", rollup.mispredictions},
            {"failed_cells", std::uint64_t(rollup.failed)},
        }));
    }
    const TraceCache::Stats cache_stats = cache.stats();
    out["aggregate"] = json_t::object({
        {"wall_time_seconds", wall},
        {"dynamic_branches", total_branches},
        {"branches_per_second",
         wall > 0.0 ? double(total_branches) / wall : 0.0},
        {"failed_cells", std::uint64_t(failed_cells)},
        {"trace_cache",
         json_t::object({
             {"hits", cache_stats.hits},
             {"misses", cache_stats.misses},
             {"evictions", cache_stats.evictions},
             {"resident_bytes", cache_stats.resident_bytes},
             {"peak_resident_bytes", cache_stats.peak_resident_bytes},
             {"streamed_fallbacks", cache_stats.streamed_fallbacks},
             {"failed_waits", cache_stats.failed_waits},
             {"mapped_loads", cache_stats.mapped_loads},
         })},
        {"per_predictor", std::move(per_predictor)},
    });
    return out;
}

namespace
{

/** RFC 4180 quoting: wrap when the field needs it, double inner quotes. */
void
appendCsvField(std::string &out, std::string_view field)
{
    if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
        out += field;
        return;
    }
    out.push_back('"');
    for (char c : field) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
}

void
appendCsvDouble(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out += buf;
}

} // namespace

std::string
toCsv(const json_t &result)
{
    std::string out = "predictor,trace,mpki,accuracy,mispredictions,"
                      "simulation_instr,simulation_time,error\n";
    const json_t *cells = result.find("cells");
    if (cells == nullptr)
        return out;
    for (const json_t &cell : cells->elements()) {
        appendCsvField(out, cell.find("predictor")->asString());
        out.push_back(',');
        appendCsvField(out, cell.find("trace")->asString());
        out.push_back(',');
        const json_t &doc = *cell.find("result");
        if (doc.contains("error")) {
            out += ",,,,,";
            appendCsvField(out, doc.find("error")->asString());
            out.push_back('\n');
            continue;
        }
        const json_t &metrics = *doc.find("metrics");
        appendCsvDouble(out, metrics.find("mpki")->asDouble());
        out.push_back(',');
        appendCsvDouble(out, metrics.find("accuracy")->asDouble());
        out.push_back(',');
        out += std::to_string(metrics.find("mispredictions")->asUint());
        out.push_back(',');
        out += std::to_string(
            doc.find("metadata")->find("simulation_instr")->asUint());
        out.push_back(',');
        appendCsvDouble(out, metrics.find("simulation_time")->asDouble());
        out += ",\n";
    }
    return out;
}

} // namespace mbp::sweep
