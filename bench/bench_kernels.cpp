/**
 * @file
 * Machine-readable tracking benchmark for the fused simulation kernels.
 *
 * Replays one arena-resident trace through representative roster
 * predictors twice per configuration — the virtual simulate() versus the
 * fused compile-time kernel (mbp::pred::fusedKernelByName stepped by
 * mbp::detail::simulateKernel) — and writes `BENCH_kernels.json` (path
 * from argv[1], default ./BENCH_kernels.json) with branches/second for
 * both paths, with and without per-branch collection, so the
 * devirtualization speedup is a diffable artifact of every CI run. A
 * sample's rate is the documents' `dynamic_branches` over the thread CPU
 * time of the calls (CLOCK_THREAD_CPUTIME_ID), document building
 * included; a sample repeats whole runs over the same arena until it has
 * lasted kMinSampleSeconds, so that the cheap predictors' few-millisecond
 * runs are not timed one at a time.
 *
 * Functional checks, enforced with exit code 1:
 *   - both paths produce identical misprediction counts and measured
 *     instruction windows per configuration (the byte-level document
 *     identity is pinned by arena_conformance_test);
 *   - the fused path is not meaningfully slower than the virtual one
 *     (>= kSanityRatio of its throughput). The ratio is a loose sanity
 *     floor, not the headline target, because this also runs under
 *     sanitizer builds where absolute numbers are meaningless; the
 *     real speedups are reported in the JSON for trend tracking.
 */
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "host_fingerprint.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/generator.hpp"

namespace
{

/** Loose fail-if-slower floor; see the file comment. */
constexpr double kSanityRatio = 0.6;

/** Virtual/fused sample pairs per configuration. */
constexpr int kReps = 9;

/**
 * The thread CPU time a sample lasts at least. One run of Bimodal or
 * GShare over the bench trace takes 3–6 ms, short enough that timer
 * granularity, cache warm-up and host jitter moved single-run rates by
 * about ±20%; the TAGE family's runs already last longer than this, so
 * each of their samples is one run.
 */
constexpr double kMinSampleSeconds = 0.05;

/** One configuration's throughput on both paths. */
struct Measurement
{
    double virtual_bps = 0.0; // median over the pairs
    double fused_bps = 0.0;   // median over the pairs
    double speedup = 0.0;     // median of the per-pair fused/virtual ratios
    std::uint64_t mispredictions[2] = {0, 0};   // virtual, fused
    std::uint64_t simulation_instr[2] = {0, 0}; // virtual, fused
    std::uint64_t pairs = 0;
    bool failed = false;
};

/**
 * CPU time of the calling thread. A run's rate is its branches over this
 * time rather than over wall-clock time, so time the thread spends
 * preempted by other tenants of the host counts against neither path.
 */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * One sample of @p name's virtual (@p fused false) or fused path: whole
 * runs over @p args, each on a fresh instance, until they have taken
 * kMinSampleSeconds of thread CPU time. @return The last run's document
 * (every run's is the same but for timing); @p bps receives the rate
 * over all of them.
 */
mbp::json_t
sample(const std::string &name, bool fused, const mbp::SimArgs &args,
       double &bps)
{
    mbp::json_t result;
    double cpu_seconds = 0.0;
    std::uint64_t branches = 0;
    do {
        if (fused) {
            auto kernel = mbp::pred::fusedKernelByName(name);
            const double t0 = threadCpuSeconds();
            result = mbp::detail::simulateKernel(*kernel, args);
            cpu_seconds += threadCpuSeconds() - t0;
        } else {
            auto predictor = mbp::pred::makeByName(name);
            const double t0 = threadCpuSeconds();
            result = mbp::simulate(*predictor, args);
            cpu_seconds += threadCpuSeconds() - t0;
        }
        if (result.contains("error"))
            return result;
        branches +=
            result.find("metrics")->find("dynamic_branches")->asUint();
    } while (cpu_seconds < kMinSampleSeconds);
    bps = static_cast<double>(branches) / cpu_seconds;
    return result;
}

/**
 * Runs the virtual and the fused path of @p name in adjacent pairs,
 * alternating which goes first: kReps pairs of samples. A host that
 * drifts in speed (other tenants, frequency changes) then slows both
 * samples of a pair alike, and the median pair ratio ignores the pairs
 * it splits.
 */
Measurement
measure(const std::string &name, const mbp::SimArgs &args)
{
    Measurement m;
    std::vector<double> bps[2], ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        double pair_bps[2] = {0.0, 0.0};
        for (int k = 0; k < 2; ++k) {
            const int path = (rep + k) % 2; // 0 virtual, 1 fused
            const mbp::json_t result =
                sample(name, path == 1, args, pair_bps[path]);
            if (result.contains("error")) {
                std::fprintf(stderr, "%s (%s): %s\n", name.c_str(),
                             path == 1 ? "fused" : "virtual",
                             result.find("error")->asString().c_str());
                m.failed = true;
                return m;
            }
            m.mispredictions[path] =
                result.find("metrics")->find("mispredictions")->asUint();
            m.simulation_instr[path] = result.find("metadata")
                                           ->find("simulation_instr")
                                           ->asUint();
        }
        bps[0].push_back(pair_bps[0]);
        bps[1].push_back(pair_bps[1]);
        ratios.push_back(pair_bps[0] > 0.0 ? pair_bps[1] / pair_bps[0]
                                           : 0.0);
    }
    m.virtual_bps = median(bps[0]);
    m.fused_bps = median(bps[1]);
    m.speedup = median(ratios);
    m.pairs = ratios.size();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_kernels.json";

    tracegen::WorkloadSpec spec;
    spec.name = "bench-kernels";
    spec.seed = 13;
    spec.num_instr = 8'000'000;
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    auto entries = tools::materialize(bench::corpusDir(), {spec}, formats);

    // The cheap end of the Table III cost range is where devirtualization
    // matters (predict is a handful of instructions, so dispatch overhead
    // dominated); the TAGE family anchors the expensive end, where the
    // win comes from the predictors' own fused fast path (flat arenas,
    // single-pass fusedStep) rather than from dispatch removal.
    const std::vector<std::string> roster = {"bimodal", "gshare", "tage",
                                             "batage", "tage-scl"};

    std::string load_error;
    auto arena = sbbt::MemTrace::load(entries[0].sbbt_flz, {}, &load_error);
    if (arena == nullptr) {
        std::fprintf(stderr, "cannot load %s: %s\n",
                     entries[0].sbbt_flz.c_str(), load_error.c_str());
        return 1;
    }

    bool ok = true;
    json_t rows = json_t::array();
    for (const std::string &name : roster) {
        for (const bool collect : {true, false}) {
            SimArgs args;
            args.trace_path = entries[0].sbbt_flz;
            args.preloaded = arena;
            args.collect_most_failed = collect;
            const Measurement m = measure(name, args);
            if (m.failed) {
                ok = false;
                continue;
            }
            if (m.mispredictions[0] != m.mispredictions[1] ||
                m.simulation_instr[0] != m.simulation_instr[1]) {
                std::fprintf(
                    stderr,
                    "%s (collect=%d): fused/virtual mismatch "
                    "(mispredictions %llu vs %llu, instr %llu vs %llu)\n",
                    name.c_str(), collect ? 1 : 0,
                    (unsigned long long)m.mispredictions[0],
                    (unsigned long long)m.mispredictions[1],
                    (unsigned long long)m.simulation_instr[0],
                    (unsigned long long)m.simulation_instr[1]);
                ok = false;
            }
            if (m.speedup < kSanityRatio) {
                std::fprintf(stderr,
                             "%s (collect=%d): fused kernel slower than "
                             "virtual (%.2fx < %.2fx floor)\n",
                             name.c_str(), collect ? 1 : 0, m.speedup,
                             kSanityRatio);
                ok = false;
            }
            std::printf("%-10s collect=%d  virtual %12.0f b/s   fused "
                        "%12.0f b/s   %5.2fx\n",
                        name.c_str(), collect ? 1 : 0, m.virtual_bps,
                        m.fused_bps, m.speedup);
            rows.push_back(json_t::object({
                {"predictor", name},
                {"collect_most_failed", collect},
                {"virtual_branches_per_second", m.virtual_bps},
                {"fused_branches_per_second", m.fused_bps},
                // The headline absolute number (fused path), so the
                // trajectory is trackable even as the ratio saturates.
                {"branches_per_second", m.fused_bps},
                {"speedup", m.speedup},
                {"pairs", m.pairs},
                {"mispredictions", m.mispredictions[0]},
            }));
        }
    }

    json_t doc = json_t::object({
        {"bench", "fused kernels vs virtual arena simulation"},
        {"version", kMbpVersion},
        {"fingerprint", bench::hostFingerprint()},
        {"workload", json_t::object({
                         {"name", spec.name},
                         {"seed", spec.seed},
                         {"num_instr", spec.num_instr},
                         {"branches", std::uint64_t(arena->size())},
                     })},
        {"reps", std::uint64_t(kReps)},
        {"sanity_ratio", kSanityRatio},
        {"rows", std::move(rows)},
        {"checks_passed", ok},
    });

    std::FILE *out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::string text = doc.dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
