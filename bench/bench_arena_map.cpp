/**
 * @file
 * Machine-readable tracking benchmark for the zero-decode arena tier.
 *
 * Times the two ways a process can obtain a trace arena — the streaming
 * FLZ decode (cold, what every run paid before SBBT-A existed) versus
 * mapping the persistent SBBT-A sidecar (warm, what every run after the
 * first pays) — and writes `BENCH_arena.json` (path from argv[1],
 * default ./BENCH_arena.json) with both times, the speedup, and the
 * sidecar/source sizes, so the warm-path win is a diffable artifact of
 * every CI run.
 *
 * Functional checks, enforced with exit code 1 (perf ratios are reported
 * but never gate, since this also runs under sanitizer builds):
 *   - the mapped arena and the decoded arena drive bit-identical
 *     simulations (equal misprediction counts per predictor);
 *   - a second acquire through the ArenaStore is served by mapping
 *     (Info.mapped), i.e. the store actually short-circuits the decode.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "host_fingerprint.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_file.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/generator.hpp"

namespace
{

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return 0;
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    return size > 0 ? std::uint64_t(size) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_arena.json";

    tracegen::WorkloadSpec spec;
    spec.name = "bench-arena";
    spec.seed = 17;
    spec.num_instr = 8'000'000;
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    auto entries = tools::materialize(bench::corpusDir(), {spec}, formats);
    const std::string &trace = entries[0].sbbt_flz;

    // Private store under the corpus dir, wiped so the first acquire is
    // a true cold materialization.
    const std::string store_dir = bench::corpusDir() + "/arena_store";
    sbbt::ArenaStore store(store_dir);
    if (!store.ok()) {
        std::fprintf(stderr, "cannot open arena store '%s'\n",
                     store_dir.c_str());
        return 1;
    }
    std::uint64_t content_hash = 0;
    sbbt::fileContentHash(trace, content_hash);
    const std::string sidecar = store.sidecarPathFor(content_hash);
    std::remove(sidecar.c_str());

    bool ok = true;

    // Cold: the streaming decode every pre-SBBT-A run paid. Timed via
    // MemTrace::load directly so materialization cost stays separate.
    auto t0 = std::chrono::steady_clock::now();
    std::string error;
    auto decoded = sbbt::MemTrace::load(trace, {}, &error);
    auto t1 = std::chrono::steady_clock::now();
    if (decoded == nullptr) {
        std::fprintf(stderr, "decode failed: %s\n", error.c_str());
        return 1;
    }
    const double decode_seconds = seconds(t0, t1);

    // Materialize the sidecar (reported, not part of either side of the
    // speedup: it is paid once per corpus lifetime).
    t0 = std::chrono::steady_clock::now();
    sbbt::ArenaStore::Info info;
    auto first = store.acquire(trace, {}, &error, &info);
    t1 = std::chrono::steady_clock::now();
    const double materialize_seconds = seconds(t0, t1);
    if (first == nullptr || !info.materialized) {
        std::fprintf(stderr, "materialization failed: %s\n",
                     info.rejected.empty() ? error.c_str()
                                           : info.rejected.c_str());
        return 1;
    }
    first.reset();

    // Warm: map + checksum-verify the sidecar. Best of a few runs (page
    // cache warm, like a campaign re-run on a hot corpus).
    double map_seconds = 0.0;
    std::shared_ptr<const sbbt::MemTrace> mapped;
    for (int run = 0; run < 3; ++run) {
        t0 = std::chrono::steady_clock::now();
        auto arena = sbbt::MemTrace::mapFile(sidecar, &error);
        t1 = std::chrono::steady_clock::now();
        if (arena == nullptr) {
            std::fprintf(stderr, "map failed: %s\n", error.c_str());
            return 1;
        }
        const double s = seconds(t0, t1);
        if (run == 0 || s < map_seconds)
            map_seconds = s;
        mapped = std::move(arena);
    }

    // The store must serve a second acquire by mapping, not decoding.
    sbbt::ArenaStore::Info warm_info;
    auto warm = store.acquire(trace, {}, &error, &warm_info);
    if (warm == nullptr || !warm_info.mapped) {
        std::fprintf(stderr, "store did not map on the warm path (%s)\n",
                     warm_info.rejected.c_str());
        ok = false;
    }
    warm.reset();

    // Equality gate: the mapped arena must drive simulations that are
    // bit-identical to the decoded arena's.
    const std::vector<std::string> roster = {"bimodal", "gshare", "batage"};
    json_t rows = json_t::array();
    for (const std::string &name : roster) {
        SimArgs args;
        args.trace_path = trace;
        args.in_memory = true;
        std::uint64_t counts[2] = {0, 0};
        int side = 0;
        for (const auto &arena : {decoded, mapped}) {
            args.preloaded = arena;
            auto predictor = pred::makeByName(name);
            json_t result = simulate(*predictor, args);
            if (result.contains("error")) {
                std::fprintf(stderr, "%s: %s\n", name.c_str(),
                             result.find("error")->asString().c_str());
                ok = false;
                break;
            }
            counts[side++] =
                result.find("metrics")->find("mispredictions")->asUint();
        }
        if (counts[0] != counts[1]) {
            std::fprintf(stderr,
                         "%s: misprediction mismatch (decoded %llu, "
                         "mapped %llu)\n",
                         name.c_str(), (unsigned long long)counts[0],
                         (unsigned long long)counts[1]);
            ok = false;
        }
        rows.push_back(json_t::object({
            {"predictor", name},
            {"mispredictions", counts[0]},
        }));
    }

    const double speedup =
        map_seconds > 0.0 ? decode_seconds / map_seconds : 0.0;
    std::printf("cold decode %8.3fs   warm map %8.3fs   %6.2fx   "
                "(materialize %8.3fs)\n",
                decode_seconds, map_seconds, speedup, materialize_seconds);

    json_t doc = json_t::object({
        {"bench", "SBBT-A arena map vs streaming decode"},
        {"version", kMbpVersion},
        {"fingerprint", bench::hostFingerprint()},
        {"workload", json_t::object({
                         {"name", spec.name},
                         {"seed", spec.seed},
                         {"num_instr", spec.num_instr},
                     })},
        {"trace_bytes", fileBytes(trace)},
        {"sidecar_bytes", fileBytes(sidecar)},
        {"arena_bytes", mapped->memoryBytes()},
        {"cold_decode_seconds", decode_seconds},
        {"warm_map_seconds", map_seconds},
        {"materialize_seconds", materialize_seconds},
        {"speedup", speedup},
        {"predictors", std::move(rows)},
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
