/**
 * @file
 * mbp_sim: run any roster predictor over a trace from the command line
 * and print the JSON result of paper Listing 1. A convenience wrapper —
 * the library-first workflow (your own main(), your own binaries per
 * configuration, paper §VI-A) remains the intended interface.
 *
 * Usage:
 *   mbp_sim [flags] <predictor> <trace.sbbt[.gz|.flz]> [warmup] [sim_instr]
 *   mbp_sim [flags] compare <pred_a> <pred_b> <trace> [warmup] [sim_instr]
 *   mbp_sim list
 *
 * Flags (anywhere on the line):
 *   --in-memory        decode the trace once into an in-memory arena and
 *                      simulate from it (identical results, different
 *                      throughput profile; see README "Decode-once")
 *   --streaming        stream packets from disk (the default)
 *   --mem-budget N     with --in-memory, fall back to streaming when the
 *                      arena would exceed N bytes (0 = unlimited)
 *   --no-fused         run the virtual simulators instead of the fused
 *                      compile-time kernels (mbp/sim/kernels.hpp). The
 *                      kernels are the default; results are bit-identical
 *                      either way, only throughput differs.
 *   --arena-cache[=DIR]  load the trace through the persistent SBBT-A
 *                      arena store (DIR, or $MBP_ARENA_CACHE, or
 *                      ~/.cache/mbp): the first run decodes and leaves a
 *                      sidecar, later runs map it zero-decode. Implies
 *                      --in-memory. A non-empty $MBP_ARENA_CACHE enables
 *                      this by default; --no-arena-cache opts out.
 *   --frontend[=SPEC]  compose the predictor into a front end (BTB +
 *                      RAS + indirect-target table) and report per-class
 *                      fetch statistics alongside conditional accuracy.
 *                      SPEC is a comma list of key=value pairs, e.g.
 *                      btb-sets=512,btb-ways=8,ras=32,corrupt=on (see
 *                      mbp/frontend/frontend.hpp for the full grammar).
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tools/cli.hpp"

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [flags] <predictor> <trace> [warmup_instr] [sim_instr]\n"
        "       %s [flags] compare <pred_a> <pred_b> <trace> [warmup_instr] "
        "[sim_instr]\n"
        "       %s list\n"
        "flags: --in-memory | --streaming | --mem-budget <bytes>"
        " | --no-fused\n"
        "       --arena-cache[=DIR] | --no-arena-cache |"
        " --frontend[=SPEC]\n",
        prog, prog, prog);
    return 2;
}

/** Parses the optional [warmup_instr] [sim_instr] tail into @p args. */
bool
parseLimits(const std::vector<const char *> &pos, std::size_t first,
            mbp::SimArgs &args)
{
    for (std::size_t i = first; i < pos.size(); ++i) {
        std::uint64_t value = 0;
        if (!mbp::tools::parseCount(pos[i], value)) {
            std::fprintf(stderr, "invalid instruction count '%s'\n",
                         pos[i]);
            return false;
        }
        if (i == first)
            args.warmup_instr = value;
        else
            args.sim_instr = value;
    }
    return true;
}

/**
 * The kernel the run steps for roster predictor @p name: its fused kernel,
 * or, with @p fused off, the virtual interface through FusedKernel. Null
 * for an unknown name.
 */
std::unique_ptr<mbp::BlockKernel>
kernelByName(const char *name, bool fused)
{
    if (fused)
        return mbp::pred::fusedKernelByName(name);
    if (auto predictor = mbp::pred::makeByName(name))
        return std::make_unique<mbp::FusedKernel<mbp::Predictor>>(
            std::move(predictor));
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    // Split flags from positionals so the flags may appear anywhere.
    mbp::SimArgs args;
    bool fused = true;
    bool frontend = false;
    mbp::frontend::FrontEndConfig frontend_config;
    mbp::tools::ArenaCacheFlag arena;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (arena.consume(argv[i])) {
            // handled
        } else if (std::strcmp(argv[i], "--frontend") == 0 ||
                   std::strncmp(argv[i], "--frontend=", 11) == 0) {
            frontend = true;
            std::string spec =
                argv[i][10] == '=' ? argv[i] + 11 : "";
            std::string error;
            if (!mbp::frontend::parseFrontEndSpec(spec, frontend_config,
                                                  error)) {
                std::fprintf(stderr, "invalid --frontend spec: %s\n",
                             error.c_str());
                return 2;
            }
        } else if (std::strcmp(argv[i], "--in-memory") == 0) {
            args.in_memory = true;
        } else if (std::strcmp(argv[i], "--streaming") == 0) {
            args.in_memory = false;
        } else if (std::strcmp(argv[i], "--mem-budget") == 0) {
            if (i + 1 >= argc ||
                !mbp::tools::parseCount(argv[++i], args.mem_budget)) {
                std::fprintf(stderr, "invalid --mem-budget value\n");
                return usage(argv[0]);
            }
        } else if (std::strcmp(argv[i], "--no-fused") == 0) {
            fused = false;
        } else if (std::strcmp(argv[i], "--fused") == 0) {
            fused = true;
        } else if (argv[i][0] == '-' && argv[i][1] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage(argv[0]);
        } else {
            pos.push_back(argv[i]);
        }
    }

    if (!pos.empty() && std::strcmp(pos[0], "list") == 0) {
        for (const std::string &name : mbp::pred::rosterNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    // With the arena store enabled, acquire the trace through it (mapped
    // zero-decode when a sidecar exists, decoded-and-materialized
    // otherwise) and hand the arena to the simulator. Store failures
    // fall through silently: the normal pipeline then reports the real
    // error (or just streams), never a cache artifact.
    auto preloadArena = [&arena](mbp::SimArgs &a) {
        if (!arena.enabled)
            return;
        mbp::sbbt::ArenaStore store(arena.dir);
        mbp::sbbt::ReaderOptions options;
        options.block_packets = a.reader_block_packets;
        options.prefetch = a.prefetch;
        a.preloaded = store.acquire(a.trace_path, options);
        if (a.preloaded != nullptr)
            a.in_memory = true;
    };
    if (!pos.empty() && std::strcmp(pos[0], "compare") == 0) {
        if (frontend) {
            std::fprintf(stderr,
                         "--frontend does not apply to compare mode; run "
                         "two --frontend simulations instead\n");
            return 2;
        }
        if (pos.size() < 4 || pos.size() > 6)
            return usage(argv[0]);
        args.trace_path = pos[3];
        if (!mbp::tools::fileReadable(args.trace_path)) {
            std::fprintf(stderr, "cannot read trace '%s'\n", pos[3]);
            return 2;
        }
        if (!parseLimits(pos, 4, args))
            return usage(argv[0]);
        preloadArena(args);
        auto a = kernelByName(pos[1], fused);
        auto b = kernelByName(pos[2], fused);
        if (!a || !b) {
            std::fprintf(stderr, "unknown predictor (try '%s list')\n",
                         argv[0]);
            return 2;
        }
        mbp::json_t result = mbp::compareFused(*a, *b, args);
        std::printf("%s\n", result.dump(2).c_str());
        return result.contains("error") ? 1 : 0;
    }
    if (pos.size() < 2 || pos.size() > 4)
        return usage(argv[0]);
    args.trace_path = pos[1];
    if (!mbp::tools::fileReadable(args.trace_path)) {
        std::fprintf(stderr, "cannot read trace '%s'\n", pos[1]);
        return 2;
    }
    if (!parseLimits(pos, 2, args))
        return usage(argv[0]);
    preloadArena(args);
    // The front end drives the same kernel as its direction predictor.
    std::unique_ptr<mbp::BlockKernel> kernel = kernelByName(pos[0], fused);
    if (!kernel) {
        std::fprintf(stderr, "unknown predictor '%s' (try '%s list')\n",
                     pos[0], argv[0]);
        return 2;
    }
    mbp::json_t result;
    if (frontend) {
        mbp::frontend::FrontEnd front_end(std::move(kernel), frontend_config);
        result = mbp::frontend::simulate(front_end, args);
    } else {
        result = mbp::detail::simulateKernel(*kernel, args);
    }
    std::printf("%s\n", result.dump(2).c_str());
    return result.contains("error") ? 1 : 0;
}
