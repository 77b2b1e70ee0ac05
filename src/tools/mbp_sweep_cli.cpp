/**
 * @file
 * mbp_sweep: run a (predictor x trace) campaign grid on all cores and
 * print the campaign JSON (or CSV). The parallel companion to mbp_sim:
 * per-cell results are bit-identical to serial mbp_sim runs of the same
 * cells (modulo the timing observability fields).
 *
 * Usage:
 *   mbp_sweep --predictors <a,b,...> --traces <t1,t2,...>
 *             [--warmup N] [--sim-instr N] [--jobs N] [--csv] [--out FILE]
 *             [--in-memory | --streaming] [--mem-budget BYTES]
 *             [--no-fused] [--arena-cache[=DIR] | --no-arena-cache]
 *   mbp_sweep --spec campaign.json [--jobs N] [--csv] [--out FILE]
 *   mbp_sweep list
 *
 * Traces are decoded once into shared in-memory arenas by default
 * (--in-memory), and --mem-budget caps the arena cache (oversized traces
 * stream instead — the campaign never fails on budget). --streaming holds
 * no arena: each trace is streamed once per pass, and a pass steps
 * several predictors block by block (see sweep::run). A cell's
 * simulation_time, in the JSON and in the CSV, is its predictor's own
 * stepping time plus an even share of its pass's decode.
 *
 * --arena-cache[=DIR] additionally persists each decoded arena as an
 * SBBT-A sidecar in a content-addressed store (DIR, or $MBP_ARENA_CACHE,
 * or ~/.cache/mbp), so later runs map it zero-decode; a non-empty
 * $MBP_ARENA_CACHE enables this by default and --no-arena-cache opts
 * out. See README "Persistent arena cache" and the mbp_arena tool.
 *
 * Roster predictors run through the fused compile-time kernels
 * (mbp/sim/kernels.hpp) by default; --no-fused forces the virtual
 * simulate() everywhere for A/B measurement. Results are bit-identical
 * either way.
 *
 * --frontend[=SPEC] composes every predictor into a front end (BTB +
 * RAS + indirect-target table, see mbp/frontend/frontend.hpp) and runs
 * the per-class fetch simulation in every cell, on the same schedule.
 *
 * The campaign JSON spec (see README "Parallel sweeps"):
 *   {"predictors": ["gshare", ...], "traces": ["a.sbbt.flz", ...],
 *    "warmup_instr": 0, "sim_instr": 10000000, "jobs": 8 (<= 4096),
 *    "in_memory": true, "mem_budget": 1073741824, "fused": true,
 *    "frontend": "btb-sets=512,ras=32"}
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sweep/sweep.hpp"
#include "mbp/tools/cli.hpp"

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s --predictors <a,b,...> --traces <t1,t2,...>\n"
        "          [--warmup N] [--sim-instr N] [--jobs N] [--csv]"
        " [--out FILE]\n"
        "          [--in-memory | --streaming] [--mem-budget BYTES]"
        " [--no-fused]\n"
        "          [--arena-cache[=DIR] | --no-arena-cache]"
        " [--frontend[=SPEC]]\n"
        "       %s --spec campaign.json [--jobs N] [--csv] [--out FILE]\n"
        "       %s list\n",
        prog, prog, prog);
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;

    if (argc >= 2 && std::strcmp(argv[1], "list") == 0) {
        for (const std::string &name : pred::rosterNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    std::string spec_path, predictors_arg, traces_arg, out_path;
    std::uint64_t warmup = 0, sim_instr = 0;
    bool have_warmup = false, have_sim_instr = false;
    std::uint64_t jobs = 0;
    bool csv = false;
    bool in_memory = true, have_in_memory = false;
    std::uint64_t mem_budget = 0;
    bool have_mem_budget = false;
    bool fused = true, have_fused = false;
    bool frontend = false;
    std::string frontend_spec;
    tools::ArenaCacheFlag arena;
    for (int i = 1; i < argc; ++i) {
        if (arena.consume(argv[i]))
            continue;
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--spec") == 0) {
            const char *v = value("--spec");
            if (!v)
                return usage(argv[0]);
            spec_path = v;
        } else if (std::strcmp(argv[i], "--predictors") == 0) {
            const char *v = value("--predictors");
            if (!v)
                return usage(argv[0]);
            predictors_arg = v;
        } else if (std::strcmp(argv[i], "--traces") == 0) {
            const char *v = value("--traces");
            if (!v)
                return usage(argv[0]);
            traces_arg = v;
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            const char *v = value("--warmup");
            if (!v || !tools::parseCount(v, warmup)) {
                std::fprintf(stderr, "invalid --warmup value\n");
                return usage(argv[0]);
            }
            have_warmup = true;
        } else if (std::strcmp(argv[i], "--sim-instr") == 0) {
            const char *v = value("--sim-instr");
            if (!v || !tools::parseCount(v, sim_instr)) {
                std::fprintf(stderr, "invalid --sim-instr value\n");
                return usage(argv[0]);
            }
            have_sim_instr = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            const char *v = value("--jobs");
            if (!v || !tools::parseCount(v, jobs) || jobs == 0 ||
                jobs > sweep::kMaxJobs) {
                std::fprintf(stderr, "invalid --jobs value\n");
                return usage(argv[0]);
            }
        } else if (std::strcmp(argv[i], "--in-memory") == 0) {
            in_memory = true;
            have_in_memory = true;
        } else if (std::strcmp(argv[i], "--streaming") == 0) {
            in_memory = false;
            have_in_memory = true;
        } else if (std::strcmp(argv[i], "--mem-budget") == 0) {
            const char *v = value("--mem-budget");
            if (!v || !tools::parseCount(v, mem_budget)) {
                std::fprintf(stderr, "invalid --mem-budget value\n");
                return usage(argv[0]);
            }
            have_mem_budget = true;
        } else if (std::strcmp(argv[i], "--no-fused") == 0) {
            fused = false;
            have_fused = true;
        } else if (std::strcmp(argv[i], "--fused") == 0) {
            fused = true;
            have_fused = true;
        } else if (std::strcmp(argv[i], "--frontend") == 0 ||
                   std::strncmp(argv[i], "--frontend=", 11) == 0) {
            frontend = true;
            frontend_spec = argv[i][10] == '=' ? argv[i] + 11 : "";
            mbp::frontend::FrontEndConfig config;
            std::string spec_error;
            if (!mbp::frontend::parseFrontEndSpec(frontend_spec, config,
                                                  spec_error)) {
                std::fprintf(stderr, "invalid --frontend spec: %s\n",
                             spec_error.c_str());
                return 2;
            }
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(argv[i], "--out") == 0) {
            const char *v = value("--out");
            if (!v)
                return usage(argv[0]);
            out_path = v;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return usage(argv[0]);
        }
    }

    sweep::Campaign campaign;
    if (!spec_path.empty()) {
        if (!predictors_arg.empty() || !traces_arg.empty()) {
            std::fprintf(stderr,
                         "--spec and --predictors/--traces are exclusive\n");
            return usage(argv[0]);
        }
        std::string text;
        if (!readFile(spec_path, text)) {
            std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
            return 2;
        }
        std::string parse_error;
        auto spec = json_t::parse(text, &parse_error);
        if (!spec) {
            std::fprintf(stderr, "%s: %s\n", spec_path.c_str(),
                         parse_error.c_str());
            return 2;
        }
        std::string spec_error;
        if (!sweep::campaignFromJson(*spec, campaign, spec_error)) {
            std::fprintf(stderr, "%s: %s\n", spec_path.c_str(),
                         spec_error.c_str());
            return 2;
        }
    } else {
        if (predictors_arg.empty() || traces_arg.empty())
            return usage(argv[0]);
        for (const std::string &name :
             tools::splitCommaList(predictors_arg)) {
            if (pred::makeByName(name) == nullptr) {
                std::fprintf(stderr,
                             "unknown predictor '%s' (try '%s list')\n",
                             name.c_str(), argv[0]);
                return 2;
            }
            campaign.predictors.push_back(sweep::rosterSpec(name));
        }
        campaign.traces = tools::splitCommaList(traces_arg);
        if (campaign.predictors.empty() || campaign.traces.empty())
            return usage(argv[0]);
    }
    for (const std::string &trace : campaign.traces) {
        if (!tools::fileReadable(trace)) {
            std::fprintf(stderr, "cannot read trace '%s' (%s)\n",
                         trace.c_str(),
                         spec_path.empty() ? "--traces" : "--spec");
            return 2;
        }
    }
    if (have_warmup)
        campaign.base_args.warmup_instr = warmup;
    if (have_sim_instr)
        campaign.base_args.sim_instr = sim_instr;
    if (have_in_memory)
        campaign.in_memory = in_memory;
    if (have_mem_budget)
        campaign.mem_budget = mem_budget;
    if (have_fused)
        campaign.fused = fused;
    if (frontend) {
        campaign.frontend = true;
        campaign.frontend_spec = frontend_spec;
    }
    // Precedence: explicit flag > spec field > $MBP_ARENA_CACHE default.
    if (arena.explicit_flag) {
        campaign.arena_cache = arena.enabled;
        campaign.arena_cache_dir = arena.dir;
    } else if (arena.enabled) {
        campaign.arena_cache = true;
    }

    json_t result = sweep::run(campaign, static_cast<unsigned>(jobs));
    std::string text =
        csv ? sweep::toCsv(result) : result.dump(2) + "\n";
    if (!out_path.empty()) {
        std::FILE *out = std::fopen(out_path.c_str(), "wb");
        if (out == nullptr ||
            std::fwrite(text.data(), 1, text.size(), out) != text.size()) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            if (out)
                std::fclose(out);
            return 1;
        }
        std::fclose(out);
    } else {
        std::fwrite(text.data(), 1, text.size(), stdout);
    }
    std::uint64_t failed =
        result.find("aggregate")->find("failed_cells")->asUint();
    return failed == 0 ? 0 : 1;
}
