/**
 * @file
 * The benchmark's workloads and the set-up that generates their traces
 * from a seed. README.md says why each workload exists.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/sweep/sweep.hpp"
#include "stats.hpp"

namespace perfbench
{

/** The seed whose reference counts are stored in reference.json. */
inline constexpr std::uint64_t kDefaultSeed = 1;

enum class TraceKind
{
    kProgram,       //!< tracegen::TraceGenerator program
    kIndirectStorm, //!< interpreter-style indirect dispatch
    kMegamorphic,   //!< virtual call sites with many targets
    kRecursion,     //!< call/return chains deeper than the RAS
};

struct TraceDef
{
    std::string name;
    TraceKind kind = TraceKind::kProgram;
    std::uint64_t branches = 0;
    /** Program traces: instructions between behavior re-draws. */
    std::uint64_t phase_length = 0;
    /**
     * Program traces: independently seeded programs, interleaved a chunk
     * at a time. One generated program's speed varies a lot from seed
     * to seed; a trace that mixes eight varies less.
     */
    int programs = 8;
    /**
     * Program traces: relocated copies of each program's code, visited
     * in turn. The generator's own num_functions barely widens the
     * executed footprint (about 800 to 1800 static sites from 12 to 1000
     * functions, at about 0.9 MB of generator memory per function), so
     * this is how a trace gets tens of thousands of static branches.
     */
    int copies = 1;
};

struct WorkloadDef
{
    std::string name;
    std::vector<TraceDef> traces;
    std::vector<std::string> predictors;
    unsigned jobs = 1;
    bool in_memory = true;
    bool fused = true;
    bool frontend = false;
    bool arena_cache = false;
};

const std::vector<WorkloadDef> &workloads();
const WorkloadDef *findWorkload(const std::string &name);

/** The generated inputs of one workload. */
struct Inputs
{
    std::vector<std::string> paths;      //!< parallel to WorkloadDef::traces
    std::vector<std::uint64_t> branches; //!< from each trace's header
    std::string store_dir; //!< warm SBBT-A store ("" unless arena_cache)
    double generate_s = 0.0; //!< trace generation and writing

    std::uint64_t totalBranches() const;
};

/**
 * Generates every trace of @p workload from @p seed into @p dir (and,
 * for arena_cache workloads, materializes their SBBT-A sidecars into a
 * fresh store under @p dir).
 *
 * @return Whether every input is ready; on failure @p error says why.
 */
bool setUp(const WorkloadDef &workload, std::uint64_t seed,
           const std::string &dir, Tracer *tracer, Inputs &out,
           std::string &error);

/** The campaign the workload runs, built through campaignFromJson the
 *  way mbp_sweep builds it from a spec file. */
mbp::sweep::Campaign makeCampaign(const WorkloadDef &workload,
                                  const Inputs &inputs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
