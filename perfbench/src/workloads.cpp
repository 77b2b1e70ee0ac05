/**
 * @file
 * Workload table and seeded input generation.
 */
#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/adversarial.hpp"

namespace perfbench
{

namespace
{

TraceDef
program(std::string name, std::uint64_t branches,
        std::uint64_t phase_length = 0)
{
    TraceDef def;
    def.name = std::move(name);
    def.kind = TraceKind::kProgram;
    def.branches = branches;
    def.phase_length = phase_length;
    return def;
}

/** A program trace with a large static-branch footprint. */
TraceDef
wide(std::string name, std::uint64_t branches)
{
    TraceDef def = program(std::move(name), branches);
    def.copies = 16;
    return def;
}

TraceDef
stress(std::string name, TraceKind kind, std::uint64_t branches)
{
    TraceDef def;
    def.name = std::move(name);
    def.kind = kind;
    def.branches = branches;
    def.programs = 1;
    return def;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Each trace gets its own stream of the workload seed. */
std::uint64_t
traceSeed(std::uint64_t seed, const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (unsigned char c : name)
        h = (h ^ c) * 0x100000001b3ULL;
    return splitmix64(seed ^ h);
}

using Events = std::vector<mbp::tracegen::TraceEvent>;

/** The first @p branches events of the program generated from @p seed.
 *  Cutting at a branch count, not an instruction count, gives every
 *  seed the same trace length. */
Events
generateProgram(const TraceDef &def, std::uint64_t seed,
                std::uint64_t branches)
{
    mbp::tracegen::WorkloadSpec spec;
    spec.name = def.name;
    spec.seed = seed;
    // Generous: programs average about seven instructions per branch.
    spec.num_instr = branches * 64;
    spec.phase_length = def.phase_length;
    mbp::tracegen::TraceGenerator generator(spec);
    Events events(branches);
    std::size_t n = 0;
    while (n < events.size() && generator.next(events[n]))
        ++n;
    events.resize(n);
    return events;
}

/** The event streams a trace interleaves: its programs, or the one
 *  stress stream. */
std::vector<Events>
generateParts(const TraceDef &def, std::uint64_t seed)
{
    // Stress shapes are the ones `mbp_tracegen stress` writes.
    switch (def.kind) {
      case TraceKind::kIndirectStorm:
        return {mbp::tracegen::indirectStorm(seed, def.branches, 8, 31)};
      case TraceKind::kMegamorphic:
        return {mbp::tracegen::megamorphicSites(seed, def.branches, 40)};
      case TraceKind::kRecursion:
        return {mbp::tracegen::deepRecursion(seed, def.branches, 70)};
      case TraceKind::kProgram:
        break;
    }
    std::vector<Events> parts;
    const std::uint64_t programs = std::uint64_t(def.programs);
    for (std::uint64_t k = 0; k < programs; ++k)
        parts.push_back(generateProgram(
            def, splitmix64(seed + k),
            def.branches / programs + (k < def.branches % programs)));
    return parts;
}

/**
 * Writes @p parts as one FLZ-compressed SBBT trace at the distribution
 * effort level (the one tools::materialize uses). The parts take turns,
 * kChunk branches at a time; part k's turn m runs in code region
 * k * copies + m % copies, kRegionBytes apart, so each part's code
 * appears def.copies times in the address space.
 */
bool
writeTrace(const TraceDef &def, const std::vector<Events> &parts,
           const std::string &path, std::string &error)
{
    constexpr std::size_t kChunk = 1024;
    constexpr std::uint64_t kRegionBytes = 1 << 24;
    mbp::sbbt::Header header;
    for (const Events &part : parts) {
        header.instruction_count += mbp::tracegen::streamInstructions(part);
        header.branch_count += part.size();
    }
    mbp::sbbt::SbbtWriter writer(path, header, 16);
    const std::uint64_t copies = std::uint64_t(def.copies);
    for (std::size_t begin = 0;; begin += kChunk) {
        bool any = false;
        for (std::size_t k = 0; k < parts.size(); ++k) {
            const std::uint64_t region =
                k * copies + (begin / kChunk) % copies;
            const std::uint64_t offset = region * kRegionBytes;
            const std::size_t end = std::min(begin + kChunk, parts[k].size());
            for (std::size_t i = begin; i < end; ++i) {
                mbp::Branch branch = parts[k][i].branch;
                branch.ip_ += offset;
                branch.target_ += offset;
                writer.append(branch, parts[k][i].instr_gap);
                any = true;
            }
        }
        if (!any)
            break;
    }
    if (!writer.close()) {
        error = path + ": " + writer.error();
        return false;
    }
    return true;
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> table = [] {
        std::vector<WorkloadDef> t;

        WorkloadDef stream_virtual;
        stream_virtual.name = "stream-virtual";
        stream_virtual.traces = {
            wide("sv-wide", 1'000'000),
            program("sv-mix", 800'000),
            program("sv-phases", 700'000, 150'000),
        };
        stream_virtual.predictors = {"bimodal", "gshare"};
        stream_virtual.jobs = 1;
        stream_virtual.in_memory = false;
        stream_virtual.fused = false;
        t.push_back(stream_virtual);

        WorkloadDef arena_tage;
        arena_tage.name = "arena-tage";
        arena_tage.traces = {
            wide("at-long", 560'000),
            program("at-mid", 350'000),
            program("at-short", 140'000),
        };
        arena_tage.predictors = {"tage", "batage", "tage-scl"};
        arena_tage.jobs = 2;
        t.push_back(arena_tage);

        WorkloadDef arena_cheap;
        arena_cheap.name = "arena-cheap";
        for (int i = 0; i < 6; ++i)
            arena_cheap.traces.push_back(
                i == 0 ? wide("ac-0", 420'000)
                       : program("ac-" + std::to_string(i), 420'000));
        arena_cheap.predictors = {"bimodal", "gshare"};
        arena_cheap.jobs = 2;
        t.push_back(arena_cheap);

        WorkloadDef mapped_frontend;
        mapped_frontend.name = "mapped-frontend";
        mapped_frontend.traces = {
            stress("fe-indirect", TraceKind::kIndirectStorm, 300'000),
            stress("fe-megamorphic", TraceKind::kMegamorphic, 300'000),
            stress("fe-recursion", TraceKind::kRecursion, 300'000),
            program("fe-program", 350'000),
        };
        mapped_frontend.predictors = {"gshare"};
        mapped_frontend.jobs = 1;
        mapped_frontend.frontend = true;
        mapped_frontend.arena_cache = true;
        t.push_back(mapped_frontend);
        return t;
    }();
    return table;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
Inputs::totalBranches() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : branches)
        total += b;
    return total;
}

bool
setUp(const WorkloadDef &workload, std::uint64_t seed, const std::string &dir,
      Tracer *tracer, Inputs &out, std::string &error)
{
    out = Inputs{};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        error = "cannot create " + dir + ": " + ec.message();
        return false;
    }
    const Clock::time_point gen_start = Clock::now();
    for (const TraceDef &def : workload.traces) {
        Tracer::Scope span(tracer, "tracegen.generate", def.name);
        const std::string path = dir + "/" + def.name + ".sbbt.flz";
        if (!writeTrace(def, generateParts(def, traceSeed(seed, def.name)),
                        path, error))
            return false;
        mbp::sbbt::SbbtReader reader(path);
        if (!reader.ok()) {
            error = path + ": " + reader.error();
            return false;
        }
        out.paths.push_back(path);
        out.branches.push_back(reader.header().branch_count);
    }
    out.generate_s = secondsSince(gen_start);

    if (workload.arena_cache) {
        out.store_dir = dir + "/store";
        mbp::sbbt::ArenaStore store(out.store_dir);
        for (std::size_t i = 0; i < out.paths.size(); ++i) {
            Tracer::Scope span(tracer, "sbbt.ArenaStore::acquire",
                               "materialize " + workload.traces[i].name,
                               out.branches[i]);
            mbp::sbbt::ArenaStore::Info info;
            std::string load_error;
            if (store.acquire(out.paths[i], {}, &load_error, &info) ==
                    nullptr ||
                !info.materialized) {
                error = out.paths[i] + ": sidecar not materialized: " +
                        load_error + info.rejected;
                return false;
            }
        }
    }
    return true;
}

mbp::sweep::Campaign
makeCampaign(const WorkloadDef &workload, const Inputs &inputs)
{
    mbp::json_t predictors = mbp::json_t::array();
    for (const std::string &p : workload.predictors)
        predictors.push_back(p);
    mbp::json_t traces = mbp::json_t::array();
    for (const std::string &path : inputs.paths)
        traces.push_back(path);
    mbp::json_t spec = mbp::json_t::object({
        {"collect_most_failed", true},
        {"jobs", std::uint64_t(workload.jobs)},
        {"in_memory", workload.in_memory},
        {"fused", workload.fused},
        {"arena_cache", workload.arena_cache},
        {"frontend", workload.frontend},
    });
    spec["predictors"] = std::move(predictors);
    spec["traces"] = std::move(traces);
    if (workload.arena_cache)
        spec["arena_cache_dir"] = inputs.store_dir;
    mbp::sweep::Campaign campaign;
    std::string error;
    if (!mbp::sweep::campaignFromJson(spec, campaign, error))
        throw std::runtime_error("campaign spec rejected: " + error);
    return campaign;
}

} // namespace perfbench
