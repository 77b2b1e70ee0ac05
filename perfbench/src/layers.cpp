/**
 * @file
 * Layer probes of the traced run.
 */
#include "layers.hpp"

#include <memory>

#include "mbp/compress/streams.hpp"
#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sim/simulator.hpp"
#include "reference.hpp"

namespace perfbench
{

const std::vector<std::string> &
fusedProbePredictors()
{
    static const std::vector<std::string> names = {
        "bimodal", "gshare", "tage", "batage", "tage-scl"};
    return names;
}

const std::vector<std::string> &
virtualProbePredictors()
{
    static const std::vector<std::string> names = {"bimodal", "gshare"};
    return names;
}

namespace
{

constexpr double kNs = 1e9;

/** The decode options every sweep cell uses (SimArgs defaults). */
mbp::sbbt::ReaderOptions
sweepReaderOptions()
{
    const mbp::SimArgs defaults;
    mbp::sbbt::ReaderOptions options;
    options.block_packets = defaults.reader_block_packets;
    options.prefetch = defaults.prefetch;
    return options;
}

/** Checks a probe cell when the reference covers (pred, trace). */
void
check(const mbp::json_t *reference, const std::string &pred,
      const std::string &trace, const mbp::json_t &result,
      const std::string &probe, std::size_t &checked,
      std::vector<std::string> &failures)
{
    if (reference == nullptr || reference->find(pred) == nullptr)
        return;
    ++checked;
    const std::string why = checkCell(*reference, pred, trace, result);
    if (!why.empty())
        failures.push_back(probe + " " + pred + " on " + trace + ": " +
                           why);
}

} // namespace

void
probeRound(const ProbeContext &ctx, Tracer &tracer, Samples &samples,
           std::size_t &checked, std::vector<std::string> &failures)
{
    const WorkloadDef &w = *ctx.workload;
    const Inputs &in = *ctx.inputs;
    const std::size_t n = in.paths.size();
    const double branches = double(in.totalBranches());
    const mbp::sbbt::ReaderOptions options = sweepReaderOptions();

    // compress: the byte stream under the SBBT decoder.
    {
        double seconds = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "compress.openInput",
                               w.traces[t].name, in.branches[t]);
            std::unique_ptr<mbp::compress::InStream> stream =
                mbp::compress::openInput(in.paths[t]);
            std::vector<char> buffer(1 << 20);
            while (stream && stream->read(buffer.data(), buffer.size()) > 0) {
            }
            ++checked;
            if (!stream || stream->failed())
                failures.push_back("compress.openInput failed on " +
                                   in.paths[t]);
            seconds += span.elapsed();
        }
        samples["compress.decode_ns_per_branch"].push_back(seconds * kNs /
                                                           branches);
    }

    // sbbt: the streaming reader, drained.
    {
        double seconds = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "sbbt.SbbtReader", w.traces[t].name,
                               in.branches[t]);
            mbp::sbbt::SbbtReader reader(in.paths[t], options);
            mbp::sbbt::PacketData packet;
            while (reader.next(packet)) {
            }
            ++checked;
            if (!reader.exhausted())
                failures.push_back("SbbtReader failed on " + in.paths[t] +
                                   ": " + reader.error());
            seconds += span.elapsed();
        }
        samples["sbbt.stream_s"].push_back(seconds);
        samples["sbbt.stream_ns_per_branch"].push_back(seconds * kNs /
                                                       branches);
    }

    // compress: prefetch-thread stalls while a cheap predictor streams.
    {
        double stall = 0.0, sim = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "compress.PrefetchSource",
                               "bimodal streaming " + w.traces[t].name,
                               in.branches[t]);
            mbp::SimArgs args;
            args.trace_path = in.paths[t];
            auto predictor = mbp::pred::makeByName("bimodal");
            const mbp::json_t doc = mbp::simulate(*predictor, args);
            check(ctx.reference, "bimodal", w.traces[t].name, doc,
                  "streaming simulate", checked, failures);
            if (const mbp::json_t *m = doc.find("metrics")) {
                stall += m->find("prefetch_stall_seconds")->asDouble();
                sim += m->find("simulation_time")->asDouble();
            }
        }
        samples["compress.prefetch_stall_share"].push_back(
            sim > 0.0 ? stall / sim : 0.0);
    }

    // sbbt: decode-once arenas, then their SBBT-A serialization.
    std::vector<std::shared_ptr<const mbp::sbbt::MemTrace>> arenas(n);
    {
        double seconds = 0.0, bytes = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "sbbt.MemTrace::load",
                               w.traces[t].name, in.branches[t]);
            std::string error;
            arenas[t] = mbp::sbbt::MemTrace::load(in.paths[t], options,
                                                  &error);
            seconds += span.elapsed();
            ++checked;
            if (arenas[t] == nullptr) {
                failures.push_back("MemTrace::load failed on " +
                                   in.paths[t] + ": " + error);
                return;
            }
            bytes += double(arenas[t]->memoryBytes());
        }
        samples["sbbt.arena_load_s"].push_back(seconds);
        samples["sbbt.arena_load_ns_per_branch"].push_back(seconds * kNs /
                                                           branches);
        samples["sbbt.arena_mb"].push_back(bytes / 1e6);
    }
    {
        double seconds = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "sbbt.MemTrace::writeArena",
                               w.traces[t].name, in.branches[t]);
            std::string error;
            const std::string path =
                ctx.scratch_dir + "/" + w.traces[t].name + ".sbbta";
            ++checked;
            if (!arenas[t]->writeArena(path, 0, &error))
                failures.push_back("writeArena failed: " + error);
            seconds += span.elapsed();
        }
        samples["sbbt.sidecar_write_s"].push_back(seconds);
    }

    // sim: the virtual loop, with per-site accounting off and on.
    for (const std::string &pred : virtualProbePredictors()) {
        double off = 0.0, on = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            for (bool collect : {false, true}) {
                Tracer::Scope span(&tracer, "sim.simulate",
                                   pred + (collect ? " collect " : " ") +
                                       w.traces[t].name,
                                   in.branches[t]);
                mbp::SimArgs args;
                args.trace_path = in.paths[t];
                args.preloaded = arenas[t];
                args.collect_most_failed = collect;
                auto predictor = mbp::pred::makeByName(pred);
                const mbp::json_t doc = mbp::simulate(*predictor, args);
                (collect ? on : off) += span.elapsed();
                if (collect)
                    check(ctx.reference, pred, w.traces[t].name, doc,
                          "virtual simulate", checked, failures);
            }
        }
        samples["sim.virtual_ns_per_branch." + pred].push_back(off * kNs /
                                                               branches);
        samples["sim.collect_ns_per_branch." + pred].push_back(on * kNs /
                                                               branches);
        samples["sim.collect_s." + pred].push_back(on);
    }

    // predictors: fused compile-time kernels over the arena.
    for (const std::string &pred : fusedProbePredictors()) {
        const mbp::pred::FusedRunner runner =
            mbp::pred::fusedRunnerByName(pred);
        double seconds = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            Tracer::Scope span(&tracer, "predictors.fusedRunner",
                               pred + " " + w.traces[t].name,
                               in.branches[t]);
            mbp::SimArgs args;
            args.trace_path = in.paths[t];
            args.preloaded = arenas[t];
            const mbp::json_t doc = runner(args);
            seconds += span.elapsed();
            check(ctx.reference, pred, w.traces[t].name, doc,
                  "fused kernel", checked, failures);
        }
        samples["predictors." + pred + ".fused_s"].push_back(seconds);
        samples["predictors." + pred + ".fused_ns_per_branch"].push_back(
            seconds * kNs / branches);
    }
    arenas.clear();

    // sbbt + frontend: warm store maps, then the front end over them.
    const WorkloadDef &fw = *ctx.frontend_workload;
    const Inputs &fin = *ctx.frontend_inputs;
    std::vector<std::shared_ptr<const mbp::sbbt::MemTrace>> mapped(
        fin.paths.size());
    {
        double seconds = 0.0;
        mbp::sbbt::ArenaStore store(fin.store_dir);
        for (std::size_t t = 0; t < fin.paths.size(); ++t) {
            Tracer::Scope span(&tracer, "sbbt.ArenaStore::acquire",
                               fw.traces[t].name, fin.branches[t]);
            std::string error;
            mbp::sbbt::ArenaStore::Info info;
            mapped[t] = store.acquire(fin.paths[t], options, &error, &info);
            seconds += span.elapsed();
            ++checked;
            if (mapped[t] == nullptr || !info.mapped) {
                failures.push_back("warm ArenaStore::acquire did not map " +
                                   fin.paths[t] + ": " + error +
                                   info.rejected);
                return;
            }
        }
        samples["sbbt.store_acquire_s"].push_back(seconds);
    }
    {
        double seconds = 0.0, btb_hits = 0.0, btb_lookups = 0.0;
        double ind_hits = 0.0, ind_lookups = 0.0;
        for (std::size_t t = 0; t < fin.paths.size(); ++t) {
            const std::string &name = fw.traces[t].name;
            Tracer::Scope span(&tracer, "frontend.simulate", "gshare " + name,
                               fin.branches[t]);
            mbp::SimArgs args;
            args.trace_path = fin.paths[t];
            args.preloaded = mapped[t];
            mbp::frontend::FrontEnd front_end(
                mbp::pred::makeByName("gshare"));
            const mbp::json_t doc = mbp::frontend::simulate(front_end, args);
            const double s = span.elapsed();
            seconds += s;
            check(ctx.frontend_reference, "gshare", name, doc,
                  "frontend simulate", checked, failures);
            // "fe-indirect" -> frontend.ns_per_branch.indirect
            samples["frontend.ns_per_branch." + name.substr(3)].push_back(
                s * kNs / double(fin.branches[t]));
            const mbp::json_t *fe = doc.find("frontend");
            if (fe == nullptr)
                continue;
            const mbp::json_t &st = *fe->find("structures");
            btb_hits += double(st.find("btb")->find("hits")->asUint());
            btb_lookups += double(st.find("btb")->find("lookups")->asUint());
            ind_hits += double(st.find("indirect")->find("hits")->asUint());
            ind_lookups +=
                double(st.find("indirect")->find("lookups")->asUint());
        }
        samples["frontend.s"].push_back(seconds);
        samples["frontend.btb_hit_ratio"].push_back(
            btb_lookups > 0 ? btb_hits / btb_lookups : 0.0);
        samples["frontend.indirect_hit_ratio"].push_back(
            ind_lookups > 0 ? ind_hits / ind_lookups : 0.0);
    }
}

} // namespace perfbench
