/**
 * @file
 * Differential and metamorphic oracle implementations.
 */
#include "mbp/testkit/oracle.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "cbp5/trace.hpp"
#include "champsim/trace.hpp"
#include "champsim/trace_synth.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/adversarial.hpp"

namespace mbp::testkit
{

namespace
{

/**
 * Serializes @p value with every member whose key mentions time removed,
 * recursively — the only fields of a simulate() result that may differ
 * between identical runs.
 */
void
stableDump(const json_t &value, std::string &out)
{
    if (value.isObject()) {
        out += '{';
        bool first = true;
        for (const auto &[key, member] : value.members()) {
            if (key.find("time") != std::string::npos ||
                key.find("second") != std::string::npos)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += key;
            out += ':';
            stableDump(member, out);
        }
        out += '}';
    } else if (value.isArray()) {
        out += '[';
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (i)
                out += ',';
            stableDump(value[i], out);
        }
        out += ']';
    } else {
        out += value.dump();
    }
}

/** One observed conditional branch of a simulate() run. */
struct Observation
{
    std::uint64_t instr = 0;
    bool predicted = false;
    bool mispredicted = false;
    bool measured = false;
};

/** Runs simulate() over @p path collecting the prediction stream. */
json_t
observedRun(const PredictorFactory &factory, const std::string &path,
            std::uint64_t warmup, std::vector<Observation> &observations)
{
    auto predictor = factory();
    SimArgs args;
    args.trace_path = path;
    args.warmup_instr = warmup;
    args.collect_most_failed = false;
    args.prediction_hook = [&](const Branch &b, bool predicted,
                               std::uint64_t instr, bool measured) {
        observations.push_back(
            {instr, predicted, predicted != b.isTaken(), measured});
    };
    return simulate(*predictor, args);
}

/** Compares a decoded stream against the original, naming @p format. */
std::string
compareStreams(const char *format, const Events &expected,
               const Events &decoded)
{
    if (decoded.size() != expected.size()) {
        std::ostringstream os;
        os << "round-trip(" << format << "): decoded " << decoded.size()
           << " events, expected " << expected.size();
        return os.str();
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const Branch &a = expected[i].branch;
        const Branch &b = decoded[i].branch;
        if (a.ip() != b.ip() || a.target() != b.target() ||
            a.opcode().bits() != b.opcode().bits() ||
            a.isTaken() != b.isTaken() ||
            expected[i].instr_gap != decoded[i].instr_gap) {
            std::ostringstream os;
            os << "round-trip(" << format << "): event " << i
               << " diverged: got {ip " << hex(b.ip()) << ", target "
               << hex(b.target()) << ", opcode " << int(b.opcode().bits())
               << ", taken " << b.isTaken() << ", gap "
               << decoded[i].instr_gap << "}, expected {ip " << hex(a.ip())
               << ", target " << hex(a.target()) << ", opcode "
               << int(a.opcode().bits()) << ", taken " << a.isTaken()
               << ", gap " << expected[i].instr_gap << "}";
            return os.str();
        }
    }
    return "";
}

} // namespace

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx", (unsigned long long)value);
    return buf;
}

std::string
stableDump(const json_t &value)
{
    std::string out;
    stableDump(value, out);
    return out;
}

std::string
Mismatch::describe() const
{
    if (!found)
        return "no mismatch";
    std::ostringstream os;
    os << "event " << event_index << " (ip " << hex(ip) << "): ";
    if (std::string(field) == "direction") {
        os << "subject predicted "
           << (subject_taken ? "taken" : "not-taken")
           << ", reference predicted "
           << (reference_taken ? "taken" : "not-taken");
    } else {
        os << "subject predicted target " << hex(subject_target)
           << ", reference predicted target " << hex(reference_target);
    }
    return os.str();
}

Mismatch
runLockstep(Predictor &subject, Predictor &reference, const Events &events,
            bool track_only_conditional)
{
    Mismatch mismatch;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Branch &b = events[i].branch;
        if (b.isConditional()) {
            bool ps = subject.predict(b.ip());
            bool pr = reference.predict(b.ip());
            if (ps != pr) {
                mismatch.found = true;
                mismatch.event_index = i;
                mismatch.ip = b.ip();
                mismatch.field = "direction";
                mismatch.subject_taken = ps;
                mismatch.reference_taken = pr;
                return mismatch;
            }
            subject.train(b);
            reference.train(b);
        }
        if (b.isConditional() || !track_only_conditional) {
            subject.track(b);
            reference.track(b);
        }
    }
    return mismatch;
}

std::string
writeSbbtFile(const Events &events, const std::string &path)
{
    sbbt::Header header;
    header.instruction_count = tracegen::streamInstructions(events);
    header.branch_count = events.size();
    sbbt::SbbtWriter writer(path, header);
    for (const auto &ev : events)
        if (!writer.append(ev.branch, ev.instr_gap))
            return writer.error();
    if (!writer.close())
        return writer.error();
    return "";
}

std::string
checkWarmupSplit(const PredictorFactory &factory, const Events &events,
                 const std::string &scratch_path)
{
    std::string err = writeSbbtFile(events, scratch_path);
    if (!err.empty())
        return "warmup-split: " + err;

    std::vector<Observation> full_obs, split_obs;
    json_t full = observedRun(factory, scratch_path, 0, full_obs);
    if (full.contains("error"))
        return "warmup-split: full run failed: " +
               full.find("error")->asString();
    const std::uint64_t k = tracegen::streamInstructions(events) / 2;
    json_t split = observedRun(factory, scratch_path, k, split_obs);
    if (split.contains("error"))
        return "warmup-split: split run failed: " +
               split.find("error")->asString();

    if (full_obs.size() != split_obs.size()) {
        std::ostringstream os;
        os << "warmup-split: full run saw " << full_obs.size()
           << " conditional branches, warmup=" << k << " run saw "
           << split_obs.size();
        return os.str();
    }
    for (std::size_t i = 0; i < full_obs.size(); ++i) {
        if (full_obs[i].predicted != split_obs[i].predicted ||
            full_obs[i].instr != split_obs[i].instr) {
            std::ostringstream os;
            os << "warmup-split: prediction stream diverged at conditional "
               << i << " (instr " << full_obs[i].instr
               << "): warm-up must not change predictor behavior";
            return os.str();
        }
    }

    std::uint64_t warmup_misses = 0, split_hook_misses = 0;
    for (const Observation &o : split_obs) {
        if (o.mispredicted && !o.measured)
            ++warmup_misses;
        if (o.mispredicted && o.measured)
            ++split_hook_misses;
    }
    const std::uint64_t full_misses =
        full.find("metrics")->find("mispredictions")->asUint();
    const std::uint64_t split_misses =
        split.find("metrics")->find("mispredictions")->asUint();
    if (full_misses != split_misses + warmup_misses) {
        std::ostringstream os;
        os << "warmup-split: accounting broke: full run reports "
           << full_misses << " mispredictions, split run reports "
           << split_misses << " measured + " << warmup_misses
           << " during warm-up";
        return os.str();
    }
    if (split_misses != split_hook_misses) {
        std::ostringstream os;
        os << "warmup-split: metrics report " << split_misses
           << " mispredictions but the hook observed " << split_hook_misses
           << " in the measured window";
        return os.str();
    }
    return "";
}

std::string
checkRoundTrip(const Events &events, const std::string &scratch_prefix)
{
    // SBBT.
    {
        const std::string path = scratch_prefix + ".sbbt";
        std::string err = writeSbbtFile(events, path);
        if (!err.empty())
            return "round-trip(sbbt): " + err;
        sbbt::SbbtReader reader(path);
        if (!reader.ok())
            return "round-trip(sbbt): " + reader.error();
        Events decoded;
        sbbt::PacketData packet;
        while (reader.next(packet))
            decoded.push_back({packet.branch, packet.instr_gap});
        if (!reader.error().empty())
            return "round-trip(sbbt): " + reader.error();
        err = compareStreams("sbbt", events, decoded);
        if (!err.empty())
            return err;
    }
    // BTT (cbp5). The BTT node table keys opcodes by instruction address,
    // so a stream where one ip carries two different opcodes — physically
    // impossible for a real program, but constructible by interleaving two
    // independently laid-out synthetic streams — is outside the format's
    // domain. Skip the leg for such streams instead of reporting the
    // format's documented limitation as a round-trip bug.
    bool btt_representable = true;
    {
        std::map<std::uint64_t, std::uint8_t> opcode_of;
        for (const auto &ev : events) {
            auto [it, inserted] = opcode_of.emplace(
                ev.branch.ip(), ev.branch.opcode().bits());
            if (!inserted && it->second != ev.branch.opcode().bits()) {
                btt_representable = false;
                break;
            }
        }
    }
    if (btt_representable) {
        const std::string path = scratch_prefix + ".btt";
        cbp5::BttWriter writer(path);
        for (const auto &ev : events)
            writer.append(ev.branch, ev.instr_gap);
        if (!writer.close())
            return "round-trip(btt): " + writer.error();
        cbp5::BttReader reader(path);
        if (!reader.ok())
            return "round-trip(btt): " + reader.error();
        Events decoded;
        cbp5::EdgeInfo edge;
        while (reader.next(edge))
            decoded.push_back({edge.branch, edge.instr_gap});
        if (!reader.error().empty())
            return "round-trip(btt): " + reader.error();
        std::string err = compareStreams("btt", events, decoded);
        if (!err.empty())
            return err;
    }
    // champsim-lite.
    {
        const std::string path = scratch_prefix + ".champsim";
        champsim::TraceWriter writer(path);
        if (!writer.ok())
            return "round-trip(champsim): " + writer.error();
        champsim::SyntheticTraceBuilder builder(writer, {});
        for (const auto &ev : events)
            if (!builder.append(ev.branch, ev.instr_gap))
                return "round-trip(champsim): " + writer.error();
        if (!writer.close())
            return "round-trip(champsim): " + writer.error();
        champsim::TraceReader reader(path);
        if (!reader.ok())
            return "round-trip(champsim): " + reader.error();
        Events decoded;
        std::uint32_t gap = 0;
        champsim::TraceInstr instr;
        while (reader.next(instr)) {
            if (!instr.is_branch) {
                ++gap;
                continue;
            }
            decoded.push_back({Branch{instr.ip, instr.branch_target,
                                      instr.branch_opcode,
                                      instr.branch_taken},
                               gap});
            gap = 0;
        }
        if (!reader.error().empty())
            return "round-trip(champsim): " + reader.error();
        std::string err = compareStreams("champsim", events, decoded);
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
checkDeterminism(const SimRunner &runner, const Events &events,
                 const std::string &scratch_path, const char *invariant)
{
    const std::string prefix = std::string(invariant) + ": ";
    std::string err = writeSbbtFile(events, scratch_path);
    if (!err.empty())
        return prefix + err;
    std::string dumps[2];
    for (int run = 0; run < 2; ++run) {
        SimArgs args;
        args.trace_path = scratch_path;
        json_t result = runner(args);
        if (result.contains("error"))
            return prefix + "run failed: " +
                   result.find("error")->asString();
        dumps[run] = stableDump(result);
    }
    if (dumps[0] != dumps[1])
        return prefix + "two identical runs produced different "
                        "results:\n  run 1: " +
               dumps[0] + "\n  run 2: " + dumps[1];
    return "";
}

} // namespace mbp::testkit
