/**
 * @file
 * ddmin shrinker and repro artifact writer.
 */
#include "mbp/testkit/shrink.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mbp::testkit
{

namespace
{

/** @return @p events with the half-open range [begin, end) removed. */
Events
without(const Events &events, std::size_t begin, std::size_t end)
{
    Events candidate;
    candidate.reserve(events.size() - (end - begin));
    candidate.insert(candidate.end(), events.begin(),
                     events.begin() + std::ptrdiff_t(begin));
    candidate.insert(candidate.end(), events.begin() + std::ptrdiff_t(end),
                     events.end());
    return candidate;
}

} // namespace

Events
shrinkStream(Events events,
             const std::function<bool(const Events &)> &stillFails)
{
    if (events.size() < 2 || !stillFails(events))
        return events;
    std::size_t n = 2;
    while (events.size() >= 2) {
        const std::size_t chunk = (events.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t begin = 0; begin < events.size(); begin += chunk) {
            const std::size_t end =
                std::min(begin + chunk, events.size());
            Events candidate = without(events, begin, end);
            if (!candidate.empty() && stillFails(candidate)) {
                events = std::move(candidate);
                n = std::max<std::size_t>(n - 1, 2);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= events.size())
                break; // 1-minimal: no single event is removable.
            n = std::min(n * 2, events.size());
        }
    }
    return events;
}

ReproArtifact
writeRepro(const std::string &dir, const std::string &name,
           const Events &events, const std::string &description)
{
    std::filesystem::create_directories(dir);
    ReproArtifact artifact;
    artifact.num_branches = events.size();
    artifact.sbbt_path = dir + "/" + name + ".sbbt";
    artifact.stanza_path = dir + "/" + name + ".repro.txt";
    writeSbbtFile(events, artifact.sbbt_path);

    std::ostringstream os;
    os << "// Shrunk repro written by mbp_fuzz — paste into a regression "
          "test.\n";
    os << "// " << description << "\n";
    os << "// Replay the trace file instead with: mbp_sim <predictor> "
       << artifact.sbbt_path << "\n";
    std::string test_name = name;
    for (char &c : test_name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    os << "TEST(FuzzRegression, " << test_name << ")\n";
    os << "{\n";
    os << "    using mbp::Branch;\n";
    os << "    using mbp::OpCode;\n";
    os << "    mbp::testkit::Events events = {\n";
    for (const auto &ev : events) {
        const Branch &b = ev.branch;
        os << "        {Branch{" << hex(b.ip()) << "ull, "
           << hex(b.target()) << "ull, OpCode(" << int(b.opcode().bits())
           << "), " << (b.isTaken() ? "true" : "false") << "}, "
           << ev.instr_gap << "},\n";
    }
    os << "    };\n";
    os << "    // TODO: instantiate the diverging subject and reference "
          "(see the\n";
    os << "    // description above), then:\n";
    os << "    auto mismatch = mbp::testkit::runLockstep(subject, "
          "reference, events);\n";
    os << "    EXPECT_FALSE(mismatch.found) << mismatch.describe();\n";
    os << "}\n";

    std::ofstream out(artifact.stanza_path);
    out << os.str();
    return artifact;
}

} // namespace mbp::testkit
