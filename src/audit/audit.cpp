/**
 * @file
 * Storage-audit implementation.
 */
#include "mbp/audit/audit.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "mbp/predictors/roster.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp::audit
{

const char *
statusName(Status status)
{
    switch (status) {
      case Status::kOk: return "ok";
      case Status::kZeroCost: return "zero-cost";
      case Status::kUnreported: return "unreported";
    }
    return "?";
}

bool
statusPasses(Status status)
{
    return status == Status::kOk || status == Status::kZeroCost;
}

Entry
auditPredictor(const std::string &name, const Predictor &predictor)
{
    Entry entry;
    entry.name = name;
    entry.components = predictor.storage_components();
    if (!entry.components.has_value())
        return entry; // kUnreported
    entry.derived_bits = entry.components->totalBits();
    entry.status =
        entry.derived_bits == 0 ? Status::kZeroCost : Status::kOk;
    return entry;
}

std::vector<Entry>
auditRoster()
{
    return auditByNames(pred::rosterNames());
}

std::vector<Entry>
auditByNames(const std::vector<std::string> &names)
{
    std::vector<Entry> entries;
    entries.reserve(names.size());
    for (const std::string &name : names) {
        std::unique_ptr<Predictor> predictor = pred::makeByName(name);
        if (predictor == nullptr) {
            Entry entry;
            entry.name = name;
            entry.status = Status::kUnreported;
            entries.push_back(std::move(entry));
            continue;
        }
        entries.push_back(auditPredictor(name, *predictor));
    }
    return entries;
}

bool
clean(const std::vector<Entry> &entries)
{
    return std::all_of(entries.begin(), entries.end(),
                       [](const Entry &e) {
                           return statusPasses(e.status);
                       });
}

json_t
report(const std::vector<Entry> &entries, const Options &options)
{
    json_t predictors = json_t::array();
    std::uint64_t ok = 0, zero_cost = 0, unreported = 0, over_budget = 0;
    for (const Entry &entry : entries) {
        json_t row = json_t::object({
            {"name", entry.name},
            {"status", statusName(entry.status)},
        });
        // null, not 0, when unreported: "never told us" must not read as
        // "told us it costs nothing".
        if (entry.components.has_value())
            row["derived_bits"] = entry.derived_bits;
        else
            row["derived_bits"] = nullptr;
        row["kib"] = static_cast<double>(entry.derived_bits) / 8192.0;
        if (options.budget_bits != 0) {
            const bool over = entry.derived_bits > options.budget_bits;
            row["over_budget"] = over;
            if (over)
                ++over_budget;
        }
        if (options.include_components && entry.components.has_value())
            row["components"] = entry.components->toJson();
        predictors.push_back(std::move(row));

        switch (entry.status) {
          case Status::kOk: ++ok; break;
          case Status::kZeroCost: ++zero_cost; break;
          case Status::kUnreported: ++unreported; break;
        }
    }

    json_t metadata = json_t::object({
        {"tool", "mbp_audit"},
        {"version", kMbpVersion},
        {"num_predictors", std::uint64_t(entries.size())},
    });
    if (options.budget_bits != 0)
        metadata["budget_bits"] = options.budget_bits;

    json_t summary = json_t::object({
        {"ok", ok},
        {"zero_cost", zero_cost},
        {"unreported", unreported},
        {"failures", unreported},
    });
    if (options.budget_bits != 0)
        summary["over_budget"] = over_budget;

    return json_t::object({
        {"metadata", std::move(metadata)},
        {"predictors", std::move(predictors)},
        {"summary", std::move(summary)},
    });
}

std::string
renderTable(const json_t &document)
{
    const json_t *predictors = document.find("predictors");
    if (predictors == nullptr || !predictors->isArray())
        return "";

    std::size_t name_width = 9; // "predictor"
    for (const json_t &row : predictors->elements())
        name_width =
            std::max(name_width, row.find("name")->asString().size());

    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-*s  %-21s  %14s  %9s\n",
                  static_cast<int>(name_width), "predictor", "status",
                  "derived bits", "KiB");
    out += line;
    for (const json_t &row : predictors->elements()) {
        const json_t *derived = row.find("derived_bits");
        std::string derived_text =
            derived->isNull() ? std::string("-")
                              : std::to_string(derived->asUint());
        std::string status = row.find("status")->asString();
        const json_t *over = row.find("over_budget");
        if (over != nullptr && over->asBool())
            status += " (over budget)";
        std::snprintf(line, sizeof(line), "%-*s  %-21s  %14s  %9.1f\n",
                      static_cast<int>(name_width),
                      row.find("name")->asString().c_str(),
                      status.c_str(), derived_text.c_str(),
                      row.find("kib")->asDouble());
        out += line;
    }

    const json_t *summary = document.find("summary");
    if (summary != nullptr) {
        std::snprintf(
            line, sizeof(line),
            "\n%llu audited: %llu ok, %llu zero-cost, %llu unreported\n",
            static_cast<unsigned long long>(
                document.find("metadata")->find("num_predictors")
                    ->asUint()),
            static_cast<unsigned long long>(
                summary->find("ok")->asUint()),
            static_cast<unsigned long long>(
                summary->find("zero_cost")->asUint()),
            static_cast<unsigned long long>(
                summary->find("unreported")->asUint()));
        out += line;
        const json_t *over = summary->find("over_budget");
        if (over != nullptr) {
            std::snprintf(
                line, sizeof(line), "%llu over the %llu-bit budget\n",
                static_cast<unsigned long long>(over->asUint()),
                static_cast<unsigned long long>(
                    document.find("metadata")->find("budget_bits")
                        ->asUint()));
            out += line;
        }
    }
    return out;
}

} // namespace mbp::audit
