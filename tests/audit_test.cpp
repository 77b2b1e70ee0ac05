/**
 * @file
 * Unit tests for the storage-audit layer (mbp::audit): ComponentInfo
 * derivation arithmetic, the status taxonomy (a declared tree is ok or
 * zero-cost, the silent base-class default unreported), report shape
 * including the unreported-vs-zero distinction, the budget gate, and a
 * roster-wide cleanliness check.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/audit/audit.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sim/predictor.hpp"

namespace
{

using mbp::ComponentInfo;
using mbp::audit::Entry;
using mbp::audit::Status;

/** Storage-accounting test double: behavior stubs, a declared tree. */
class FakePredictor : public mbp::Predictor
{
  public:
    explicit FakePredictor(std::optional<ComponentInfo> components)
        : components_(std::move(components))
    {
    }

    bool predict(std::uint64_t) override { return false; }
    void train(const mbp::Branch &) override {}
    void track(const mbp::Branch &) override {}

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return components_;
    }

  private:
    std::optional<ComponentInfo> components_;
};

/** The honest inventory: 1024 x 2b counters plus a 17b history. */
ComponentInfo
honestTree()
{
    return ComponentInfo::composite(
        "fake", {ComponentInfo::table("counters", 1024, 2),
                 ComponentInfo::reg("history", 17)});
}

// ---------------------------------------------------------------------------
// ComponentInfo derivation

TEST(ComponentInfo, TableIsEntriesTimesBits)
{
    EXPECT_EQ(ComponentInfo::table("t", 4096, 3).totalBits(), 12288u);
}

TEST(ComponentInfo, RegisterIsExtraBits)
{
    EXPECT_EQ(ComponentInfo::reg("h", 17).totalBits(), 17u);
}

TEST(ComponentInfo, CompositeSumsChildrenRecursively)
{
    ComponentInfo nested = ComponentInfo::composite(
        "outer",
        {honestTree(), ComponentInfo::composite(
                           "inner", {ComponentInfo::reg("meta", 3)})});
    EXPECT_EQ(nested.totalBits(), 1024u * 2 + 17 + 3);
}

TEST(ComponentInfo, EmptyCompositeIsZeroCost)
{
    EXPECT_EQ(ComponentInfo::composite("static", {}).totalBits(), 0u);
}

TEST(ComponentInfo, JsonFormCarriesGeometryAndDerivedTotal)
{
    mbp::json_t node = honestTree().toJson();
    EXPECT_EQ(node["name"].asString(), "fake");
    EXPECT_EQ(node["total_bits"].asUint(), 2065u);
    mbp::json_t &counters = node["children"][0];
    EXPECT_EQ(counters["entries"].asUint(), 1024u);
    EXPECT_EQ(counters["bits_per_entry"].asUint(), 2u);
    EXPECT_EQ(counters["total_bits"].asUint(), 2048u);
}

// ---------------------------------------------------------------------------
// Status taxonomy

TEST(AuditStatus, DeclaredTreeIsOk)
{
    FakePredictor good(honestTree());
    Entry entry = mbp::audit::auditPredictor("good", good);
    EXPECT_EQ(entry.status, Status::kOk);
    EXPECT_EQ(entry.derived_bits, 2065u);
    EXPECT_TRUE(mbp::audit::statusPasses(entry.status));
}

TEST(AuditStatus, SilentBaseClassDefaultIsUnreported)
{
    FakePredictor silent(std::nullopt);
    Entry entry = mbp::audit::auditPredictor("silent", silent);
    EXPECT_EQ(entry.status, Status::kUnreported);
    EXPECT_EQ(entry.derived_bits, 0u);
    EXPECT_FALSE(mbp::audit::statusPasses(entry.status));
}

TEST(AuditStatus, DeclaredEmptyTreeIsZeroCostNotUnreported)
{
    FakePredictor free_design(ComponentInfo::composite("static", {}));
    Entry entry = mbp::audit::auditPredictor("static", free_design);
    EXPECT_EQ(entry.status, Status::kZeroCost);
    EXPECT_TRUE(mbp::audit::statusPasses(entry.status));
}

TEST(AuditStatus, NamesAreStable)
{
    EXPECT_STREQ(mbp::audit::statusName(Status::kOk), "ok");
    EXPECT_STREQ(mbp::audit::statusName(Status::kZeroCost), "zero-cost");
    EXPECT_STREQ(mbp::audit::statusName(Status::kUnreported), "unreported");
}

// ---------------------------------------------------------------------------
// Report document

TEST(AuditReport, CountsFailuresAndEmbedsComponents)
{
    FakePredictor good(honestTree());
    FakePredictor silent(std::nullopt);
    std::vector<Entry> entries = {
        mbp::audit::auditPredictor("good", good),
        mbp::audit::auditPredictor("silent", silent)};
    EXPECT_FALSE(mbp::audit::clean(entries));

    mbp::json_t document = mbp::audit::report(entries, {});
    EXPECT_EQ(document["metadata"]["tool"].asString(), "mbp_audit");
    EXPECT_EQ(document["metadata"]["num_predictors"].asUint(), 2u);
    EXPECT_EQ(document["summary"]["ok"].asUint(), 1u);
    EXPECT_EQ(document["summary"]["unreported"].asUint(), 1u);
    EXPECT_EQ(document["summary"]["failures"].asUint(), 1u);
    EXPECT_TRUE(document["predictors"][0].find("components") != nullptr);
    // The row carries the tree's total once.
    EXPECT_EQ(document["predictors"][0]["derived_bits"].asUint(), 2065u);
    EXPECT_TRUE(document["predictors"][0].find("declared_bits") == nullptr);
}

TEST(AuditReport, UnreportedDerivedBitsIsJsonNullNotZero)
{
    // The report must distinguish "never told us" (null) from "told us
    // it costs nothing" (0).
    FakePredictor silent(std::nullopt);
    FakePredictor free_design(ComponentInfo::composite("static", {}));
    mbp::json_t document = mbp::audit::report(
        {mbp::audit::auditPredictor("silent", silent),
         mbp::audit::auditPredictor("static", free_design)});
    EXPECT_TRUE(document["predictors"][0]["derived_bits"].isNull());
    EXPECT_FALSE(document["predictors"][1]["derived_bits"].isNull());
    EXPECT_EQ(document["predictors"][1]["derived_bits"].asUint(), 0u);
}

TEST(AuditReport, NoComponentsOptionOmitsTrees)
{
    FakePredictor good(honestTree());
    mbp::audit::Options options;
    options.include_components = false;
    mbp::json_t document = mbp::audit::report(
        {mbp::audit::auditPredictor("good", good)}, options);
    EXPECT_TRUE(document["predictors"][0].find("components") == nullptr);
}

TEST(AuditReport, BudgetGateFlagsOversizedPredictors)
{
    FakePredictor big(honestTree());
    FakePredictor small(ComponentInfo::reg("history", 17));
    mbp::audit::Options options;
    options.budget_bits = 1024;
    mbp::json_t document = mbp::audit::report(
        {mbp::audit::auditPredictor("big", big),
         mbp::audit::auditPredictor("small", small)},
        options);
    EXPECT_EQ(document["metadata"]["budget_bits"].asUint(), 1024u);
    EXPECT_TRUE(document["predictors"][0]["over_budget"].asBool());
    EXPECT_FALSE(document["predictors"][1]["over_budget"].asBool());
    EXPECT_EQ(document["summary"]["over_budget"].asUint(), 1u);
}

TEST(AuditReport, TableRendersEveryPredictorRow)
{
    FakePredictor good(honestTree());
    FakePredictor silent(std::nullopt);
    mbp::json_t document = mbp::audit::report(
        {mbp::audit::auditPredictor("good", good),
         mbp::audit::auditPredictor("silent", silent)});
    std::string table = mbp::audit::renderTable(document);
    EXPECT_NE(table.find("good"), std::string::npos) << table;
    EXPECT_NE(table.find("silent"), std::string::npos) << table;
    EXPECT_NE(table.find("unreported"), std::string::npos) << table;
}

// ---------------------------------------------------------------------------
// The roster itself

TEST(AuditRoster, EveryRosterPredictorPassesTheAudit)
{
    std::vector<Entry> entries = mbp::audit::auditRoster();
    EXPECT_EQ(entries.size(), mbp::pred::rosterNames().size());
    for (const Entry &entry : entries)
        EXPECT_TRUE(mbp::audit::statusPasses(entry.status))
            << entry.name << ": " << mbp::audit::statusName(entry.status);
    EXPECT_TRUE(mbp::audit::clean(entries));
}

TEST(AuditRoster, SubsetAuditKeepsRequestedOrder)
{
    std::vector<Entry> entries =
        mbp::audit::auditByNames({"tage", "bimodal"});
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].name, "tage");
    EXPECT_EQ(entries[1].name, "bimodal");
    EXPECT_TRUE(mbp::audit::clean(entries));
}

} // namespace
