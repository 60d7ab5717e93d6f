/**
 * @file
 * Unit tests for the consistency-policy table: issue gates and hints.
 */

#include <gtest/gtest.h>

#include "consistency/policy.hh"

namespace wo {
namespace {

ProcState
st(int not_gp, int sync_nc, int sync_ngp)
{
    ProcState s;
    s.notGloballyPerformed = not_gp;
    s.syncsNotCommitted = sync_nc;
    s.syncsNotGloballyPerformed = sync_ngp;
    return s;
}

/** May @p k issue an access of kind @p a given @p s? */
bool
issues(PolicyKind k, AccessKind a, const ProcState &s)
{
    return !policyOf(k).block(a, s).has_value();
}

TEST(Policies, TableHasOneRowPerKind)
{
    for (PolicyKind k : {PolicyKind::Sc, PolicyKind::Def1,
                         PolicyKind::Def2Drf0, PolicyKind::Def2Drf1,
                         PolicyKind::Relaxed}) {
        const ConsistencyPolicy &p = policyOf(k);
        EXPECT_EQ(p.kind, k);
        EXPECT_EQ(toString(k), p.name);
        EXPECT_EQ(parsePolicyKind(cliName(k)), k) << p.cli;
    }
    EXPECT_EQ(parsePolicyKind("SC"), std::nullopt);
    EXPECT_EQ(parsePolicyKind(""), std::nullopt);
}

TEST(Policies, ScGatesOnAnythingOutstanding)
{
    const PolicyKind k = PolicyKind::Sc;
    EXPECT_TRUE(issues(k, AccessKind::DataRead, st(0, 0, 0)));
    EXPECT_FALSE(issues(k, AccessKind::DataRead, st(1, 0, 0)));
    EXPECT_FALSE(issues(k, AccessKind::SyncRmw, st(1, 0, 0)));
    EXPECT_EQ(policyOf(k).block(AccessKind::DataRead, st(1, 0, 0)),
              StallReason::CounterNonzero);
    EXPECT_FALSE(policyOf(k).requiresCache);
    EXPECT_FALSE(policyOf(k).allowWriteBuffer);
}

TEST(Policies, Def1GatesSyncsOnAllGpAndDataOnSyncGp)
{
    const PolicyKind k = PolicyKind::Def1;
    // Data ops overlap freely while only data is pending.
    EXPECT_TRUE(issues(k, AccessKind::DataWrite, st(3, 0, 0)));
    // ... but not past a non-GP sync (condition 3).
    EXPECT_FALSE(issues(k, AccessKind::DataWrite, st(1, 0, 1)));
    // Syncs wait for everything (condition 2).
    EXPECT_FALSE(issues(k, AccessKind::SyncWrite, st(1, 0, 0)));
    EXPECT_TRUE(issues(k, AccessKind::SyncWrite, st(0, 0, 0)));
    // A committed-but-not-GP sync still blocks both.
    EXPECT_FALSE(issues(k, AccessKind::SyncRmw, st(1, 0, 1)));
    EXPECT_EQ(policyOf(k).block(AccessKind::SyncRmw, st(1, 0, 1)),
              StallReason::CounterNonzero);
}

TEST(Policies, Def2GatesOnlyOnUncommittedSyncs)
{
    for (PolicyKind k : {PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        // Pending data never blocks issue (condition 4 only).
        EXPECT_TRUE(issues(k, AccessKind::DataWrite, st(5, 0, 0)));
        EXPECT_TRUE(issues(k, AccessKind::SyncRmw, st(5, 0, 0)));
        // A non-GP but committed sync does not block...
        EXPECT_TRUE(issues(k, AccessKind::DataRead, st(1, 0, 1)));
        // ... an uncommitted sync blocks everything, and the wait is
        // attributed to the reserve-bit machinery.
        EXPECT_FALSE(issues(k, AccessKind::DataRead, st(1, 1, 1)));
        EXPECT_FALSE(issues(k, AccessKind::SyncWrite, st(1, 1, 1)));
        EXPECT_EQ(policyOf(k).block(AccessKind::SyncWrite, st(1, 1, 1)),
                  StallReason::ReserveBit);
        EXPECT_TRUE(policyOf(k).requiresCache);
        EXPECT_TRUE(policyOf(k).useReserveBits);
    }
}

TEST(Policies, Drf0AndDrf1DifferOnlyInSyncReadTreatment)
{
    EXPECT_TRUE(policyOf(PolicyKind::Def2Drf0).syncReadsAsWrites);
    EXPECT_FALSE(policyOf(PolicyKind::Def2Drf1).syncReadsAsWrites);
}

TEST(Policies, ScPromiseFollowsTheDefinition2Contract)
{
    // SC promises SC results for every program, the weakly ordered
    // policies exactly for DRF0 programs, Relaxed for none.
    EXPECT_TRUE(policyOf(PolicyKind::Sc).promisesSc(false));
    for (PolicyKind k : {PolicyKind::Def1, PolicyKind::Def2Drf0,
                         PolicyKind::Def2Drf1}) {
        EXPECT_TRUE(policyOf(k).promisesSc(true)) << toString(k);
        EXPECT_FALSE(policyOf(k).promisesSc(false)) << toString(k);
    }
    EXPECT_FALSE(policyOf(PolicyKind::Relaxed).promisesSc(true));
}

TEST(Policies, RelaxedGatesNothing)
{
    const PolicyKind k = PolicyKind::Relaxed;
    EXPECT_TRUE(issues(k, AccessKind::DataRead, st(9, 3, 3)));
    EXPECT_TRUE(issues(k, AccessKind::SyncRmw, st(9, 3, 3)));
    EXPECT_TRUE(policyOf(k).allowWriteBuffer);
    EXPECT_FALSE(policyOf(k).useReserveBits);
}

} // namespace
} // namespace wo
