/**
 * @file
 * Unit tests for the generic set-associative LRU table that backs the
 * prediction tables (32-entry 4-way in the paper): lookup, LRU
 * replacement, the fault-victim choice and the slot codec.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assoc_table.hh"
#include "common/state_io.hh"

using namespace tpcp;

using Table = AssocTable<std::uint64_t, int>;

TEST(AssocTable, Geometry)
{
    Table t(8, 4);
    EXPECT_EQ(t.numSets(), 8u);
    EXPECT_EQ(t.capacity(), 32u);
    EXPECT_EQ(t.size(), 0u);
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        t.insert(7, tag, 0);
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        EXPECT_NE(t.find(7, tag), nullptr) << "4 ways hold 4 tags";
}

TEST(AssocTable, InsertAndFind)
{
    Table t(2, 2);
    t.insert(0, 100, 7);
    auto *e = t.find(0, 100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, 7);
    EXPECT_EQ(t.find(0, 101), nullptr);
    EXPECT_EQ(t.find(1, 100), nullptr) << "sets are independent";
}

TEST(AssocTable, LruEvictionOrder)
{
    Table t(1, 2);
    t.insert(0, 1, 10);
    t.insert(0, 2, 20);
    // Touch tag 1 so tag 2 becomes LRU.
    t.touch(*t.find(0, 1));
    t.insert(0, 3, 30);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_NE(t.find(0, 1), nullptr);
    EXPECT_EQ(t.find(0, 2), nullptr);
    EXPECT_NE(t.find(0, 3), nullptr);
}

TEST(AssocTable, InsertPrefersInvalidSlots)
{
    Table t(1, 3);
    t.insert(0, 1, 1);
    t.insert(0, 2, 2);
    t.erase(*t.find(0, 1));
    t.insert(0, 3, 3);
    t.insert(0, 4, 4);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_NE(t.find(0, 2), nullptr) << "room left, nothing evicted";
    EXPECT_NE(t.find(0, 3), nullptr);
    EXPECT_NE(t.find(0, 4), nullptr);
}

TEST(AssocTable, EraseInvalidates)
{
    Table t(1, 2);
    t.insert(0, 5, 50);
    t.erase(*t.find(0, 5));
    EXPECT_EQ(t.find(0, 5), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(AssocTable, NthValidSkipsInvalidSlotsInSlotOrder)
{
    Table t(2, 2);
    t.insert(0, 1, 1);
    t.insert(0, 2, 2);
    t.insert(1, 3, 3);
    t.insert(1, 4, 4);
    t.erase(*t.find(0, 2));
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.nthValid(0).tag, 1u);
    EXPECT_EQ(t.nthValid(1).tag, 3u) << "the erased slot is skipped";
    EXPECT_EQ(t.nthValid(2).tag, 4u);
}

TEST(AssocTable, SlotCodecRoundTripsEverySlot)
{
    Table t(2, 2);
    t.insert(0, 1, 10);
    t.insert(0, 9, 90);
    t.erase(*t.find(0, 9));
    t.insert(1, 2, 20);
    t.insert(1, 3, 30);
    t.touch(*t.find(1, 2)); // tag 3 is now set 1's LRU entry
    auto save = [](const Table &table) {
        StateWriter w;
        table.save(w, [&](int v) {
            w.u32(static_cast<std::uint32_t>(v));
        });
        return w.buffer();
    };
    const std::vector<std::uint8_t> bytes = save(t);
    // Four slots of valid, tag, use tick and payload, then the tick.
    EXPECT_EQ(bytes.size(), 4 * (1 + 8 + 8 + 4) + 8u);

    Table back(2, 2);
    StateReader r(bytes);
    back.load(r, [&](int &v) { v = static_cast<int>(r.u32()); });
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(save(back), bytes);
    EXPECT_EQ(back.find(0, 9), nullptr) << "erased stays erased";
    ASSERT_NE(back.find(0, 1), nullptr);
    EXPECT_EQ(back.find(0, 1)->value, 10);
    // The restored use ticks keep set 1's LRU order.
    back.insert(1, 6, 60);
    EXPECT_EQ(back.find(1, 3), nullptr);
    ASSERT_NE(back.find(1, 2), nullptr);
    EXPECT_EQ(back.find(1, 2)->value, 20);
}

TEST(AssocTable, ReinsertSameTagOverwrites)
{
    // Inserting an existing tag writes a second entry only if the
    // caller did not find-and-update; verify the table still
    // resolves to some entry with that tag and stays within
    // capacity.
    Table t(1, 2);
    t.insert(0, 7, 1);
    t.insert(0, 7, 2);
    EXPECT_LE(t.size(), 2u);
    ASSERT_NE(t.find(0, 7), nullptr);
}

TEST(AssocTable, FullyAssociativeAsOneSet)
{
    // The signature table shape: 1 set x 32 ways.
    Table t(1, 32);
    for (std::uint64_t i = 0; i < 32; ++i)
        t.insert(0, i, static_cast<int>(i));
    EXPECT_EQ(t.size(), 32u);
    t.insert(0, 99, 99);
    EXPECT_EQ(t.size(), 32u) << "capacity stays fixed";
    EXPECT_EQ(t.find(0, 0), nullptr) << "tag 0 was LRU";
}
