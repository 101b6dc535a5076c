/** @file Unit tests for the RingQueue FIFO behind links and VCs. */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "common/ring_queue.hh"

using namespace cais;

TEST(RingQueue, FifoOrderAcrossWrapAround)
{
    RingQueue<int> q;
    std::deque<int> ref;
    int next = 0;
    // Stay below the first capacity so the indices wrap many times
    // without growing.
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 5; ++i) {
            q.push_back(next);
            ref.push_back(next++);
        }
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        while (q.size() > 3) {
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.back(), ref.back());
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(q[i], ref[i]);
}

TEST(RingQueue, GrowsWhileWrapped)
{
    RingQueue<int> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(i);
    for (int i = 0; i < 6; ++i)
        q.pop_front();
    // Head sits near the end of the buffer; fill past capacity so
    // growth has to unwrap [6, 7, 8, ...] into the new buffer.
    for (int i = 8; i < 40; ++i)
        q.push_back(i);
    ASSERT_EQ(q.size(), 34u);
    for (int want = 6; want < 40; ++want) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front(), want);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, NonTriviallyCopyableElements)
{
    auto live = std::make_shared<int>(0);
    {
        RingQueue<std::shared_ptr<int>> q;
        for (int i = 0; i < 20; ++i)
            q.push_back(live);
        EXPECT_EQ(live.use_count(), 21);
        for (int i = 0; i < 15; ++i)
            q.pop_front();
        EXPECT_EQ(live.use_count(), 6);
        RingQueue<std::shared_ptr<int>> copy(q);
        EXPECT_EQ(live.use_count(), 11);
        RingQueue<std::shared_ptr<int>> moved(std::move(q));
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(live.use_count(), 11);
    }
    // Destruction released every element exactly once.
    EXPECT_EQ(live.use_count(), 1);

    RingQueue<std::string> s;
    for (int i = 0; i < 30; ++i)
        s.emplace_back(40, static_cast<char>('a' + i % 26));
    for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(s.front(),
                  std::string(40, static_cast<char>('a' + i % 26)));
        s.pop_front();
    }
}
