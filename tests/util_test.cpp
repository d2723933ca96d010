// Unit tests for the util module: endian helpers, alignment/unit math,
// deterministic RNG, virtual clock, fixed_vector and hexdump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/alignment.h"
#include "util/endian.h"
#include "util/fixed_vector.h"
#include "util/ring_queue.h"
#include "util/hexdump.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace ilp {
namespace {

TEST(Endian, Be16RoundTrip) {
    std::byte buf[2];
    store_be16(buf, 0xbeef);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0xbe);
    EXPECT_EQ(std::to_integer<int>(buf[1]), 0xef);
    EXPECT_EQ(load_be16(buf), 0xbeef);
}

TEST(Endian, Be32RoundTrip) {
    std::byte buf[4];
    store_be32(buf, 0x01020304u);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0x01);
    EXPECT_EQ(std::to_integer<int>(buf[3]), 0x04);
    EXPECT_EQ(load_be32(buf), 0x01020304u);
}

TEST(Endian, Be64RoundTrip) {
    std::byte buf[8];
    store_be64(buf, 0x0102030405060708ull);
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0x01);
    EXPECT_EQ(std::to_integer<int>(buf[7]), 0x08);
    EXPECT_EQ(load_be64(buf), 0x0102030405060708ull);
}

TEST(Endian, ByteswapInvolution) {
    EXPECT_EQ(byteswap32(byteswap32(0xdeadbeefu)), 0xdeadbeefu);
    EXPECT_EQ(byteswap16(byteswap16(0x1234)), 0x1234);
    EXPECT_EQ(byteswap64(byteswap64(0x123456789abcdef0ull)),
              0x123456789abcdef0ull);
    EXPECT_EQ(byteswap32(0x01020304u), 0x04030201u);
}

TEST(Endian, HostToBeMatchesStore) {
    // host_to_be32 must produce the same byte image store_be32 writes.
    const std::uint32_t v = 0xcafef00du;
    std::byte via_store[4];
    store_be32(via_store, v);
    const std::uint32_t converted = host_to_be32(v);
    std::byte via_memcpy[4];
    std::memcpy(via_memcpy, &converted, 4);
    EXPECT_EQ(std::memcmp(via_store, via_memcpy, 4), 0);
}

TEST(Alignment, AlignUpDown) {
    EXPECT_EQ(align_up(0, 8), 0u);
    EXPECT_EQ(align_up(1, 8), 8u);
    EXPECT_EQ(align_up(8, 8), 8u);
    EXPECT_EQ(align_up(9, 8), 16u);
    EXPECT_EQ(align_down(15, 8), 8u);
    EXPECT_EQ(align_down(16, 8), 16u);
    EXPECT_TRUE(is_aligned(24, 8));
    EXPECT_FALSE(is_aligned(25, 8));
    EXPECT_EQ(padding_for(13, 8), 3u);
    EXPECT_EQ(padding_for(16, 8), 0u);
}

TEST(Alignment, ExchangeUnitLcm) {
    // The paper's examples: encryption 8, checksum 2 -> exchange in 8s.
    EXPECT_EQ(exchange_unit(8, 2), 8u);
    EXPECT_EQ(exchange_unit(4, 8), 8u);
    EXPECT_EQ(exchange_unit(4, 6), 12u);
    // Folding in the system parameter Ls.
    EXPECT_EQ(exchange_unit(4, 2, 8), 8u);
    EXPECT_EQ(exchange_unit_of(4, 8, 2), 8u);
    EXPECT_EQ(exchange_unit_of(), 1u);
    EXPECT_EQ(exchange_unit_of(3, 5), 15u);
}

TEST(Rng, Deterministic) {
    rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.next_u64(), b.next_u64());
    rng a2(42);
    EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, BelowBound) {
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.next_below(17), 17u);
    }
    // All residues eventually hit.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, FillCoversWholeSpan) {
    rng r(9);
    std::byte buf[37];
    std::memset(buf, 0, sizeof buf);
    r.fill(buf);
    int nonzero = 0;
    for (const auto b : buf) nonzero += b != std::byte{0};
    EXPECT_GT(nonzero, 20);  // overwhelmingly likely for random bytes
}

TEST(Rng, DoubleInUnitInterval) {
    rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(VirtualClock, FiresInDeadlineOrder) {
    virtual_clock clock;
    std::vector<int> order;
    clock.schedule_at(30, [&] { order.push_back(3); });
    clock.schedule_at(10, [&] { order.push_back(1); });
    clock.schedule_at(20, [&] { order.push_back(2); });
    clock.advance(25);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(clock.now(), 25u);
    clock.advance(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClock, CancelPreventsFiring) {
    virtual_clock clock;
    int fired = 0;
    const auto token = clock.schedule_at(5, [&] { ++fired; });
    EXPECT_TRUE(clock.cancel(token));
    EXPECT_FALSE(clock.cancel(token));  // already cancelled
    clock.advance(10);
    EXPECT_EQ(fired, 0);
}

TEST(VirtualClock, TimerSchedulingTimer) {
    virtual_clock clock;
    std::vector<sim_time> fire_times;
    clock.schedule_at(10, [&] {
        fire_times.push_back(clock.now());
        clock.schedule_after(5, [&] { fire_times.push_back(clock.now()); });
    });
    clock.advance(100);
    ASSERT_EQ(fire_times.size(), 2u);
    EXPECT_EQ(fire_times[0], 10u);
    EXPECT_EQ(fire_times[1], 15u);
}

TEST(VirtualClock, SameDeadlineFiresInScheduleOrder) {
    virtual_clock clock;
    std::vector<int> order;
    clock.schedule_at(10, [&] { order.push_back(1); });
    clock.schedule_at(10, [&] { order.push_back(2); });
    clock.advance(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualClock, PendingTimerCount) {
    virtual_clock clock;
    EXPECT_EQ(clock.pending_timers(), 0u);
    clock.schedule_at(10, [] {});
    clock.schedule_at(20, [] {});
    EXPECT_EQ(clock.pending_timers(), 2u);
    clock.advance(15);
    EXPECT_EQ(clock.pending_timers(), 1u);
}

// The linear-scan clock the heap replaced: every advance step scans all
// timers for the earliest (deadline, token).  Kept as the reference the
// differential test below holds virtual_clock to.
class reference_clock {
public:
    sim_time now() const { return now_; }
    void advance_to(sim_time target) {
        for (;;) {
            timer* next = nullptr;
            for (timer& t : timers_) {
                if (t.cancelled || t.deadline > target) continue;
                if (next == nullptr || t.deadline < next->deadline ||
                    (t.deadline == next->deadline && t.token < next->token)) {
                    next = &t;
                }
            }
            if (next == nullptr) break;
            now_ = std::max(now_, next->deadline);
            const auto fn = std::move(next->fn);
            next->cancelled = true;
            fn();
        }
        now_ = target;
        std::erase_if(timers_, [](const timer& t) { return t.cancelled; });
    }
    void advance(sim_time delta) { advance_to(now_ + delta); }
    std::uint64_t schedule_at(sim_time deadline, std::function<void()> fn) {
        timers_.push_back(timer{deadline, next_token_, std::move(fn)});
        return next_token_++;
    }
    bool cancel(std::uint64_t token) {
        for (timer& t : timers_) {
            if (t.token == token && !t.cancelled) return t.cancelled = true;
        }
        return false;
    }
    std::size_t pending_timers() const {
        return static_cast<std::size_t>(std::count_if(
            timers_.begin(), timers_.end(),
            [](const timer& t) { return !t.cancelled; }));
    }

private:
    struct timer {
        sim_time deadline;
        std::uint64_t token;
        std::function<void()> fn;
        bool cancelled = false;
    };
    sim_time now_ = 0;
    std::uint64_t next_token_ = 1;
    std::vector<timer> timers_;
};

// What a timer's callback does when it fires.  Drawn once by the test
// and handed to both clocks, so their callbacks act alike.
struct timer_plan {
    enum kind_t { nothing, schedule_soon, schedule_past, cancel_other } kind;
    std::uint64_t pick;  // child deadline offset / cancel victim / child plan
    int depth;           // how many generations of children may follow
};

timer_plan draw_plan(rng& r, int depth) {
    const auto kind = depth > 0 ? static_cast<timer_plan::kind_t>(
                                      r.next_below(4))
                                : timer_plan::nothing;
    return timer_plan{kind, r.next_u64(), depth};
}

// Drives one clock and records what an observer can see of it: each
// firing with now() inside the callback, and each cancel() verdict.
// Timers are named by the order they were scheduled in, so the two
// clocks' records compare directly even though their tokens differ.
template <typename Clock>
struct clock_harness {
    Clock clock;
    std::vector<std::uint64_t> tokens;  // by timer id
    std::vector<std::pair<std::size_t, sim_time>> fired;
    std::vector<bool> cancel_verdicts;

    void schedule(sim_time deadline, timer_plan plan) {
        const std::size_t id = tokens.size();
        tokens.push_back(0);
        tokens[id] = clock.schedule_at(deadline, [this, id, plan] {
            fired.emplace_back(id, clock.now());
            rng r(plan.pick);
            const sim_time now = clock.now();
            switch (plan.kind) {
                case timer_plan::nothing:
                    break;
                case timer_plan::schedule_soon:  // offset 0: same instant
                    schedule(now + r.next_below(3),
                             draw_plan(r, plan.depth - 1));
                    break;
                case timer_plan::schedule_past:
                    schedule(now - std::min<sim_time>(now, r.next_below(8)),
                             draw_plan(r, plan.depth - 1));
                    break;
                case timer_plan::cancel_other:  // may be itself: false
                    cancel(r.next_below(tokens.size()));
                    break;
            }
        });
    }
    void cancel(std::size_t id) {
        cancel_verdicts.push_back(clock.cancel(tokens[id]));
    }
};

TEST(VirtualClock, MatchesTheLinearScanReference) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        rng r(seed);
        clock_harness<virtual_clock> heap;
        clock_harness<reference_clock> ref;
        for (int step = 0; step < 10000; ++step) {
            const sim_time now = ref.clock.now();
            switch (r.next_below(8)) {
                case 0:
                case 1:
                case 2: {  // narrow deadlines: many ties; some in the past
                    const sim_time deadline =
                        r.next_below(8) == 0
                            ? now - std::min<sim_time>(now, r.next_below(10))
                            : now + r.next_below(12);
                    const timer_plan plan = draw_plan(r, 2);
                    heap.schedule(deadline, plan);
                    ref.schedule(deadline, plan);
                    break;
                }
                case 3:
                case 4: {  // live, fired or already cancelled
                    const std::size_t n = ref.tokens.size();
                    if (n == 0) break;
                    // Recent timers are mostly live; older ones mostly not.
                    const std::size_t id =
                        r.next_bool(0.5)
                            ? n - 1 - r.next_below(std::min<std::size_t>(n, 16))
                            : r.next_below(n);
                    heap.cancel(id);
                    ref.cancel(id);
                    break;
                }
                case 5:
                case 6: {
                    const sim_time delta = r.next_below(6);
                    heap.clock.advance(delta);
                    ref.clock.advance(delta);
                    break;
                }
                case 7: {
                    const sim_time target = now + r.next_below(6);
                    heap.clock.advance_to(target);
                    ref.clock.advance_to(target);
                    break;
                }
            }
            ASSERT_EQ(heap.fired, ref.fired) << "step " << step;
            ASSERT_EQ(heap.cancel_verdicts, ref.cancel_verdicts)
                << "step " << step;
            ASSERT_EQ(heap.clock.now(), ref.clock.now()) << "step " << step;
            ASSERT_EQ(heap.clock.pending_timers(), ref.clock.pending_timers())
                << "step " << step;
        }
        // The mix fired timers and cancelled both live and dead ones.
        const auto& verdicts = ref.cancel_verdicts;
        EXPECT_GT(ref.fired.size(), 1000u);
        EXPECT_GT(std::count(verdicts.begin(), verdicts.end(), true), 100);
        EXPECT_GT(std::count(verdicts.begin(), verdicts.end(), false), 100);
    }
}

// A cancelled timer's callback is released at once, not when its deadline
// would have passed.
TEST(VirtualClock, CancelReleasesTheCallback) {
    virtual_clock clock;
    auto held = std::make_shared<int>(0);
    const auto token = clock.schedule_at(1000, [held] { ++*held; });
    EXPECT_EQ(held.use_count(), 2);
    EXPECT_TRUE(clock.cancel(token));
    EXPECT_EQ(held.use_count(), 1);
    EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClockDeath, RewindViolatesMonotonicityContract) {
    virtual_clock clock;
    clock.advance(100);
    EXPECT_DEATH(clock.advance_to(50), "deadline_us >= now_us_");
}

TEST(VirtualClockDeath, OverflowingAdvanceAborts) {
    virtual_clock clock;
    clock.advance(100);
    EXPECT_DEATH(clock.advance(~sim_time{0}), "delta_us <=");
}

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json::parse("null")->is_null());
    EXPECT_TRUE(json::parse("true")->as_bool());
    EXPECT_FALSE(json::parse("false")->as_bool(true));
    EXPECT_DOUBLE_EQ(json::parse("-12.5e2")->as_number(), -1250.0);
    EXPECT_EQ(*json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
    const auto doc = json::parse(
        R"({"bench": "fig08", "metrics": [{"name": "a", "value": 1.5}],)"
        R"( "ok": true})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->string_at("bench"), "fig08");
    EXPECT_TRUE(doc->find("ok")->as_bool());
    const json::array* metrics = doc->find("metrics")->as_array();
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->size(), 1u);
    EXPECT_EQ((*metrics)[0].string_at("name"), "a");
    EXPECT_DOUBLE_EQ((*metrics)[0].number_at("value"), 1.5);
}

TEST(Json, DecodesStringEscapes) {
    const auto doc = json::parse(R"("a\"b\\c\ndA\u00e9")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(*doc->as_string(), "a\"b\\c\nd"
                                 "A\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_FALSE(json::parse("").has_value());
    EXPECT_FALSE(json::parse("{").has_value());
    EXPECT_FALSE(json::parse("[1,]").has_value());
    EXPECT_FALSE(json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(json::parse("12 garbage").has_value());
    EXPECT_FALSE(json::parse("\"unterminated").has_value());
    std::string deep;
    for (int i = 0; i < 100; ++i) deep += "[";
    EXPECT_FALSE(json::parse(deep).has_value());  // depth limit
}

TEST(Json, RejectsRawControlCharactersInStrings) {
    // RFC 8259: a string holds no unescaped byte below 0x20.
    EXPECT_FALSE(json::parse("\"line\nbreak\"").has_value());
    EXPECT_FALSE(json::parse("\"tab\there\"").has_value());
    EXPECT_FALSE(json::parse("{\"k\x01\": 1}").has_value());
    EXPECT_EQ(*json::parse(R"("tab\there")")->as_string(), "tab\there");
}

TEST(JsonWriter, EscapedStringsRoundTrip) {
    const std::string nasty = "q\" b\\ n\n t\t c\x01 times\xc3\x97";
    json::writer w;
    w.begin_object().key(nasty).string(nasty).end_object();
    for (const char c : w.text()) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << w.text();
    }
    const auto doc = json::parse(w.text());
    ASSERT_TRUE(doc.has_value()) << w.text();
    EXPECT_EQ(doc->string_at(nasty), nasty);
}

TEST(JsonWriter, CompactLayoutHasNoWhitespace) {
    json::writer w;
    w.begin_object();
    w.key("n").u64(18446744073709551615u);
    w.key("list").begin_array().boolean(true).string("x").number(0.5);
    w.end_array();
    w.key("empty").begin_object().end_object();
    w.key("third").number(1.0 / 3.0);
    w.end_object();
    EXPECT_EQ(w.text(),
              R"({"n":18446744073709551615,"list":[true,"x",0.5],)"
              R"("empty":{},"third":0.3333333333})");
}

TEST(JsonWriter, RecordsLayoutPutsOneRecordPerLine) {
    json::writer w(json::layout::records);
    w.begin_object();
    w.key("n").u64(2);
    w.key("meta").begin_object().key("k").string("v").end_object();
    w.key("rows").begin_array();
    w.begin_object().key("a").u64(1).key("b").begin_array().u64(1).u64(2);
    w.end_array().end_object();
    w.begin_object().key("a").u64(2).end_object();
    w.end_array();
    w.key("none").begin_array().end_array();
    // An object member of a line-broken object breaks lines too, so a
    // report nested in a larger one keeps its one-record-per-line shape.
    w.key("nested").begin_object().key("rows").begin_array();
    w.begin_object().key("x").boolean(false).end_object();
    w.end_array().end_object();
    w.end_object();
    EXPECT_EQ(w.text(),
              "{\n"
              "  \"n\": 2,\n"
              "  \"meta\": {\n"
              "    \"k\": \"v\"\n"
              "  },\n"
              "  \"rows\": [\n"
              "    {\"a\": 1, \"b\": [1, 2]},\n"
              "    {\"a\": 2}\n"
              "  ],\n"
              "  \"none\": [],\n"
              "  \"nested\": {\n"
              "    \"rows\": [\n"
              "      {\"x\": false}\n"
              "    ]\n"
              "  }\n"
              "}\n");
}

TEST(JsonWriter, WriteFileReplacesTheFile) {
    const std::string path = ::testing::TempDir() + "/json_writer_test.json";
    ASSERT_TRUE(json::write_file(path, "[1, 2, 3]"));
    ASSERT_TRUE(json::write_file(path, "{\"k\": true}"));
    const auto doc = json::parse_file(path);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("k")->as_bool());
    EXPECT_FALSE(json::write_file(path + ".missing/dir/x.json", "{}"));
    std::remove(path.c_str());
}

TEST(Json, LookupFallbacks) {
    const auto doc = json::parse(R"({"n": 3})");
    EXPECT_EQ(doc->find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(doc->number_at("missing", -1.0), -1.0);
    EXPECT_EQ(doc->string_at("n", "fallback"), "fallback");  // wrong type
    EXPECT_EQ(json::parse("[]")->find("k"), nullptr);  // not an object
}

TEST(FixedVector, PushAndIterate) {
    fixed_vector<int, 4> v;
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
    v.push_back(3);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_FALSE(v.full());
    int sum = 0;
    for (const int x : v) sum += x;
    EXPECT_EQ(sum, 6);
    EXPECT_EQ(v.back(), 3);
    v.push_back(4);
    EXPECT_TRUE(v.full());
    v.clear();
    EXPECT_TRUE(v.empty());
}

// Copies move only the live elements: the destination's slots past the
// source's size() keep what they held.
TEST(FixedVector, CopyAndAssignCopyExactlySizeElements) {
    using small = fixed_vector<int, 6>;
    static_assert(std::is_trivially_copyable_v<small::value_type>);
    static_assert(std::is_trivially_destructible_v<small::value_type>);

    small source;
    for (int x : {11, 12, 13, 14, 15, 16}) source.push_back(x);
    source.clear();
    source.push_back(1);
    source.push_back(2);  // partly filled: 2 of 6

    const small copy(source);
    ASSERT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy[0], 1);
    EXPECT_EQ(copy[1], 2);

    small target;
    for (int x : {21, 22, 23, 24, 25}) target.push_back(x);
    target = source;
    ASSERT_EQ(target.size(), 2u);
    EXPECT_EQ(target[0], 1);
    EXPECT_EQ(target[1], 2);
    // Slots 2..4 were not copied over: they still hold the old elements.
    EXPECT_EQ(target.data()[2], 23);
    EXPECT_EQ(target.data()[3], 24);
    EXPECT_EQ(target.data()[4], 25);

    target = target;  // self-assignment keeps the contents
    ASSERT_EQ(target.size(), 2u);
    EXPECT_EQ(target[1], 2);
    target.push_back(3);  // appends after the copied elements
    EXPECT_EQ(target[2], 3);
    EXPECT_EQ(source.size(), 2u);  // the source is untouched
}

TEST(RingQueue, FifoAcrossTheWrapAndGrowth) {
    ring_queue<int> q;
    int next_in = 0;
    int next_out = 0;
    // Keep 5 queued while 100 pass through: the head wraps many times.
    for (int i = 0; i < 100; ++i) {
        q.push_back(next_in++);
        if (q.size() > 5) {
            EXPECT_EQ(q.front(), next_out++);
            q.pop_front();
        }
    }
    const std::size_t steady = q.capacity();
    // Grow while the live elements straddle the wrap.
    for (int i = 0; i < 40; ++i) q.push_back(next_in++);
    EXPECT_GT(q.capacity(), steady);
    EXPECT_EQ(q.back(), next_in - 1);
    for (std::size_t i = 0; i < q.size(); ++i) {
        EXPECT_EQ(q[i], next_out + static_cast<int>(i));
    }
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, InsertKeepsTheOtherElementsInOrder) {
    ring_queue<int> q;
    for (int x : {10, 20, 30, 40, 50, 60, 70}) q.push_back(x);
    q.pop_front();
    q.pop_front();  // the head is off slot 0
    q.insert(2, 45);
    q.insert(0, 25);
    q.insert(q.size(), 80);
    const std::vector<int> expected = {25, 30, 40, 45, 50, 60, 70, 80};
    ASSERT_EQ(q.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(q[i], expected[i]);
    }
}

// Once a queue has reached its peak occupancy it never reallocates.
TEST(RingQueue, SteadyStateReusesItsStorage) {
    ring_queue<std::vector<int>> q;
    for (int i = 0; i < 16; ++i) q.push_back({});
    EXPECT_EQ(q.capacity(), 16u);
    for (int i = 0; i < 1000; ++i) {
        q.pop_front();
        q.push_back(std::vector<int>(3, i));
    }
    EXPECT_EQ(q.capacity(), 16u);
    EXPECT_EQ(q.back(), std::vector<int>(3, 999));
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 16u);
}

TEST(Hexdump, FormatsOffsetsHexAndAscii) {
    const char* text = "Hello, ILP!";
    const std::string dump =
        hexdump({reinterpret_cast<const std::byte*>(text), 11});
    EXPECT_NE(dump.find("00000000"), std::string::npos);
    EXPECT_NE(dump.find("48 65 6c 6c 6f"), std::string::npos);
    EXPECT_NE(dump.find("|Hello, ILP!|"), std::string::npos);
}

TEST(Hexdump, ToHex) {
    const std::byte data[] = {std::byte{0xde}, std::byte{0xad},
                              std::byte{0xbe}, std::byte{0xef}};
    EXPECT_EQ(to_hex(data), "deadbeef");
    EXPECT_EQ(to_hex({}), "");
}

}  // namespace
}  // namespace ilp
