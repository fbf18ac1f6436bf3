#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bounded_queue.h"
#include "util/csv.h"
#include "util/text_table.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

TEST(CsvTest, EscapePlainFieldUnchanged) { EXPECT_EQ(CsvEscape("hello"), "hello"); }

TEST(CsvTest, EscapeCommaQuotes) { EXPECT_EQ(CsvEscape("a,b"), "\"a,b\""); }

TEST(CsvTest, EscapeEmbeddedQuote) { EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\""); }

TEST(CsvTest, EscapeNewline) { EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\""); }

TEST(CsvTest, WritesRowsToFile) {
  const std::string path = "/tmp/unicorn_csv_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"x", "y"});
    writer.WriteNumericRow({1.5, 2.25});
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1.5,2.25");
  std::remove(path.c_str());
}

TEST(CsvTest, ReaderRoundTripsWriterOutput) {
  const std::string path = "/tmp/unicorn_csv_roundtrip_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"plain", "with,comma", "with \"quote\"", "multi\nline"});
    writer.WriteNumericRow({0.1, -2.5e-17, 3.0}, 17);
  }
  CsvReader reader(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> row;
  ASSERT_TRUE(reader.ReadRow(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"plain", "with,comma", "with \"quote\"",
                                           "multi\nline"}));
  ASSERT_TRUE(reader.ReadRow(&row));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(std::stod(row[0]), 0.1);  // 17 digits round-trip bit-exactly
  EXPECT_EQ(std::stod(row[1]), -2.5e-17);
  EXPECT_FALSE(reader.ReadRow(&row));
  std::remove(path.c_str());
}

TEST(CsvTest, SplitHandlesEmptyAndQuotedFields) {
  EXPECT_EQ(CsvSplit("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(CsvSplit("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(CsvSplit(""), (std::vector<std::string>{""}));
}

TEST(BoundedQueueTest, FifoOrderAndTryPop) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  int value = 0;
  EXPECT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 2);
  EXPECT_FALSE(queue.TryPop(&value));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPopped) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    queue.Push(3);  // must block until the consumer makes room
    third_pushed = true;
  });
  EXPECT_FALSE(third_pushed.load());
  int value = 0;
  ASSERT_TRUE(queue.Pop(&value));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, ForcePushExceedsCapacity) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.ForcePush(2));  // beyond the bound, without blocking
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenFails) {
  BoundedQueue<int> queue(4);
  queue.Push(7);
  queue.Close();
  EXPECT_FALSE(queue.Push(8));
  EXPECT_FALSE(queue.ForcePush(9));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));  // drains what was queued before the close
  EXPECT_EQ(value, 7);
  EXPECT_FALSE(queue.Pop(&value));
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(2);
  std::thread consumer([&] {
    int value = 0;
    EXPECT_FALSE(queue.Pop(&value));  // blocked empty, then closed
  });
  queue.Close();
  consumer.join();
}

TEST(BoundedQueueTest, DrainNowEmptiesTheQueue) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    queue.Push(i);
  }
  const std::vector<int> drained = queue.DrainNow();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, PopForTimesOutThenDelivers) {
  BoundedQueue<int> queue(4);
  int value = 0;
  // Nothing queued: the timed pop returns false after the timeout.
  EXPECT_FALSE(queue.PopFor(&value, std::chrono::milliseconds(5)));
  queue.Push(41);
  EXPECT_TRUE(queue.PopFor(&value, std::chrono::milliseconds(5)));
  EXPECT_EQ(value, 41);

  // A waiting PopFor wakes on arrival, well before a generous timeout.
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Push(42);
  });
  EXPECT_TRUE(queue.PopFor(&value, std::chrono::seconds(10)));
  EXPECT_EQ(value, 42);
  producer.join();

  // Closed and drained reads as false, same as TryPop.
  queue.Close();
  EXPECT_FALSE(queue.PopFor(&value, std::chrono::milliseconds(5)));
}

TEST(TaskPoolTest, SubmitRunsTasksAndDrainWaits) {
  TaskPool::Options options;
  options.num_threads = 2;
  TaskPool pool(options);
  EXPECT_EQ(pool.num_threads(), 2);

  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 16);

  // Drain on an idle pool returns immediately; the pool is reusable after.
  pool.Drain();
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(ran.load(), 17);
}

// Priority is shortest-job-first dispatch order for queued tasks: with the
// single worker held busy, the high-priority submission overtakes earlier
// low-priority ones, and equal priorities keep submission (FIFO) order.
TEST(TaskPoolTest, HigherPriorityOvertakesQueueFifoOnTies) {
  TaskPool::Options options;
  options.num_threads = 1;
  TaskPool pool(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  pool.Submit([&] {  // occupies the lone worker until every task is queued
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  pool.Submit([&, id = 1] { record(id); }, /*priority=*/-10);
  pool.Submit([&, id = 2] { record(id); }, /*priority=*/-10);
  pool.Submit([&, id = 3] { record(id); }, /*priority=*/0);
  pool.Submit([&, id = 4] { record(id); }, /*priority=*/-10);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  pool.Drain();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 4}));
}

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "2"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(TextTableTest, NumericRowFormatting) {
  TextTable table({"label", "a", "b"});
  table.AddRow("row", {1.234, 5.678}, 1);
  const std::string out = table.Render();
  EXPECT_NE(out.find("1.2"), std::string::npos);
  EXPECT_NE(out.find("5.7"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NE(table.Render().find("only"), std::string::npos);
}

TEST(TextTableTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace unicorn
