// Serving-layer suite: protocol framing (round-trips, split/coalesced reads,
// oversized/malformed rejection, a seeded mutation fuzz of both decoders),
// the micro-batcher's dispatch policy, and end-to-end server contracts —
// every response bitwise identical to a quiesced single-thread fused eval
// across worker counts, plus the
// event-loop trap pins (SIGPIPE, partial writes, half-close, EINTR storms,
// oversized-frame isolation) and a pipelined multi-connection soak
// (CDCL_SOAK_REQS scales it up).

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "models/compact_transformer.h"
#include "serve/batcher.h"
#include "serve/buffer.h"
#include "serve/client.h"
#include "serve/inference.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor.h"
#include "util/env.h"
#include "util/rng.h"

namespace cdcl {
namespace {

using serve::Buffer;
using serve::FrameParser;
using serve::MessageType;
using serve::MicroBatcher;
using serve::ParseResult;
using serve::Request;
using serve::Response;
using serve::ResponseParser;
using serve::ResponseStatus;

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

TEST(BufferTest, AppendPeekRetrieve) {
  Buffer b;
  EXPECT_EQ(b.ReadableBytes(), 0u);
  const uint8_t bytes[] = {1, 2, 3, 4, 5};
  b.Append(bytes, sizeof(bytes));
  ASSERT_EQ(b.ReadableBytes(), 5u);
  EXPECT_EQ(b.Peek()[0], 1);
  b.Retrieve(2);
  ASSERT_EQ(b.ReadableBytes(), 3u);
  EXPECT_EQ(b.Peek()[0], 3);
  b.Retrieve(3);
  EXPECT_EQ(b.ReadableBytes(), 0u);
}

TEST(BufferTest, CompactionPreservesUnreadBytes) {
  Buffer b;
  std::vector<uint8_t> first(100);
  for (size_t i = 0; i < first.size(); ++i) first[i] = static_cast<uint8_t>(i);
  b.Append(first.data(), first.size());
  b.Retrieve(90);  // 10 unread bytes sit at offset 90
  // A large append must not grow past the dead prefix without keeping the
  // unread tail: EnsureWritable compacts the 10 live bytes to the front.
  std::vector<uint8_t> second(200, 0xAB);
  b.Append(second.data(), second.size());
  ASSERT_EQ(b.ReadableBytes(), 210u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(b.Peek()[i], static_cast<uint8_t>(90 + i)) << i;
  }
  EXPECT_EQ(b.Peek()[10], 0xAB);
}

TEST(BufferTest, WritePtrCommitRoundTrip) {
  Buffer b;
  uint8_t* w = b.WritePtr(4);
  w[0] = 9;
  w[1] = 8;
  b.CommitWrite(2);
  ASSERT_EQ(b.ReadableBytes(), 2u);
  EXPECT_EQ(b.Peek()[0], 9);
  EXPECT_EQ(b.Peek()[1], 8);
}

// ---------------------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------------------

Request ImageRequest(MessageType type, uint32_t id, int64_t task,
                     int64_t channels, int64_t hw, uint64_t seed) {
  Request r;
  r.type = type;
  r.request_id = id;
  r.task = task;
  r.channels = channels;
  r.height = hw;
  r.width = hw;
  Rng rng(seed);
  r.pixels.resize(static_cast<size_t>(channels * hw * hw));
  for (float& p : r.pixels) p = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return r;
}

TEST(ProtocolTest, RequestRoundTripAllTypes) {
  for (MessageType type : {MessageType::kClassifyTil, MessageType::kClassifyCil,
                           MessageType::kEncode}) {
    const Request sent = ImageRequest(type, 0xDEADBEEF, 3, 3, 4, 11);
    Buffer wire;
    AppendRequest(sent, &wire);
    Request parsed;
    FrameParser parser;
    ASSERT_EQ(parser.Next(&wire, &parsed), ParseResult::kFrame);
    EXPECT_EQ(wire.ReadableBytes(), 0u);
    EXPECT_EQ(parsed.type, type);
    EXPECT_EQ(parsed.request_id, 0xDEADBEEFu);
    EXPECT_EQ(parsed.task, 3);
    EXPECT_EQ(parsed.channels, 3);
    EXPECT_EQ(parsed.height, 4);
    EXPECT_EQ(parsed.width, 4);
    ASSERT_EQ(parsed.pixels.size(), sent.pixels.size());
    EXPECT_EQ(std::memcmp(parsed.pixels.data(), sent.pixels.data(),
                          sent.pixels.size() * sizeof(float)),
              0)
        << "pixels must survive the wire bitwise";
  }
  Request ping;
  ping.type = MessageType::kPing;
  ping.request_id = 7;
  ping.ping_payload = {0, 255, 1, 254, 77};
  Buffer wire;
  AppendRequest(ping, &wire);
  Request parsed;
  FrameParser parser;
  ASSERT_EQ(parser.Next(&wire, &parsed), ParseResult::kFrame);
  EXPECT_EQ(parsed.type, MessageType::kPing);
  EXPECT_EQ(parsed.ping_payload, ping.ping_payload);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response sent;
  sent.request_id = 42;
  sent.status = ResponseStatus::kBadTask;
  sent.type = MessageType::kClassifyCil;
  sent.version = 0xCAFE1234u;
  sent.values = {1.5f, -2.25f, 0.0f, 3e-20f};
  Buffer wire;
  AppendResponse(sent, &wire);
  Response parsed;
  ResponseParser parser;
  ASSERT_EQ(parser.Next(&wire, &parsed), ParseResult::kFrame);
  EXPECT_EQ(parsed.request_id, 42u);
  EXPECT_EQ(parsed.status, ResponseStatus::kBadTask);
  EXPECT_EQ(parsed.type, MessageType::kClassifyCil);
  EXPECT_EQ(parsed.version, 0xCAFE1234u)
      << "snapshot version must survive the wire";
  ASSERT_EQ(parsed.values.size(), sent.values.size());
  EXPECT_EQ(std::memcmp(parsed.values.data(), sent.values.data(),
                        sent.values.size() * sizeof(float)),
            0);
}

TEST(ProtocolTest, SplitReadsOneByteAtATime) {
  const Request sent = ImageRequest(MessageType::kEncode, 9, 1, 2, 3, 5);
  Buffer full;
  AppendRequest(sent, &full);
  Buffer stream;
  FrameParser parser;
  Request parsed;
  // Every prefix except the full frame must report kNeedMore.
  for (size_t i = 0; i + 1 < full.ReadableBytes(); ++i) {
    stream.Append(full.Peek() + i, 1);
    ASSERT_EQ(parser.Next(&stream, &parsed), ParseResult::kNeedMore) << i;
  }
  stream.Append(full.Peek() + full.ReadableBytes() - 1, 1);
  ASSERT_EQ(parser.Next(&stream, &parsed), ParseResult::kFrame);
  EXPECT_EQ(parsed.request_id, 9u);
  ASSERT_EQ(parsed.pixels.size(), sent.pixels.size());
}

TEST(ProtocolTest, CoalescedFramesParseInOrder) {
  Buffer stream;
  for (uint32_t id = 1; id <= 3; ++id) {
    AppendRequest(ImageRequest(MessageType::kClassifyTil, id, 0, 1, 2, id),
                  &stream);
  }
  FrameParser parser;
  Request parsed;
  for (uint32_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(parser.Next(&stream, &parsed), ParseResult::kFrame);
    EXPECT_EQ(parsed.request_id, id);
  }
  EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kNeedMore);
  EXPECT_EQ(stream.ReadableBytes(), 0u);
}

void PutU32Raw(uint32_t v, Buffer* out) {
  const uint8_t bytes[] = {
      static_cast<uint8_t>(v & 0xff), static_cast<uint8_t>((v >> 8) & 0xff),
      static_cast<uint8_t>((v >> 16) & 0xff),
      static_cast<uint8_t>((v >> 24) & 0xff)};
  out->Append(bytes, sizeof(bytes));
}

TEST(ProtocolTest, OversizedFrameRejected) {
  // A garbage length prefix must fail fast, not stall waiting for terabytes.
  Buffer stream;
  PutU32Raw(0xFFFFFFFFu, &stream);
  FrameParser parser;
  Request parsed;
  EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kError);

  Buffer small_stream;
  PutU32Raw(65, &small_stream);
  FrameParser small_parser(/*max_body_bytes=*/64);
  EXPECT_EQ(small_parser.Next(&small_stream, &parsed), ParseResult::kError);
}

TEST(ProtocolTest, MalformedFramesRejected) {
  FrameParser parser;
  Request parsed;
  {
    Buffer stream;  // body shorter than the fixed request header
    PutU32Raw(4, &stream);
    PutU32Raw(0, &stream);
    EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kError);
  }
  {
    Buffer stream;  // unknown message type byte
    PutU32Raw(8, &stream);
    const uint8_t body[8] = {9, 0, 0, 0, 1, 0, 0, 0};
    stream.Append(body, sizeof(body));
    EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kError);
  }
  {
    Buffer stream;  // image frame truncated inside the image sub-header
    PutU32Raw(12, &stream);
    const uint8_t body[12] = {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0};
    stream.Append(body, sizeof(body));
    EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kError);
  }
  {
    Buffer stream;  // pixel payload not a multiple of sizeof(float)
    PutU32Raw(8 + 12 + 3, &stream);
    std::vector<uint8_t> body(8 + 12 + 3, 0);
    body[0] = 1;
    stream.Append(body.data(), body.size());
    EXPECT_EQ(parser.Next(&stream, &parsed), ParseResult::kError);
  }
}

/// Drains `bytes` through one parser until it stops yielding frames. Every
/// call must return a ParseResult without throwing, and no decoded payload
/// may be larger than the bytes it was decoded from.
template <typename Parser, typename Message>
void ExpectBoundedDecode(const std::vector<uint8_t>& bytes, size_t max_body,
                         const char* context) {
  Buffer in;
  if (!bytes.empty()) in.Append(bytes.data(), bytes.size());
  Parser parser(max_body);
  Message out;
  // Each decoded frame consumes at least its 4-byte length prefix.
  for (size_t frames = 0; frames <= bytes.size() / 4; ++frames) {
    ParseResult r = ParseResult::kError;
    ASSERT_NO_THROW(r = parser.Next(&in, &out)) << context;
    ASSERT_TRUE(r == ParseResult::kNeedMore || r == ParseResult::kFrame ||
                r == ParseResult::kError)
        << context;
    if constexpr (std::is_same_v<Message, Request>) {
      ASSERT_LE(out.pixels.size() * sizeof(float), bytes.size()) << context;
    } else {
      ASSERT_LE(out.values.size() * sizeof(float), bytes.size()) << context;
    }
    ASSERT_LE(out.ping_payload.size(), bytes.size()) << context;
    if (r != ParseResult::kFrame) return;
  }
  FAIL() << context << ": parser yielded more frames than the input holds";
}

TEST(ProtocolTest, MutatedFramesNeverThrowOrOverAllocate) {
  // Seed corpus: one valid frame per request and response shape.
  std::vector<std::vector<uint8_t>> corpus;
  auto add = [&corpus](const Buffer& frame) {
    corpus.emplace_back(frame.Peek(), frame.Peek() + frame.ReadableBytes());
  };
  for (MessageType type : {MessageType::kClassifyTil, MessageType::kClassifyCil,
                           MessageType::kEncode}) {
    Buffer frame;
    AppendRequest(ImageRequest(type, 5, 1, 1, 3, 17), &frame);
    add(frame);
  }
  for (MessageType type : {MessageType::kPing, MessageType::kHealth}) {
    Request r;
    r.type = type;
    r.request_id = 6;
    if (type == MessageType::kPing) r.ping_payload = {1, 2, 3, 4, 5, 6, 7};
    Buffer frame;
    AppendRequest(r, &frame);
    add(frame);
  }
  for (MessageType type : {MessageType::kPing, MessageType::kClassifyCil,
                           MessageType::kHealth}) {
    Response r;
    r.request_id = 7;
    r.type = type;
    r.version = 3;
    if (type == MessageType::kPing) {
      r.ping_payload = {9, 8, 7};
    } else {
      r.values = {0.5f, -1.0f, 2.0f};
    }
    Buffer frame;
    AppendResponse(r, &frame);
    add(frame);
  }

  // A small limit makes the max_body_bytes +- 1 boundary reachable; every
  // mutant also runs against the default limit.
  constexpr size_t kMaxBody = 64;
  const uint32_t kFieldValues[] = {0, kMaxBody - 1, kMaxBody, kMaxBody + 1,
                                   UINT32_MAX};
  // Offsets of the u32 length prefix and of the response value count.
  const size_t kFieldOffsets[] = {0, 4 + 12};
  Rng rng(1234);
  constexpr int kCases = 12000;
  for (int c = 0; c < kCases; ++c) {
    std::vector<uint8_t> bytes = corpus[rng.NextBelow(corpus.size())];
    switch (rng.NextBelow(4)) {
      case 0: {  // flip 1-4 random bits
        const uint64_t flips = 1 + rng.NextBelow(4);
        for (uint64_t f = 0; f < flips; ++f) {
          bytes[rng.NextBelow(bytes.size())] ^=
              static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      }
      case 1:  // truncate anywhere, including to nothing
        bytes.resize(rng.NextBelow(bytes.size() + 1));
        break;
      case 2: {  // head of one frame + tail of another
        const std::vector<uint8_t>& other =
            corpus[rng.NextBelow(corpus.size())];
        bytes.resize(rng.NextBelow(bytes.size() + 1));
        bytes.insert(bytes.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(
                                         rng.NextBelow(other.size() + 1)),
                     other.end());
        break;
      }
      default: {  // length or count field set to a boundary value
        const size_t at = kFieldOffsets[rng.NextBelow(2)];
        const uint32_t v = kFieldValues[rng.NextBelow(5)];
        if (at + 4 > bytes.size()) break;
        for (size_t k = 0; k < 4; ++k) {
          bytes[at + k] = static_cast<uint8_t>(v >> (8 * k));
        }
        break;
      }
    }
    const std::string context = "case " + std::to_string(c);
    for (size_t limit : {kMaxBody, serve::kMaxFrameBytes}) {
      ExpectBoundedDecode<FrameParser, Request>(bytes, limit, context.c_str());
      ExpectBoundedDecode<ResponseParser, Response>(bytes, limit,
                                                    context.c_str());
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// MicroBatcher dispatch policy
// ---------------------------------------------------------------------------

struct BatchCollector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<uint32_t>> batches;
  size_t total = 0;

  MicroBatcher::BatchFn Fn() {
    return [this](std::vector<serve::InferenceRequest> batch) {
      std::vector<uint32_t> ids;
      for (const auto& r : batch) ids.push_back(r.request.request_id);
      std::lock_guard<std::mutex> lock(mu);
      total += ids.size();
      batches.push_back(std::move(ids));
      cv.notify_all();
    };
  }

  bool WaitForTotal(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return total >= n; });
  }
};

serve::InferenceRequest BatcherRequest(uint32_t id) {
  serve::InferenceRequest r;
  r.session_id = 1;
  r.request.request_id = id;
  return r;
}

TEST(MicroBatcherTest, FullBatchDispatchesBeforeDeadline) {
  BatchCollector collector;
  MicroBatcher::Options options;
  options.max_batch = 4;
  options.deadline_us = 60 * 1000 * 1000;  // only full batches may ship
  MicroBatcher batcher(options, collector.Fn());
  batcher.Start();
  for (uint32_t id = 0; id < 8; ++id) batcher.Submit(BatcherRequest(id));
  ASSERT_TRUE(collector.WaitForTotal(8, std::chrono::seconds(10)));
  {
    std::lock_guard<std::mutex> lock(collector.mu);
    for (const auto& batch : collector.batches) {
      EXPECT_EQ(batch.size(), 4u) << "full-batch dispatch must cap and fill";
    }
  }
  // A partial batch must NOT ship while the (huge) deadline is pending.
  batcher.Submit(BatcherRequest(100));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(collector.mu);
    EXPECT_EQ(collector.total, 8u);
  }
  batcher.Stop();  // drains the pending partial batch
  {
    std::lock_guard<std::mutex> lock(collector.mu);
    EXPECT_EQ(collector.total, 9u);
  }
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.batches, collector.batches.size());
  EXPECT_EQ(stats.max_batch_seen, 4);
}

TEST(MicroBatcherTest, DeadlineFlushesPartialBatch) {
  BatchCollector collector;
  MicroBatcher::Options options;
  options.max_batch = 100;
  options.deadline_us = 20 * 1000;  // 20ms
  MicroBatcher batcher(options, collector.Fn());
  batcher.Start();
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t id = 0; id < 3; ++id) batcher.Submit(BatcherRequest(id));
  ASSERT_TRUE(collector.WaitForTotal(3, std::chrono::seconds(10)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10)
      << "partial batch shipped before the oldest request's deadline";
  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.batches.size(), 1u) << "requests inside the window "
                                             "must coalesce into one batch";
  EXPECT_EQ(collector.batches[0].size(), 3u);
  batcher.Stop();
}

TEST(MicroBatcherTest, ZeroDeadlineDisablesCoalescing) {
  BatchCollector collector;
  MicroBatcher::Options options;
  options.max_batch = 2;
  options.deadline_us = 0;
  MicroBatcher batcher(options, collector.Fn());
  batcher.Start();
  for (uint32_t id = 0; id < 7; ++id) batcher.Submit(BatcherRequest(id));
  ASSERT_TRUE(collector.WaitForTotal(7, std::chrono::seconds(10)));
  std::lock_guard<std::mutex> lock(collector.mu);
  size_t seen = 0;
  for (const auto& batch : collector.batches) {
    EXPECT_LE(batch.size(), 2u) << "max_batch still caps the slice";
    seen += batch.size();
  }
  EXPECT_EQ(seen, 7u);
  batcher.Stop();
}

TEST(MicroBatcherTest, BoundedQueueRejectsWhenFullAndCountsRejections) {
  // One worker parked inside the batch fn => whatever we Submit afterwards
  // stays in the (bounded) queue deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<size_t> dispatched{0};
  MicroBatcher::Options options;
  options.max_batch = 1;
  options.deadline_us = 0;
  options.queue_max = 2;
  MicroBatcher batcher(options,
                       [&](std::vector<serve::InferenceRequest> batch) {
                         dispatched.fetch_add(batch.size());
                         std::unique_lock<std::mutex> lock(mu);
                         cv.wait(lock, [&] { return release; });
                       });
  batcher.Start();
  ASSERT_TRUE(batcher.Submit(BatcherRequest(1)));
  for (int i = 0; i < 10000 && dispatched.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(dispatched.load(), 1u) << "worker never picked up the request";

  // The worker is blocked holding request 1: these two fill the queue...
  EXPECT_TRUE(batcher.Submit(BatcherRequest(2)));
  EXPECT_TRUE(batcher.Submit(BatcherRequest(3)));
  // ...and these two must bounce without growing it.
  EXPECT_FALSE(batcher.Submit(BatcherRequest(4)));
  EXPECT_FALSE(batcher.Submit(BatcherRequest(5)));
  EXPECT_EQ(batcher.stats().rejected, 2u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  batcher.Stop();  // drains 2 and 3
  EXPECT_EQ(dispatched.load(), 3u) << "queued (accepted) requests must not "
                                      "be dropped by the bound";
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 3u) << "rejected requests must not count";
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(MicroBatcherTest, StopDrainsQueuedRequests) {
  BatchCollector collector;
  MicroBatcher::Options options;
  options.max_batch = 100;
  options.deadline_us = 60 * 1000 * 1000;
  MicroBatcher batcher(options, collector.Fn());
  batcher.Start();
  for (uint32_t id = 0; id < 5; ++id) batcher.Submit(BatcherRequest(id));
  batcher.Stop();
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_EQ(collector.total, 5u) << "Stop() must dispatch, not drop";
}

// ---------------------------------------------------------------------------
// End-to-end server
// ---------------------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.image_hw = 8;
    config_.channels = 3;
    config_.embed_dim = 16;
    config_.num_layers = 2;
    Rng rng(42);
    auto model = std::make_shared<models::CompactTransformer>(config_, &rng);
    model->AddTask(3);
    model->AddTask(2);
    model->SetTraining(false);
    model_ = model;
  }

  void TearDown() override { server_.reset(); }

  void StartServer(serve::InferenceServer::Options options) {
    options.port = 0;  // ephemeral
    server_ = std::make_unique<serve::InferenceServer>(options, model_);
    ASSERT_TRUE(server_->Start());
  }

  Request MakeRequest(MessageType type, uint32_t id, int64_t task,
                      uint64_t seed) const {
    return ImageRequest(type, id, task, config_.channels, config_.image_hw,
                        seed);
  }

  /// Quiesced single-request reference through the same fused entry points
  /// the engine uses, under the same batch-invariant GEMM dispatch the
  /// engine pins (kernel choice must not depend on batch composition, so a
  /// b=1 eval reproduces every row of any server-side micro-batch bitwise).
  std::vector<float> Reference(const Request& request) const {
    kernels::BatchInvariantGemmScope invariant_dispatch;
    const int64_t n = static_cast<int64_t>(request.pixels.size());
    Tensor image = Tensor::Uninitialized(Shape{1, config_.channels,
                                               config_.image_hw,
                                               config_.image_hw});
    std::memcpy(image.data(), request.pixels.data(),
                static_cast<size_t>(n) * sizeof(float));
    Tensor z = model_->EncodeSelfBatched(image, request.task);
    if (request.type == MessageType::kEncode) {
      return std::vector<float>(z.data(), z.data() + z.NumElements());
    }
    NoGradGuard no_grad;
    Tensor logits = request.type == MessageType::kClassifyTil
                        ? model_->TilLogits(z, request.task)
                        : model_->CilLogits(z);
    return std::vector<float>(logits.data(),
                              logits.data() + logits.NumElements());
  }

  static void ExpectBitwiseEqual(const std::vector<float>& got,
                                 const std::vector<float>& want,
                                 const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what << ": server response differs from quiesced local eval";
  }

  models::ModelConfig config_;
  std::shared_ptr<const models::CompactTransformer> model_;
  std::unique_ptr<serve::InferenceServer> server_;
};

TEST_F(ServeTest, PingEchoes) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  Request ping;
  ping.type = MessageType::kPing;
  ping.request_id = 77;
  ping.ping_payload = {1, 2, 3, 0, 255};
  Response response;
  ASSERT_TRUE(client.Call(ping, &response));
  EXPECT_EQ(response.request_id, 77u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.type, MessageType::kPing);
  EXPECT_EQ(response.ping_payload, ping.ping_payload);
  EXPECT_EQ(response.version, 1u)
      << "ping echoes the current snapshot version (cheap version probe)";
}

TEST_F(ServeTest, ClassifyAndEncodeMatchQuiescedEval) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  uint32_t id = 1;
  for (MessageType type : {MessageType::kClassifyTil, MessageType::kClassifyCil,
                           MessageType::kEncode}) {
    for (int64_t task = 0; task < model_->num_tasks(); ++task) {
      const Request request = MakeRequest(type, id, task, 100 + id);
      Response response;
      ASSERT_TRUE(client.Call(request, &response));
      EXPECT_EQ(response.request_id, id);
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      EXPECT_EQ(response.type, type);
      ExpectBitwiseEqual(response.values, Reference(request), "round-trip");
      ++id;
    }
  }
}

TEST_F(ServeTest, ErrorStatuses) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  Response response;

  Request bad_task = MakeRequest(MessageType::kClassifyTil, 1, 99, 1);
  ASSERT_TRUE(client.Call(bad_task, &response));
  EXPECT_EQ(response.status, ResponseStatus::kBadTask);
  EXPECT_TRUE(response.values.empty());

  Request bad_shape = MakeRequest(MessageType::kClassifyTil, 2, 0, 2);
  bad_shape.height = config_.image_hw + 1;
  ASSERT_TRUE(client.Call(bad_shape, &response));
  EXPECT_EQ(response.status, ResponseStatus::kBadShape);

  Request bad_pixels = MakeRequest(MessageType::kEncode, 3, 0, 3);
  bad_pixels.pixels.pop_back();  // dims say N, payload carries N-1
  ASSERT_TRUE(client.Call(bad_pixels, &response));
  EXPECT_EQ(response.status, ResponseStatus::kBadRequest);

  // The connection must survive error responses.
  Request good = MakeRequest(MessageType::kEncode, 4, 0, 4);
  ASSERT_TRUE(client.Call(good, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
}

TEST_F(ServeTest, PipelinedRequestsAllAnswered) {
  serve::InferenceServer::Options options;
  options.max_batch = 8;
  options.deadline_us = 500;
  StartServer(options);
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  constexpr uint32_t kCount = 40;
  std::map<uint32_t, Request> sent;
  for (uint32_t id = 1; id <= kCount; ++id) {
    const MessageType type = static_cast<MessageType>(1 + (id % 3));
    Request request = MakeRequest(type, id, id % model_->num_tasks(), id);
    ASSERT_TRUE(client.Send(request));
    sent.emplace(id, std::move(request));
  }
  for (uint32_t i = 0; i < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    auto it = sent.find(response.request_id);
    ASSERT_NE(it, sent.end()) << "unknown or duplicate id";
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    ExpectBitwiseEqual(response.values, Reference(it->second), "pipelined");
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());
}

TEST_F(ServeTest, HalfCloseStillGetsResponses) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  constexpr uint32_t kCount = 5;
  std::map<uint32_t, Request> sent;
  for (uint32_t id = 1; id <= kCount; ++id) {
    Request request = MakeRequest(MessageType::kEncode, id, 0, id);
    ASSERT_TRUE(client.Send(request));
    sent.emplace(id, std::move(request));
  }
  // shutdown(SHUT_WR): EOF reaches the server while its responses are still
  // in flight; the session must linger until everything is flushed.
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  for (uint32_t i = 0; i < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    ExpectBitwiseEqual(response.values, Reference(sent.at(response.request_id)),
                       "half-close");
  }
  Response eof_probe;
  EXPECT_FALSE(client.Receive(&eof_probe)) << "server should close after "
                                              "draining a half-closed peer";
}

TEST_F(ServeTest, OversizedFrameClosesConnectionButServerSurvives) {
  StartServer({});
  serve::Client bad;
  ASSERT_TRUE(bad.Connect(server_->port()));
  Request huge;
  huge.type = MessageType::kPing;
  huge.request_id = 1;
  huge.ping_payload.resize((4u << 20) + 16, 0x5A);  // over kMaxFrameBytes
  // The server kills the connection on the oversized length prefix; the
  // send may already fail with EPIPE/ECONNRESET, and any receive must fail.
  if (bad.Send(huge)) {
    Response response;
    EXPECT_FALSE(bad.Receive(&response));
  }
  serve::Client good;
  ASSERT_TRUE(good.Connect(server_->port()));
  Response response;
  const Request request = MakeRequest(MessageType::kClassifyTil, 2, 0, 9);
  ASSERT_TRUE(good.Call(request, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ExpectBitwiseEqual(response.values, Reference(request), "post-oversize");
}

TEST_F(ServeTest, AbruptDisconnectDoesNotKillServer) {
  StartServer({});
  // A peer that sends work and vanishes before reading responses triggers
  // writes to a dead socket: with SIGPIPE ignored that is just EPIPE and the
  // server keeps serving everyone else.
  for (int round = 0; round < 3; ++round) {
    serve::Client rude;
    ASSERT_TRUE(rude.Connect(server_->port()));
    ASSERT_TRUE(rude.Send(MakeRequest(MessageType::kClassifyCil, 1, 0, 5)));
    rude.Close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  serve::Client polite;
  ASSERT_TRUE(polite.Connect(server_->port()));
  Response response;
  const Request request = MakeRequest(MessageType::kClassifyCil, 2, 1, 6);
  ASSERT_TRUE(polite.Call(request, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ExpectBitwiseEqual(response.values, Reference(request), "post-disconnect");
}

TEST_F(ServeTest, LargePingForcesPartialWriteBuffering) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  Request ping;
  ping.type = MessageType::kPing;
  ping.request_id = 5;
  ping.ping_payload.resize(1u << 20);  // 1 MiB >> socket buffers
  Rng rng(3);
  for (uint8_t& b : ping.ping_payload) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  Response response;
  ASSERT_TRUE(client.Call(ping, &response));
  EXPECT_EQ(response.ping_payload, ping.ping_payload)
      << "echo must survive EPOLLOUT-driven partial-write flushing";
}

TEST_F(ServeTest, OverloadRepliesKOverloadedAndConnectionSurvives) {
  // Park the single worker at the run seam so the bounded queue fills
  // deterministically — no sleeps, no load-dependent timing.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> held{0};
  } gate;
  serve::SetRunSeamForTest([&gate](uint32_t) {
    gate.held.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.open; });
  });

  serve::InferenceServer::Options options;
  options.workers = 1;
  options.max_batch = 1;
  options.deadline_us = 0;
  options.queue_max = 2;
  StartServer(options);
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Request 1 dispatches into the parked worker; wait for it to be HELD (not
  // merely queued) so requests 2..5 land in the bounded queue, not a batch.
  std::map<uint32_t, Request> sent;
  Request first = MakeRequest(MessageType::kEncode, 1, 0, 21);
  ASSERT_TRUE(client.Send(first));
  sent.emplace(1, std::move(first));
  for (int i = 0; i < 10000 && gate.held.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gate.held.load(), 1);

  // 2 and 3 fill the queue; 4 and 5 must bounce as kOverloaded frames.
  for (uint32_t id = 2; id <= 5; ++id) {
    Request request = MakeRequest(MessageType::kEncode, id, 0, 20 + id);
    ASSERT_TRUE(client.Send(request));
    sent.emplace(id, std::move(request));
  }

  // The rejections are answered immediately by the loop thread, so they
  // arrive first — version-stamped with the current snapshot like any other
  // response, and with empty payloads.
  for (uint32_t want_id : {4u, 5u}) {
    Response response;
    ASSERT_TRUE(client.Receive(&response));
    EXPECT_EQ(response.request_id, want_id);
    EXPECT_EQ(response.status, ResponseStatus::kOverloaded);
    EXPECT_EQ(response.type, MessageType::kEncode);
    EXPECT_EQ(response.version, server_->published_version());
    EXPECT_TRUE(response.values.empty());
  }

  // Release the worker: the accepted requests (1..3) must all complete, and
  // the connection must stay fully usable after the overload episode.
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();
  for (int i = 0; i < 3; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    ExpectBitwiseEqual(response.values, Reference(sent.at(response.request_id)),
                       "post-overload drain");
  }
  Response response;
  const Request again = MakeRequest(MessageType::kClassifyTil, 9, 0, 31);
  ASSERT_TRUE(client.Call(again, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ExpectBitwiseEqual(response.values, Reference(again), "post-overload call");

  EXPECT_EQ(server_->batcher_stats().rejected, 2u);
  serve::SetRunSeamForTest(nullptr);
}

TEST_F(ServeTest, SlowConsumerStoppingMidBurstStillGetsEveryResponse) {
  serve::InferenceServer::Options options;
  options.workers = 2;
  options.max_batch = 8;
  options.deadline_us = 200;
  StartServer(options);
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Burst a window of work — including fat ping echoes that overflow socket
  // buffers — then stop consuming entirely: the server must park the backlog
  // in per-session output buffers (EPOLLOUT-driven flushing) instead of
  // blocking its loop thread or dropping responses.
  constexpr uint32_t kCount = 24;
  std::map<uint32_t, Request> sent;
  for (uint32_t id = 1; id <= kCount; ++id) {
    Request request;
    if (id % 3 == 0) {
      request.type = MessageType::kPing;
      request.request_id = id;
      request.ping_payload.assign(256u << 10,
                                  static_cast<uint8_t>(id & 0xff));
    } else {
      request = MakeRequest(MessageType::kEncode, id, 0, 40 + id);
    }
    ASSERT_TRUE(client.Send(request));
    sent.emplace(id, std::move(request));
  }
  // Mid-burst stall: the consumer goes silent while responses pile up.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  for (uint32_t i = 0; i < kCount; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const Request& want = sent.at(response.request_id);
    if (want.type == MessageType::kPing) {
      EXPECT_EQ(response.ping_payload, want.ping_payload);
    } else {
      ExpectBitwiseEqual(response.values, Reference(want), "slow consumer");
    }
  }
  EXPECT_EQ(server_->batcher_stats().rejected, 0u)
      << "a slow reader alone must not trip admission control";
}

TEST_F(ServeTest, PublishSwapsModelSnapshot) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  Response response;
  const Request future_task = MakeRequest(MessageType::kClassifyTil, 1, 2, 8);
  ASSERT_TRUE(client.Call(future_task, &response));
  EXPECT_EQ(response.status, ResponseStatus::kBadTask);
  EXPECT_EQ(response.version, 1u);

  // Publish a grown model (same shape, one more task head).
  Rng rng(43);
  auto grown = std::make_shared<models::CompactTransformer>(config_, &rng);
  grown->AddTask(3);
  grown->AddTask(2);
  grown->AddTask(4);
  grown->SetTraining(false);
  EXPECT_EQ(server_->Publish(grown), 2u);
  EXPECT_EQ(server_->published_version(), 2u);
  model_ = grown;  // Reference() should follow the published snapshot

  ASSERT_TRUE(client.Call(future_task, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.version, 2u);
  ExpectBitwiseEqual(response.values, Reference(future_task), "post-publish");
}

TEST_F(ServeTest, EintrStormDoesNotCorruptStream) {
  // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART makes every
  // interrupted syscall fail with EINTR instead of resuming transparently —
  // the retry loops in net.cc/event_loop.cc must absorb the storm.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = [](int) {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, nullptr), 0);

  StartServer({});
  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load()) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  for (uint32_t id = 1; id <= 50; ++id) {
    const Request request =
        MakeRequest(MessageType::kClassifyTil, id, id % 2, id);
    Response response;
    ASSERT_TRUE(client.Call(request, &response)) << id;
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    ExpectBitwiseEqual(response.values, Reference(request), "under storm");
  }
  storming.store(false);
  storm.join();
  signal(SIGUSR1, SIG_DFL);
}

// Across worker counts, server-side micro-batched responses are bitwise
// identical to the quiesced single-thread fused eval. Kernels are thread-count
// invariant and batched eval is per-sample bitwise stable, so micro-batch
// composition must never leak into results.
TEST_F(ServeTest, BatchedResponsesBitwiseMatchSequentialEval) {
  for (int64_t workers : {1, 4}) {
    serve::InferenceServer::Options options;
    options.workers = workers;
    options.max_batch = 16;
    options.deadline_us = 1000;
    StartServer(options);

    // Quiesced references first.
    constexpr uint32_t kCount = 30;
    std::map<uint32_t, Request> sent;
    std::map<uint32_t, std::vector<float>> expected;
    for (uint32_t id = 1; id <= kCount; ++id) {
      const MessageType type = static_cast<MessageType>(1 + (id % 3));
      Request request =
          MakeRequest(type, id, id % model_->num_tasks(), 1000 + id);
      expected.emplace(id, Reference(request));
      sent.emplace(id, std::move(request));
    }

    serve::Client a, b;
    ASSERT_TRUE(a.Connect(server_->port()));
    ASSERT_TRUE(b.Connect(server_->port()));
    for (const auto& [id, request] : sent) {
      ASSERT_TRUE((id % 2 == 0 ? a : b).Send(request));
    }
    const size_t remaining_a = sent.size() / 2;
    const size_t remaining_b = sent.size() - remaining_a;
    for (serve::Client* client : {&a, &b}) {
      const size_t want = client == &a ? remaining_a : remaining_b;
      for (size_t i = 0; i < want; ++i) {
        Response response;
        ASSERT_TRUE(client->Receive(&response));
        ASSERT_EQ(response.status, ResponseStatus::kOk);
        ExpectBitwiseEqual(response.values, expected.at(response.request_id),
                           "worker sweep");
      }
    }
    const MicroBatcher::Stats stats = server_->batcher_stats();
    EXPECT_GT(stats.max_batch_seen, 1)
        << "load should have exercised real micro-batches";
    server_.reset();
  }
}

// Pipelined multi-connection soak with batching and 2 workers: thousands of
// requests (CDCL_SOAK_REQS scales per-connection volume), every response
// checked bitwise. Also exercises Stop() with live connections (TearDown).
TEST_F(ServeTest, SoakManyConnectionsPipelined) {
  serve::InferenceServer::Options options;
  options.workers = 2;
  options.max_batch = 8;
  options.deadline_us = 200;
  StartServer(options);

  // Small request pool so references are computed once, quiesced.
  std::vector<Request> pool;
  std::vector<std::vector<float>> expected;
  for (uint32_t i = 0; i < 12; ++i) {
    const MessageType type = static_cast<MessageType>(1 + (i % 3));
    pool.push_back(MakeRequest(type, 0, i % model_->num_tasks(), 500 + i));
    expected.push_back(Reference(pool.back()));
  }

  const int64_t per_connection = EnvInt("CDCL_SOAK_REQS", 300);
  constexpr int kConnections = 4;
  constexpr uint32_t kWindow = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.emplace_back([&, c] {
      serve::Client client;
      if (!client.Connect(server_->port())) {
        failures.fetch_add(1);
        return;
      }
      uint32_t next_id = 1;
      uint32_t in_flight = 0;
      int64_t received = 0;
      auto variant = [&](uint32_t id) {
        return (static_cast<size_t>(id) + static_cast<size_t>(c)) %
               pool.size();
      };
      while (received < per_connection) {
        while (in_flight < kWindow &&
               static_cast<int64_t>(next_id) <= per_connection) {
          Request request = pool[variant(next_id)];
          request.request_id = next_id++;
          if (!client.Send(request)) {
            failures.fetch_add(1);
            return;
          }
          ++in_flight;
        }
        Response response;
        if (!client.Receive(&response) ||
            response.status != ResponseStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
        const std::vector<float>& want = expected[variant(response.request_id)];
        if (response.values.size() != want.size() ||
            std::memcmp(response.values.data(), want.data(),
                        want.size() * sizeof(float)) != 0) {
          failures.fetch_add(1);
          return;
        }
        --in_flight;
        ++received;
      }
    });
  }
  for (std::thread& t : connections) t.join();
  EXPECT_EQ(failures.load(), 0);
  const MicroBatcher::Stats stats = server_->batcher_stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kConnections * per_connection));
  EXPECT_GT(stats.max_batch_seen, 1);
}

// ---------------------------------------------------------------------------
// Client retry backoff (pure schedule — no sleeps, no server)
// ---------------------------------------------------------------------------

TEST(RetryBackoffTest, ScheduleIsCappedExponentialWithJitter) {
  serve::RetryPolicy policy;
  policy.base_delay_us = 1000;
  policy.max_delay_us = 100000;

  Rng rng(7);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    // Nominal delay doubles per attempt until the cap.
    int64_t nominal = policy.base_delay_us;
    for (int i = 1; i < attempt && nominal < policy.max_delay_us; ++i) {
      nominal *= 2;
    }
    nominal = std::min(nominal, policy.max_delay_us);
    const int64_t delay = serve::RetryDelayUs(policy, attempt, &rng);
    EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
    EXPECT_LE(delay, nominal) << "attempt " << attempt;
  }
  // Deep attempts sit inside the cap's jitter band, never above it.
  const int64_t deep = serve::RetryDelayUs(policy, 62, &rng);
  EXPECT_GE(deep, policy.max_delay_us / 2);
  EXPECT_LE(deep, policy.max_delay_us);
  EXPECT_EQ(serve::RetryDelayUs(policy, 0, &rng), 0);

  // The jitter is the caller's seeded stream: same seed, same schedule —
  // retrying clients are reproducible end to end.
  Rng rng_a(123), rng_b(123);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(serve::RetryDelayUs(policy, attempt, &rng_a),
              serve::RetryDelayUs(policy, attempt, &rng_b))
        << attempt;
  }
}

// ---------------------------------------------------------------------------
// Health probe + idle-session reaping
// ---------------------------------------------------------------------------

TEST_F(ServeTest, HealthProbeAnswersCompleteWithoutAReporter) {
  StartServer({});
  serve::Client client;
  ASSERT_TRUE(client.Connect(server_->port()));
  Request probe;
  probe.type = MessageType::kHealth;
  probe.request_id = 5;
  Response response;
  ASSERT_TRUE(client.Call(probe, &response));
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.type, MessageType::kHealth);
  ASSERT_EQ(response.values.size(), 1u);
  // A standalone server has no training plane: health is kComplete. (The
  // degraded/training codes are pinned in tests/degrade_test.cc.)
  EXPECT_EQ(static_cast<int>(response.values[0]),
            static_cast<int>(serve::ServerHealth::kComplete));
  EXPECT_EQ(response.version, 1u);
}

TEST_F(ServeTest, IdleSessionsAreReapedActiveOnesAreNot) {
  serve::InferenceServer::Options options;
  options.idle_timeout_ms = 100;
  StartServer(options);

  serve::Client idle_client;
  ASSERT_TRUE(idle_client.Connect(server_->port()));
  Request ping;
  ping.type = MessageType::kPing;
  ping.request_id = 1;
  Response response;
  ASSERT_TRUE(idle_client.Call(ping, &response));  // alive, then goes silent

  serve::Client active_client;
  ASSERT_TRUE(active_client.Connect(server_->port()));

  // Keep the active session chatty while the idle one rots. The sweep runs
  // every timeout/2, so well within the deadline the idle session is gone.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (server_->reaped_sessions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(active_client.Call(ping, &response));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->reaped_sessions(), 1u)
      << "idle session was never reaped";

  // The reaped connection is dead from the client's side...
  EXPECT_FALSE(idle_client.Call(ping, &response));
  // ...while the active one never noticed a thing, and new connections are
  // accepted as usual.
  ASSERT_TRUE(active_client.Call(ping, &response));
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  serve::Client fresh;
  EXPECT_TRUE(fresh.Connect(server_->port()));
}

}  // namespace
}  // namespace cdcl
