/// Wire-protocol unit tests: roundtrip encode/decode for every message
/// type, incremental framing, and rejection of truncated, oversized,
/// trailing-garbage, and lying-length frames (the bounded-validation
/// guarantees a malformed peer can never make the decoder over-allocate).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace holix::net {
namespace {

/// Encodes message \p m, decodes it back through the framing layer, and
/// returns the re-decoded message (EXPECTing every step to succeed).
template <typename M>
M Roundtrip(const M& m, uint64_t request_id = 7) {
  const std::vector<uint8_t> bytes = EncodeMessage(request_id, m);
  Frame f;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(f.request_id, request_id);
  EXPECT_EQ(f.type, M::kType);
  M out;
  EXPECT_TRUE(DecodeMessage(f, &out)) << MsgTypeName(M::kType);
  return out;
}

TEST(Protocol, RoundtripHandshake) {
  const Hello hello = Roundtrip(Hello{});
  EXPECT_EQ(hello.magic, kMagic);
  EXPECT_EQ(hello.version, kProtocolVersion);
  HelloAck ack;
  ack.version = 3;
  EXPECT_EQ(Roundtrip(ack).version, 3);
}

TEST(Protocol, RoundtripSessionMessages) {
  Roundtrip(OpenSessionReq{});
  OpenSessionAck ack;
  ack.session_id = 0xDEADBEEFCAFE;
  EXPECT_EQ(Roundtrip(ack).session_id, 0xDEADBEEFCAFEull);
  CloseSessionReq close;
  close.session_id = 42;
  EXPECT_EQ(Roundtrip(close).session_id, 42u);
  Roundtrip(CloseSessionAck{});
}

TEST(Protocol, RoundtripRangeRequests) {
  // The one-predicate query shapes (count, sum, rowids, project-sum) are
  // single-predicate ExecuteQuery frames; extreme int64 bounds survive.
  for (uint8_t kind = 0; kind <= 3; ++kind) {
    ExecuteQueryReq req;
    req.session_id = 9;
    req.table = "r";
    req.predicates = {{"a0", std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max()}};
    req.results = {{kind, kind % 2 == 1 ? "p" : ""}};
    const ExecuteQueryReq out = Roundtrip(req);
    EXPECT_EQ(out.session_id, 9u);
    EXPECT_EQ(out.table, "r");
    ASSERT_EQ(out.predicates.size(), 1u);
    EXPECT_EQ(out.predicates[0].column, "a0");
    EXPECT_EQ(out.predicates[0].low, std::numeric_limits<int64_t>::min());
    EXPECT_EQ(out.predicates[0].high, std::numeric_limits<int64_t>::max());
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].kind, kind);
    EXPECT_EQ(out.results[0].column, kind % 2 == 1 ? "p" : "");
  }
}

TEST(Protocol, RoundtripResults) {
  ExecuteQueryResult count;
  count.values = {KeyScalar::I64(12345)};
  EXPECT_EQ(Roundtrip(count).values[0], 12345);
  ExecuteQueryResult rows;
  rows.values = {KeyScalar::I64(4)};
  rows.rowids = {1, 2, 3, 0xFFFFFFFFFFFFull};
  EXPECT_EQ(Roundtrip(rows).rowids, rows.rowids);
  InsertResult ins;
  ins.rowid = 77;
  EXPECT_EQ(Roundtrip(ins).rowid, 77u);
  DeleteResult del;
  del.found = true;
  EXPECT_TRUE(Roundtrip(del).found);
}

TEST(Protocol, RoundtripUpdatesAndError) {
  InsertReq ins;
  ins.session_id = 1;
  ins.table = "r";
  ins.column = "a";
  ins.value = -42;
  EXPECT_EQ(Roundtrip(ins).value, -42);
  DeleteReq del;
  del.session_id = 1;
  del.table = "r";
  del.column = "a";
  del.value = 7;
  EXPECT_EQ(Roundtrip(del).value, 7);
  ErrorMsg err;
  err.code = ErrorCode::kNoSuchColumn;
  err.message = "no column r.z";
  const ErrorMsg e = Roundtrip(err);
  EXPECT_EQ(e.code, ErrorCode::kNoSuchColumn);
  EXPECT_EQ(e.message, "no column r.z");
}

// --- Typed scalar frames (protocol v2) -----------------------------------

TEST(Protocol, RoundtripTypedScalars) {
  // f64 bounds survive bit-exactly, including the special keys, and mixed
  // carriers stay independent on the wire.
  ExecuteQueryReq req;
  req.session_id = 4;
  req.table = "r";
  req.predicates = {
      {"price", KeyScalar::F64(0.25),
       KeyScalar::F64(std::numeric_limits<double>::quiet_NaN())},
      {"price", KeyScalar::I64(-7), KeyScalar::F64(1e18)}};
  req.results = {{1, "price"}};
  const ExecuteQueryReq q = Roundtrip(req);
  EXPECT_TRUE(q.predicates[0].low == KeyScalar::F64(0.25));
  EXPECT_TRUE(q.predicates[0].high.is_f64());
  EXPECT_TRUE(std::isnan(q.predicates[0].high.d));
  EXPECT_FALSE(q.predicates[1].low.is_f64());
  EXPECT_EQ(q.predicates[1].low.i, -7);
  EXPECT_TRUE(q.predicates[1].high == KeyScalar::F64(1e18));

  // f64 sum results: -0.0 and +inf keep their exact bit patterns.
  ExecuteQueryResult r;
  r.values = {KeyScalar::F64(-0.0),
              KeyScalar::F64(std::numeric_limits<double>::infinity()),
              KeyScalar::F64(1234.5625)};
  const ExecuteQueryResult rt = Roundtrip(r);
  EXPECT_TRUE(rt.values[0] == KeyScalar::F64(-0.0));
  EXPECT_TRUE(rt.values[1] ==
              KeyScalar::F64(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(rt.values[2] == KeyScalar::F64(1234.5625));

  // f64 update values.
  InsertReq ins;
  ins.session_id = 1;
  ins.table = "r";
  ins.column = "price";
  ins.value = KeyScalar::F64(2.5);
  EXPECT_TRUE(Roundtrip(ins).value == KeyScalar::F64(2.5));
  DeleteReq del;
  del.session_id = 1;
  del.table = "r";
  del.column = "price";
  del.value = KeyScalar::F64(-2.5);
  EXPECT_TRUE(Roundtrip(del).value == KeyScalar::F64(-2.5));
}

TEST(Protocol, ScalarKindTagBeyondOneRejected) {
  InsertReq req;
  req.session_id = 1;
  req.table = "r";
  req.column = "a";
  req.value = 1;
  std::vector<uint8_t> bytes = EncodeMessage(1, req);
  // Payload layout: u64 session, u16+1 "r", u16+1 "a", then the value's
  // kind tag byte.
  const size_t tag_off = kFrameHeaderBytes + 8 + (2 + 1) + (2 + 1);
  ASSERT_EQ(bytes[tag_off], 0u);  // i64 kind
  bytes[tag_off] = 2;             // unknown scalar kind
  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);  // framing itself is intact
  InsertReq out;
  EXPECT_FALSE(DecodeMessage(f, &out));  // the scalar decoder rejects it
}

TEST(Protocol, TruncatedScalarPayloadRejected) {
  // A frame whose payload ends mid-scalar (kind tag present, payload
  // bytes short) must reject, not read past the end.
  WireWriter w;
  w.U8(1);          // one value
  w.U8(1);          // f64 kind
  w.U32(0xDEAD);    // only 4 of the 8 payload bytes
  Frame f;
  f.type = MsgType::kExecuteQueryResult;
  f.request_id = 1;
  f.payload = w.Take();
  ExecuteQueryResult out;
  EXPECT_FALSE(DecodeMessage(f, &out));
}

TEST(Protocol, TruncatedFramesNeedMore) {
  ExecuteQueryReq req;
  req.table = "r";
  req.predicates = {{"a", KeyScalar::I64(1), KeyScalar::I64(2)}};
  req.results = {{0, ""}};
  const std::vector<uint8_t> bytes = EncodeMessage(1, req);
  // Every strict prefix is kNeedMore, never kMalformed and never a frame.
  for (size_t n = 0; n < bytes.size(); ++n) {
    Frame f;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(TryDecodeFrame(bytes.data(), n, &f, &consumed, &error),
              DecodeStatus::kNeedMore)
        << "prefix " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Protocol, OversizedPayloadLengthRejectedBeforeAllocation) {
  // Header claiming a payload beyond kMaxPayloadBytes: malformed
  // immediately, even though no payload bytes follow.
  WireWriter w;
  w.U32(static_cast<uint32_t>(kMaxPayloadBytes + 1));
  w.U8(static_cast<uint8_t>(MsgType::kExecuteQuery));
  w.U64(1);
  Frame f;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(w.bytes().data(), w.bytes().size(), &f, &consumed,
                           &error),
            DecodeStatus::kMalformed);
  EXPECT_NE(error.find("exceeds cap"), std::string::npos) << error;
}

TEST(Protocol, UnknownMessageTypeRejected) {
  WireWriter w;
  w.U32(0);
  w.U8(200);  // not a MsgType
  w.U64(1);
  Frame f;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(w.bytes().data(), w.bytes().size(), &f, &consumed,
                           &error),
            DecodeStatus::kMalformed);
  // Type 0 is reserved-invalid too.
  WireWriter z;
  z.U32(0);
  z.U8(0);
  z.U64(1);
  EXPECT_EQ(TryDecodeFrame(z.bytes().data(), z.bytes().size(), &f, &consumed,
                           &error),
            DecodeStatus::kMalformed);
}

TEST(Protocol, RetiredMessageTypesRejected) {
  // Types 7-14 carried the per-primitive query frames of protocol v2-v4.
  // They are a gap in the v5 numbering, rejected from the header alone
  // like any unknown type: the header claims a payload that never arrives,
  // so a decoder that waited for it would report kNeedMore instead.
  for (uint8_t type = 7; type <= 14; ++type) {
    WireWriter w;
    w.U32(64);
    w.U8(type);
    w.U64(1);
    Frame f;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(TryDecodeFrame(w.bytes().data(), w.bytes().size(), &f,
                             &consumed, &error),
              DecodeStatus::kMalformed)
        << "type " << static_cast<int>(type);
    EXPECT_NE(error.find("unknown message type"), std::string::npos) << error;
    EXPECT_EQ(consumed, 0u);
  }
  EXPECT_EQ(kFirstRetiredMsgType, 7);
  EXPECT_EQ(kLastRetiredMsgType, 14);
  EXPECT_EQ(kProtocolVersion, 6);
}

TEST(Protocol, TrailingGarbageRejectsMessage) {
  InsertResult res;
  res.rowid = 5;
  std::vector<uint8_t> bytes = EncodeMessage(1, res);
  bytes.push_back(0xAB);             // extra payload byte...
  bytes[0] += 1;                     // ...declared in the length prefix
  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);
  InsertResult out;
  EXPECT_FALSE(DecodeMessage(f, &out));  // payload must parse exactly
}

TEST(Protocol, OverlongStringRejected) {
  // Writer-side cap.
  WireWriter w;
  EXPECT_THROW(w.Str(std::string(kMaxStringBytes + 1, 'x')),
               std::length_error);
  // Reader-side cap: a hand-built payload with a length prefix beyond the
  // cap fails cleanly.
  WireWriter payload;
  payload.U64(1);                                        // session id
  payload.U16(static_cast<uint16_t>(kMaxStringBytes + 1));  // lying prefix
  WireWriter frame;
  frame.U32(static_cast<uint32_t>(payload.bytes().size()));
  frame.U8(static_cast<uint8_t>(MsgType::kInsert));
  frame.U64(1);
  std::vector<uint8_t> bytes = frame.Take();
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());
  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);
  InsertReq out;
  EXPECT_FALSE(DecodeMessage(f, &out));
}

TEST(Protocol, MultipleFramesDecodeSequentially) {
  InsertResult a;
  a.rowid = 1;
  DeleteResult b;
  b.found = true;
  std::vector<uint8_t> bytes = EncodeMessage(10, a);
  const std::vector<uint8_t> second = EncodeMessage(11, b);
  bytes.insert(bytes.end(), second.begin(), second.end());

  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(f.request_id, 10u);
  const size_t first = consumed;
  ASSERT_EQ(TryDecodeFrame(bytes.data() + first, bytes.size() - first, &f,
                           &consumed, &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(f.request_id, 11u);
  EXPECT_EQ(first + consumed, bytes.size());
}

TEST(Protocol, RoundtripExecuteQuery) {
  ExecuteQueryReq req;
  req.session_id = 77;
  req.table = "lineitem";
  req.predicates.push_back({"l_shipdate", KeyScalar::I64(365),
                            KeyScalar::I64(730)});
  req.predicates.push_back({"l_discount", KeyScalar::F64(0.05),
                            KeyScalar::F64(0.07)});
  req.predicates.push_back(
      {"l_quantity", KeyScalar::I64(0), KeyScalar::I64(24)});
  req.results.push_back({0, ""});              // count
  req.results.push_back({1, "l_extendedprice"});  // sum
  req.results.push_back({2, ""});              // rowids
  const ExecuteQueryReq out = Roundtrip(req);
  EXPECT_EQ(out.session_id, 77u);
  EXPECT_EQ(out.table, "lineitem");
  ASSERT_EQ(out.predicates.size(), 3u);
  EXPECT_EQ(out.predicates[0].column, "l_shipdate");
  EXPECT_TRUE(out.predicates[0].low == KeyScalar::I64(365));
  EXPECT_TRUE(out.predicates[1].low == KeyScalar::F64(0.05));
  EXPECT_TRUE(out.predicates[1].high == KeyScalar::F64(0.07));
  ASSERT_EQ(out.results.size(), 3u);
  EXPECT_EQ(out.results[1].kind, 1u);
  EXPECT_EQ(out.results[1].column, "l_extendedprice");

  ExecuteQueryResult res;
  res.values.push_back(KeyScalar::I64(3));
  res.values.push_back(KeyScalar::F64(1234.5));
  res.values.push_back(KeyScalar::I64(3));
  res.rowids = {4, 9, 16};
  const ExecuteQueryResult rt = Roundtrip(res);
  ASSERT_EQ(rt.values.size(), 3u);
  EXPECT_TRUE(rt.values[1] == KeyScalar::F64(1234.5));
  EXPECT_EQ(rt.rowids, (std::vector<uint64_t>{4, 9, 16}));
}

TEST(Protocol, ExecuteQueryPredicateCountValidatedBeforeAllocation) {
  // Helper: one encoded single-predicate request we can then corrupt.
  ExecuteQueryReq req;
  req.session_id = 1;
  req.table = "t";
  req.predicates.push_back({"c", KeyScalar::I64(0), KeyScalar::I64(1)});
  req.results.push_back({0, ""});
  std::vector<uint8_t> bytes = EncodeMessage(1, req);
  // Payload layout: u64 session, u16+1 "t", then the predicate count.
  const size_t npred_off = kFrameHeaderBytes + 8 + (2 + 1);
  ASSERT_EQ(bytes[npred_off], 1u);

  auto decode = [](const std::vector<uint8_t>& b) {
    Frame f;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(TryDecodeFrame(b.data(), b.size(), &f, &consumed, &error),
              DecodeStatus::kFrame);
    ExecuteQueryReq out;
    return DecodeMessage(f, &out);
  };

  // A predicate count above the cap rejects before any vector grows, even
  // though the payload could never hold 255 predicates.
  bytes[npred_off] = 255;
  EXPECT_FALSE(decode(bytes));
  // An empty conjunction rejects too.
  bytes[npred_off] = 0;
  EXPECT_FALSE(decode(bytes));
  bytes[npred_off] = 1;
  EXPECT_TRUE(decode(bytes));  // restored: valid again
}

TEST(Protocol, ExecuteQueryBadKindsRejected) {
  ExecuteQueryReq req;
  req.session_id = 1;
  req.table = "t";
  req.predicates.push_back({"c", KeyScalar::I64(0), KeyScalar::I64(1)});
  req.results.push_back({0, ""});
  {
    // Scalar kind 2 in a predicate bound poisons the decode.
    std::vector<uint8_t> bytes = EncodeMessage(1, req);
    const size_t tag_off = kFrameHeaderBytes + 8 + (2 + 1) + 1 + (2 + 1);
    ASSERT_EQ(bytes[tag_off], 0u);  // low bound's i64 kind tag
    bytes[tag_off] = 2;
    Frame f;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed,
                             &error),
              DecodeStatus::kFrame);
    ExecuteQueryReq out;
    EXPECT_FALSE(DecodeMessage(f, &out));
  }
  {
    // Result kind above 3 rejects.
    ExecuteQueryReq bad = req;
    bad.results[0].kind = 4;
    const std::vector<uint8_t> bytes = EncodeMessage(1, bad);
    Frame f;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed,
                             &error),
              DecodeStatus::kFrame);
    ExecuteQueryReq out;
    EXPECT_FALSE(DecodeMessage(f, &out));
  }
  {
    // A sum result kind with an empty column name rejects at the frame
    // layer (it could never resolve server-side).
    ExecuteQueryReq bad = req;
    bad.results[0] = {1, ""};
    const std::vector<uint8_t> bytes = EncodeMessage(1, bad);
    Frame f;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed,
                             &error),
              DecodeStatus::kFrame);
    ExecuteQueryReq out;
    EXPECT_FALSE(DecodeMessage(f, &out));
  }
}

TEST(Protocol, ExecuteQueryResultLyingRowIdCountRejected) {
  // A result whose rowid count promises far more rowids than the payload
  // holds must fail validation without reserving anything: the claimed
  // count must match the bytes actually present.
  WireWriter payload;
  payload.U8(1);                      // one value
  payload.Scalar(KeyScalar::I64(1));  // the value
  payload.U32(50000000);              // claims 5e7 rowids
  payload.U64(1);                     // ...carries one
  WireWriter frame;
  frame.U32(static_cast<uint32_t>(payload.bytes().size()));
  frame.U8(static_cast<uint8_t>(MsgType::kExecuteQueryResult));
  frame.U64(3);
  std::vector<uint8_t> bytes = frame.Take();
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());
  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);
  ExecuteQueryResult out;
  EXPECT_FALSE(DecodeMessage(f, &out));
  EXPECT_TRUE(out.rowids.empty());
}

TEST(Protocol, RoundtripGetStats) {
  GetStatsResult stats;
  stats.snapshot.counters = {{"holix_planner_probe_total", 42}};
  stats.snapshot.gauges = {{"holix_index_pieces", 17.5}};
  obs::HistogramSnapshot h;
  h.name = "holix_stage_seconds{stage=\"probe\"}";
  h.bounds = {0.001, 0.01};
  h.counts = {3, 2, 1};
  h.sum = 0.125;
  stats.snapshot.histograms = {h};
  obs::QueryTrace t;
  t.seq = 9;
  t.mode = 6;
  t.predicates = 3;
  t.results = 2;
  t.probe_filters = 2;
  t.pieces_created = 4;
  t.bytes_scanned = 1 << 20;
  t.latency_seconds = 0.25;
  t.slow = true;
  stats.snapshot.traces = {t, obs::QueryTrace{}};
  EXPECT_EQ(Roundtrip(stats).snapshot, stats.snapshot);

  // A v6 trace record is 38 bytes; one byte more or less fails the
  // section's exact-length check.
  GetStatsResult empty;
  GetStatsResult one;
  one.snapshot.traces = {t};
  EXPECT_EQ(EncodeMessage(1, one).size() - EncodeMessage(1, empty).size(),
            38u);
  std::vector<uint8_t> bytes = EncodeMessage(1, one);
  bytes.pop_back();
  bytes[0] -= 1;
  Frame f;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &f, &consumed, &error),
            DecodeStatus::kFrame);
  GetStatsResult out;
  EXPECT_FALSE(DecodeMessage(f, &out));
}

TEST(Protocol, LittleEndianOnTheWire) {
  // The format is explicitly little-endian: byte 0 of the frame is the low
  // byte of the payload length, and scalar payloads serialize low-first.
  OpenSessionAck ack;
  ack.session_id = 0x0102030405060708ull;
  const std::vector<uint8_t> bytes = EncodeMessage(0, ack);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 8);
  EXPECT_EQ(bytes[0], 8);  // payload length low byte
  EXPECT_EQ(bytes[kFrameHeaderBytes], 0x08);      // session id low byte
  EXPECT_EQ(bytes[kFrameHeaderBytes + 7], 0x01);  // session id high byte
}

}  // namespace
}  // namespace holix::net
